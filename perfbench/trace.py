"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of each prunecheck module
(and ``NeuralPolicy.select_action``) wherever the package holds a
reference to them, and ``wrap_env`` wraps an environment's callables.
Each call records a span: name, start, end, parent and job. Self time is a
span's duration minus the time of the spans it caused.

The innermost calls (environment callables and ``select_action``) come by
the hundred thousand per job, so they are counted and timed per job rather
than kept one span each; every other span is kept in memory and written
out when the run ends.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function name, layer) for every wrapped module function.
WRAPPED = (
    ("model", "load_explicit_model", "model.load"),
    ("model", "validate_model", "model.validate"),
    ("environments", "from_uri", "environments"),
    ("induced", "build_induced_dtmc", "induced"),
    ("checking", "check", "checking"),
    ("pruning", "prune", "pruning"),
    ("pruning", "feature_prune", "pruning"),
    ("workflow", "measure", "workflow"),
    ("workflow", "prune_and_measure", "workflow"),
    ("workflow", "feature_importance", "workflow"),
    ("workflow", "sweep", "workflow"),
    ("cli", "main", "cli"),
)
ENV_CALLABLES = ("available_actions", "successors", "labels")
LEAVES = {"environments.call", "policy.select"}


class Tracer:
    def __init__(self, pc, original_docs: list):
        self.pc = pc
        self.originals = {_fingerprint_doc(doc) for doc in original_docs}
        self.spans: list = []
        self.stack: list = []  # frames: [span id, start, child time]
        self.next_id = 0
        self.patches: list = []
        self.reset_job(-1)

    # ----- job bookkeeping -----

    def reset_job(self, job: int) -> None:
        self.job = job
        self.self_time: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.excluded = 0.0  # time spent on estimates that are not part of the job
        self.sweeps = 0
        self.prob01_s = 0.0
        self.original_builds = 0
        self.original_s = 0.0
        self.original_chains: dict = {}

    def job_figures(self) -> dict:
        return {
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "excluded": self.excluded,
            "sweeps": self.sweeps,
            "prob01_s": self.prob01_s,
            "original_builds": self.original_builds,
            "original_s": self.original_s,
        }

    # ----- spans -----

    def _enter(self) -> list:
        frame = [self.next_id, time.perf_counter(), 0.0]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def _leave(self, frame: list, name: str) -> None:
        end = time.perf_counter()
        self.stack.pop()
        span_id, start, child = frame
        duration = end - start
        if self.stack:
            self.stack[-1][2] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        if name not in LEAVES:
            parent = self.stack[-1][0] if self.stack else None
            self.spans.append((name, start, end, span_id, parent, self.job))

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leave(frame, name)

        traced.__wrapped__ = fn
        return traced

    def _exclude(self, started: float) -> None:
        """Charge the time since ``started`` to no layer and not to the job."""
        spent = time.perf_counter() - started
        self.excluded += spent
        if self.stack:
            self.stack[-1][2] += spent

    # ----- installing -----

    def install(self) -> None:
        pc = self.pc
        replacements = {}
        for module, attr, layer in WRAPPED:
            fn = getattr(getattr(pc, module), attr)
            if attr in ("from_uri", "load_explicit_model"):
                replacement = self._traced_loader(layer, fn)
            elif attr == "build_induced_dtmc":
                replacement = self._traced_build(fn)
            elif attr == "check":
                replacement = self._traced_check(fn)
            else:
                replacement = self._wrap(layer, fn)
            replacements[id(fn)] = (fn, replacement)
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in replacements and replacements[id(value)][0] is value:
                    self.patches.append((module, attr, value))
                    setattr(module, attr, replacements[id(value)][1])
        select = pc.NeuralPolicy.select_action
        self.patches.append((pc.NeuralPolicy, "select_action", select))
        pc.NeuralPolicy.select_action = self._wrap("policy.select", select)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self.patches):
            setattr(owner, attr, value)
        self.patches = []

    def wrap_env(self, env):
        """The same environment with each callable traced."""
        return dataclasses.replace(
            env, **{attr: self._wrap("environments.call", getattr(env, attr)) for attr in ENV_CALLABLES}
        )

    @staticmethod
    def unwrap_env(env):
        return dataclasses.replace(env, **{attr: getattr(env, attr).__wrapped__ for attr in ENV_CALLABLES})

    def _traced_loader(self, layer: str, fn):
        """A model or environment constructor whose environments come out traced."""
        inner = self._wrap(layer, fn)
        return lambda text: self.wrap_env(inner(text))

    def _traced_build(self, fn):
        inner = self._wrap("induced", fn)

        def build(env, policy, limits=None):
            original = _fingerprint_policy(policy) in self.originals
            started = time.perf_counter()
            result = inner(env, policy, limits)
            if original:
                self.original_builds += 1
                self.original_s += time.perf_counter() - started
                self.original_chains[id(result.dtmc)] = result.dtmc
            return result

        return build

    def _traced_check(self, fn):
        inner = self._wrap("checking", fn)

        def check(dtmc, prop):
            started = time.perf_counter()
            result = inner(dtmc, prop)
            if id(dtmc) in self.original_chains:
                self.original_s += time.perf_counter() - started
            self.sweeps += result.iterations
            estimate_started = time.perf_counter()
            self._estimate_prob01(dtmc, prop)
            self._exclude(estimate_started)
            return result

        return check

    def _estimate_prob01(self, dtmc, prop) -> None:
        """Time the public ``prob01`` on the sets an unbounded until would use.

        The checker's own graph analysis is internal, so this separate call
        on the same chain and sets estimates its share. SEQ runs on an
        internal product chain and is not estimated.
        """
        pc = self.pc
        path = prop.path
        everything = frozenset(range(dtmc.num_states))
        if isinstance(path, pc.Until) and path.bound is None:
            a, b = pc.evaluate_states(dtmc, path.left), pc.evaluate_states(dtmc, path.right)
        elif isinstance(path, pc.Eventually) and path.bound is None:
            a, b = everything, pc.evaluate_states(dtmc, path.target)
        elif isinstance(path, pc.Globally) and path.bound is None:
            a, b = everything, everything - pc.evaluate_states(dtmc, path.target)
        else:
            return
        started = time.perf_counter()
        pc.prob01(dtmc, a, b)
        self.prob01_s += time.perf_counter() - started

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, span_id, parent, job in self.spans:
                handle.write(
                    json.dumps({"name": name, "start": start, "end": end, "id": span_id, "parent": parent, "job": job})
                    + "\n"
                )


def _package_modules() -> list:
    return [module for name, module in sys.modules.items() if name == "prunecheck" or name.startswith("prunecheck.")]


def _fingerprint_policy(policy) -> tuple:
    return tuple(layer.weights.tobytes() + layer.bias.tobytes() for layer in policy.layers)


def _fingerprint_doc(doc: dict) -> tuple:
    return tuple(
        np.array(layer["w"], dtype=np.float64).tobytes() + np.array(layer["b"], dtype=np.float64).tobytes()
        for layer in doc["layers"]
    )


def layer_metrics(figures: dict) -> dict:
    """Per-layer numbers of one traced job, by the names BENCHMARK.json lists."""
    own, calls = figures["self"], figures["calls"]
    return {
        "model.load_s": own.get("model.load", 0.0),
        "model.validate_s": own.get("model.validate", 0.0),
        "environments.calls": calls.get("environments.call", 0) + calls.get("environments", 0),
        "environments.s": own.get("environments.call", 0.0) + own.get("environments", 0.0),
        "policy.select_calls": calls.get("policy.select", 0),
        "policy.select_s": own.get("policy.select", 0.0),
        "induced.builds": calls.get("induced", 0),
        "induced.original_builds": figures["original_builds"],
        "induced.self_s": own.get("induced", 0.0),
        "checking.checks": calls.get("checking", 0),
        "checking.check_s": own.get("checking", 0.0),
        "checking.sweeps": figures["sweeps"],
        "checking.prob01_s": figures["prob01_s"],
        "pruning.prune_s": own.get("pruning", 0.0),
        "workflow.self_s": own.get("workflow", 0.0),
        "workflow.original_s": figures["original_s"],
        "cli.self_s": own.get("cli", 0.0),
    }
