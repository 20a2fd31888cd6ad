"""The four workloads: what one job does, and how its answers are judged.

A job is the same fixed list of operations every time it runs. It starts
from documents in memory (model text or URI, policy text, property text)
or from the long-lived objects ``setup`` made from them, and returns its
answers. ``judge`` compares them with computations from ``oracles``, which
never call the program, and returns the operations whose answers are wrong.
"""

from __future__ import annotations

import csv
import io
import json
import os
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import inputs, oracles

# Operations that fail on every run because of a known fault in the
# program. The gambler's ruin reaches the goal with probability exactly
# 1/4, but Gauss-Seidel stops on a sweep residual that bounds nothing and
# answers 0.2499999882886..., so ``P>=0.25`` comes out "no".
KNOWN_FAULTS = {"solve": {'gambler P>=0.25 [F "goal"]'}}

# The documented sweep CSV header.
CSV_HEADER = "method,layer,fraction,seed,property,m,m_hat,delta,states,transitions,time_ms"

# A delta at or below this reads "unchanged" (documented).
UNCHANGED_TOLERANCE = 1e-12


class Workload:
    """Seeded documents, long-lived objects, one job, and its judge."""

    name = ""

    def __init__(self, seed: int, out_dir: Path):
        self.out_dir = out_dir
        self.info: dict = {}

    def setup_request(self) -> dict:
        """Documents the set-up builds objects from: builtin URIs and policy texts."""
        return {"uris": [], "policies": []}

    def setup(self, pc) -> None:
        """Build the long-lived objects in this process; ``pc`` is the package."""

    def operations(self) -> list:
        """Ids of the operations one job attempts, in order."""
        raise NotImplementedError

    def job(self, pc) -> list:
        """Run the operations once; returns [(operation id, answer)]."""
        raise NotImplementedError

    def judge(self, pc, answers: list) -> set:
        """Ids of the operations whose answers are wrong or missing."""
        expected = self.expected(pc)
        got = dict(answers)
        return {op for op in self.operations() if op not in got or not self.agrees(op, got[op], expected[op])}

    def expected(self, pc) -> dict:
        """Operation id -> what an independent computation says."""
        raise NotImplementedError

    def agrees(self, op: str, answer, expected) -> bool:
        return answer == expected

    def originals(self) -> list:
        """Policy documents that are never pruned, for the trace to recognise."""
        return []

    def swap_envs(self, fn) -> None:
        """Replace each long-lived environment ``env`` by ``fn(env)``."""


# ===== solve =====


class Solve(Workload):
    """Parse explicit chains, build them with a one-action policy, check unbounded operators."""

    name = "solve"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.docs = inputs.solve_inputs(seed)

    def setup_request(self):
        return {"uris": [], "policies": [self.docs["policy"]]}

    def setup(self, pc):
        self.policy = pc.load_policy(self.docs["policy"])

    def operations(self):
        return [f"{name} {op}" for name, chain in self.docs["chains"].items() for op in ("build", *chain["properties"])]

    def job(self, pc):
        answers = []
        for name, chain in self.docs["chains"].items():
            env = pc.load_explicit_model(chain["text"])
            build = pc.build_induced_dtmc(env, self.policy)
            answers.append((f"{name} build", (build.stats.states, build.stats.transitions)))
            for text in chain["properties"]:
                result = pc.check(build.dtmc, pc.parse_property(text))
                answers.append((f"{name} {text}", (result.value, result.satisfied)))
        return answers

    def expected(self, pc):
        out = {}
        for name, chain in self.docs["chains"].items():
            own = explicit_chain(chain)
            out[f"{name} build"] = (len(own.states), own.transitions)
            exact = gambler_exact() if name == "gambler" else random_exact(own)
            out.update((f"{name} {text}", exact[text]) for text in chain["properties"])
        self.info["random_states"] = out["random build"][0]
        return out

    def agrees(self, op, answer, expected):
        if op.endswith(" build"):
            return answer == expected
        (value, satisfied), (exact, tolerance, verdict) = answer, expected
        error = abs(Fraction(value) - Fraction(exact))
        key = "gambler_error" if op.startswith("gambler") else "random_error"
        self.info[key] = max(self.info.get(key, 0.0), float(error))
        return error <= Fraction(tolerance) and satisfied == verdict


def explicit_chain(chain: dict) -> oracles.Chain:
    """The chain of an explicit one-action document, explored from its initial state."""
    table = {tuple(e["s"]): e for e in chain["entries"]}

    def successors(state):
        return [(tuple(b["to"]), float(Fraction(b["p"]))) for b in table[state]["act"]["pi"]]

    states, rows = oracles.explore((chain["initial"],), successors)
    return oracles.Chain(states=states, rows=rows, labels=[set(table[s].get("labels", [])) for s in states])


def random_exact(chain: oracles.Chain) -> dict:
    """Property text -> (exact value, tolerance, verdict) by sparse direct solves."""
    matrix = chain.matrix()
    everything = np.ones(len(chain.states), dtype=bool)
    goal = chain.mask("goal")
    reach_bad, stay_bad = oracles.until_exact(chain, everything, chain.mask("bad"), matrix)
    solved = {
        'P=? [!"hot" U "goal"]': oracles.until_exact(chain, ~chain.mask("hot"), goal, matrix),
        'P=? [F "goal"]': oracles.until_exact(chain, everything, goal, matrix),
        'P=? [G !"bad"]': (1.0 - reach_bad, stay_bad),
        'P=? [SEQ("a", "goal")]': oracles.seq_exact(chain, chain.mask("a"), goal, matrix),
    }
    return {text: (float(values[0]), oracles.solver_tolerance(stay), None) for text, (values, stay) in solved.items()}


def gambler_exact() -> dict:
    """Closed forms for the fair gambler's ruin, as exact fractions.

    From i on 0..N the walk reaches N before 0 with probability i/N, and
    reaches the "low" block (entering it at LOW) before N with probability
    (N-i)/(N-LOW). The largest expected absorption time, max i(N-i) = N^2/4,
    scales the tolerance. Threshold verdicts are decided on the fractions.
    """
    n, i, low = inputs.GAMBLER_N, inputs.GAMBLER_START, inputs.GAMBLER_LOW
    win = Fraction(i, n)
    seq = Fraction(n - i, n - low) * Fraction(low, n)
    tolerance = oracles.solver_tolerance(n * n / 4)
    quarter = Fraction(1, 4)
    return {
        'P>=0.25 [F "goal"]': (win, tolerance, win >= quarter),
        'P<=0.25 [!"bad" U "goal"]': (win, tolerance, win <= quarter),
        'P=? [G !"bad"]': (win, tolerance, None),
        'P=? [SEQ("low", "goal")]': (seq, tolerance, None),
    }


# ===== explore =====


class Explore(Workload):
    """Build induced chains of seeded ReLU policies on avoidance grids; check bounded operators."""

    name = "explore"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.docs = inputs.explore_inputs(seed)

    def setup_request(self):
        cases = self.docs["cases"]
        return {"uris": [c["uri"] for c in cases], "policies": [c["policy"] for c in cases]}

    def setup(self, pc):
        self.objects = [(pc.from_uri(c["uri"]), pc.load_policy(c["policy"])) for c in self.docs["cases"]]

    def originals(self):
        return [c["policy_doc"] for c in self.docs["cases"]]

    def swap_envs(self, fn):
        self.objects = [(fn(env), policy) for env, policy in self.objects]

    def operations(self):
        return [f"{k} {op}" for k in range(len(self.docs["cases"])) for op in ("build", *self.docs["properties"])]

    def job(self, pc):
        answers = []
        for k, (env, policy) in enumerate(self.objects):
            build = pc.build_induced_dtmc(env, policy)
            answers.append((f"{k} build", (build.stats.states, build.stats.transitions)))
            for text in self.docs["properties"]:
                answers.append((f"{k} {text}", pc.check(build.dtmc, pc.parse_property(text)).value))
        return answers

    def expected(self, pc):
        out = {}
        for k, case in enumerate(self.docs["cases"]):
            chain = oracles.avoid_chain(case["grid"], case["policy_doc"])
            out[f"{k} build"] = (len(chain.states), chain.transitions)
            for text, value in zip(self.docs["properties"], explore_values(chain)):
                out[f"{k} {text}"] = value
        self.info["states"] = [case["states"] for case in self.docs["cases"]]
        return out

    def agrees(self, op, answer, expected):
        if op.endswith(" build"):
            return answer == expected
        return abs(answer - expected) <= oracles.ROUNDING_SLACK


def explore_values(chain: oracles.Chain) -> list:
    """Initial-state values of ``inputs.EXPLORE_PROPERTIES``, by mat-vecs."""
    matrix = chain.matrix()
    everything = np.ones(len(chain.states), dtype=bool)
    collision = chain.mask("collision")
    return [
        1.0 - oracles.bounded_until(chain, everything, collision, 50, matrix)[0],
        oracles.bounded_until(chain, everything, collision, 30, matrix)[0],
        oracles.bounded_until(chain, ~collision, collision, 30, matrix)[0],
        oracles.next_probability(chain, collision, matrix)[0],
    ]


# ===== validate =====


class Validate(Workload):
    """Walk builtin models under every action with ``validate_model``."""

    name = "validate"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.docs = inputs.validate_inputs(seed)

    def setup_request(self):
        return {"uris": [uri for uri, _ in self.docs["models"]], "policies": []}

    def setup(self, pc):
        self.envs = [pc.from_uri(uri) for uri, _ in self.docs["models"]]

    def swap_envs(self, fn):
        self.envs = [fn(env) for env in self.envs]

    def operations(self):
        return [uri for uri, _ in self.docs["models"]]

    def job(self, pc):
        answers = []
        for (uri, _), env in zip(self.docs["models"], self.envs):
            report = pc.validate_model(env)
            answers.append((uri, (report.states, report.transitions, report.ok)))
        return answers

    def expected(self, pc):
        out = {uri: oracles.all_action_counts(model) + (True,) for uri, model in self.docs["models"]}
        self.info["counts"] = list(out.values())
        return out


# ===== sweep =====


class Sweep(Workload):
    """A random-prune sweep, an l1 sweep and a features table, each through ``cli.main``.

    Operations: each document's header and each of its rows. A document the
    CLI failed to write fails all of its operations.
    """

    name = "sweep"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.docs = inputs.sweep_inputs(seed)
        case = self.docs["case"]
        self.policy_path = out_dir / "policy.json"
        common = ["--model", case["uri"], "--policy", str(self.policy_path), "--prop", self.docs["property"]]
        grid = ["--layer", str(inputs.SWEEP_LAYER), "--fractions", inputs.SWEEP_FRACTIONS]
        seeds = ",".join(str(s) for s in inputs.SWEEP_SEEDS)
        self.commands = {
            "random": ["sweep", *common, "--method", "random", *grid, "--seeds", seeds],
            "l1": ["sweep", *common, "--method", "l1", *grid],
            "features": ["features", *common],
        }
        self.remeasured: dict = {}
        self.rows = {
            "random": len(sweep_fractions()) * (len(inputs.SWEEP_SEEDS) + 1),
            "l1": len(sweep_fractions()),
            "features": len(case["policy_doc"]["features"]),
        }

    def setup_request(self):
        case = self.docs["case"]
        return {"uris": [case["uri"]], "policies": [case["policy"]]}

    def setup(self, pc):
        self.policy_path.write_text(self.docs["case"]["policy"], encoding="utf-8")

    def originals(self):
        return [self.docs["case"]["policy_doc"]]

    def operations(self):
        return [f"{name} {op}" for name, count in self.rows.items() for op in ("header", *(f"row {k}" for k in range(1, count + 1)))]

    def job(self, pc):
        answers = []
        for name, argv in self.commands.items():
            out = self.out_dir / f"{name}.out"
            code = pc.cli.main([*argv, "--out", str(out)])
            answers.append((name, (code, out.read_text(encoding="utf-8") if code == 0 else "")))
            if code == 0:
                os.remove(out)
        return answers

    def judge(self, pc, answers):
        checker = SweepChecker(pc, self.docs["case"], self.docs["property"], self.remeasured)
        right = set()
        for name, (code, text) in answers:
            if code == 0:
                found = checker.features(text) if name == "features" else checker.sweep(text, name)
                right |= {f"{name} {op}" for op in found}
        self.info.update(checker.info())
        return set(self.operations()) - right


def sweep_fractions() -> list:
    start, stop, step = (Fraction(part) for part in inputs.SWEEP_FRACTIONS.split(":"))
    return [start + k * step for k in range(int((stop - start) / step) + 1)]


class SweepChecker:
    """Judges sweep CSVs and feature tables; each check returns the operations found right.

    ``m`` must equal the program's standalone ``measure`` on every row and
    agree with the oracle. Every ``m_hat`` is re-measured by the oracles on
    the pruned weights: l1 ranks by its own rule, random takes the
    program's mask after checking its size and support, features zero the
    column. Fraction-0 rows must have ``delta`` exactly 0, and each mean row
    must be the mean of its seed rows.
    """

    def __init__(self, pc, case: dict, property_text: str, cache: dict):
        self.pc = pc
        self.cache = cache  # pruned weights -> (m_hat, states, transitions, keeps every action)
        self.case = case
        self.property_text = property_text
        self.policy = pc.load_policy(case["policy"])
        self.chain = oracles.avoid_chain(case["grid"], case["policy_doc"])
        self.m = sweep_value(self.chain)
        self.measured = pc.measure(pc.from_uri(case["uri"]), self.policy, property_text).m
        self.original_actions = actions_on(self.chain, case["policy_doc"], case["grid"])
        self.rows = 0
        self.rows_keeping_actions = 0

    def info(self) -> dict:
        return {
            "states": len(self.chain.states),
            "pruned_rows": self.rows,
            "rows_keeping_every_action": self.rows_keeping_actions,
        }

    def remeasure(self, doc: dict, count_row: bool) -> tuple[float, int, int]:
        """m_hat, states and transitions of a pruned policy document, by the oracles."""
        key = json.dumps(doc["layers"])
        if key not in self.cache:
            chain = oracles.avoid_chain(self.case["grid"], doc)
            keeps = actions_on(self.chain, doc, self.case["grid"]) == self.original_actions
            self.cache[key] = (sweep_value(chain), len(chain.states), chain.transitions, keeps)
        m_hat, states, transitions, keeps = self.cache[key]
        if count_row:
            self.rows += 1
            self.rows_keeping_actions += keeps
        return m_hat, states, transitions

    def sweep(self, text: str, method: str) -> set:
        lines = text.splitlines()
        right = {"header"} if lines and lines[0] == CSV_HEADER else set()
        batch: list = []
        for k, row in enumerate(csv.reader(io.StringIO("\n".join(lines[1:]))), start=1):
            if (
                len(row) == 11
                and row[:2] == [method, str(inputs.SWEEP_LAYER)]
                and row[4] == self.property_text
                and row[5] == repr(self.measured)
                and abs(self.measured - self.m) <= oracles.ROUNDING_SLACK
                and self.row_right(row, method, batch)
            ):
                right.add(f"row {k}")
        return right

    def row_right(self, row: list, method: str, batch: list) -> bool:
        fraction, seed, m_hat, delta = float(row[2]), row[3], float(row[6]), float(row[7])
        if seed == "mean":
            seed_rows, batch[:] = list(batch), []
            if len(seed_rows) != len(inputs.SWEEP_SEEDS):
                return False
            return (m_hat, delta) == (
                sum(r[0] for r in seed_rows) / len(seed_rows),
                sum(r[1] for r in seed_rows) / len(seed_rows),
            )
        batch.append((m_hat, delta))
        doc = self.pruned_doc(method, fraction, int(seed) if seed else None)
        if doc is None:
            return False
        want, states, transitions = self.remeasure(doc, count_row=True)
        return (
            abs(m_hat - want) <= oracles.ROUNDING_SLACK
            and delta == m_hat - self.measured
            and (row[8], row[9]) == (str(states), str(transitions))
            and (fraction != 0 or (delta == 0.0 and m_hat == self.measured))
        )

    def pruned_doc(self, method: str, fraction: float, seed) -> dict | None:
        """The pruned document, or None when the program's random mask is malformed."""
        layer = inputs.SWEEP_LAYER - 1
        weights = np.array(self.case["policy_doc"]["layers"][layer]["w"], dtype=np.float64)
        nonzero = [(r, c) for r in range(weights.shape[0]) for c in range(weights.shape[1]) if weights[r, c] != 0.0]
        count = int(Fraction(repr(fraction)) * len(nonzero) + Fraction(1, 2))  # round half up
        if method == "l1":
            chosen = sorted(nonzero, key=lambda rc: (abs(weights[rc]), rc[0], rc[1]))[:count]
        else:
            spec = self.pc.PruneSpec(method="random", layer=inputs.SWEEP_LAYER, fraction=fraction, seed=seed)
            _, mask = self.pc.prune(self.policy, spec)
            chosen = [(r - 1, c - 1) for _, r, c in mask.zeroed]
            if len(set(chosen)) != count or not set(chosen) <= set(nonzero) or {z[0] for z in mask.zeroed} - {inputs.SWEEP_LAYER}:
                return None
        return zeroed_doc(self.case["policy_doc"], layer, chosen)

    def features(self, text: str) -> set:
        lines = text.splitlines()
        doc = self.case["policy_doc"]
        head = [f"property: {self.property_text}", f"m: {self.measured!r}", ""]
        right = {"header"} if lines[:3] == head and lines[3:4] and lines[3].split() == ["feature", "m_hat", "delta", "verdict"] else set()
        first_layer_rows = len(doc["layers"][0]["w"])
        for k, (line, feature) in enumerate(zip(lines[4:], doc["features"])):
            parts = line.split()
            if len(parts) != 4:
                continue
            name, m_hat, delta, verdict = parts[0], float(parts[1]), float(parts[2]), parts[3]
            want, _, _ = self.remeasure(zeroed_doc(doc, 0, [(r, k) for r in range(first_layer_rows)]), count_row=False)
            unchanged = abs(delta) <= UNCHANGED_TOLERANCE
            if (
                name == feature
                and abs(m_hat - want) <= oracles.ROUNDING_SLACK
                and delta == m_hat - self.measured
                and verdict == ("unchanged" if unchanged else "improved" if delta > 0 else "degraded")
            ):
                right.add(f"row {k + 1}")
        return right


def sweep_value(chain: oracles.Chain) -> float:
    """``inputs.SWEEP_PROPERTY`` from the initial state, by mat-vecs."""
    everything = np.ones(len(chain.states), dtype=bool)
    return float(1.0 - oracles.bounded_until(chain, everything, chain.mask("collision"), inputs.SWEEP_HORIZON)[0])


def zeroed_doc(doc: dict, layer: int, coords) -> dict:
    """A copy of a policy document with the given (row, col) weights of one layer set to 0."""
    out = json.loads(json.dumps(doc))
    for r, c in coords:
        out["layers"][layer]["w"][r][c] = 0.0
    return out


def actions_on(chain: oracles.Chain, doc: dict, grid: dict) -> list:
    """The action a policy document picks on each state of a chain."""
    mlp = oracles.Mlp(doc)
    return [mlp.choose(s, oracles.avoid_actions(s, grid["width"], grid["height"])) for s in chain.states]


WORKLOADS = {cls.name: cls for cls in (Solve, Explore, Validate, Sweep)}
