"""The package names that the benchmark in ``perfbench/`` reads.

The benchmark drives the package through its public API and, with
``--trace 1``, wraps public functions from outside. Removing or renaming
any name used here breaks the benchmark, so it fails these tests first.
"""

from __future__ import annotations

import pytest

import prunecheck as pc
import prunecheck.cli  # noqa: F401  (the benchmark wraps cli.main)
from perfbench.trace import ENV_CALLABLES, WRAPPED, Tracer

from .conftest import NO_COLLISION_6, drift_avoidance_env, fixture_text, gambler_text, lazy_walker_policy


def test_tracer_installs_runs_and_uninstalls(step_policy):
    originals = {(module, attr): getattr(getattr(pc, module), attr) for module, attr, _ in WRAPPED}
    select = pc.NeuralPolicy.select_action
    tracer = Tracer(pc, [])
    tracer.install()
    try:
        # An unbounded G makes the tracer's prob01 estimate do set algebra
        # on evaluate_states.
        env = pc.load_explicit_model(fixture_text("two_coin.json"))
        report = pc.measure(env, step_policy, 'P=? [G !"goal"]')
    finally:
        tracer.uninstall()
    assert report.m == 0.75
    assert tracer.calls["checking"] == 1
    assert tracer.prob01_s > 0.0
    for (module, attr), fn in originals.items():
        assert getattr(getattr(pc, module), attr) is fn
    assert pc.NeuralPolicy.select_action is select


def test_result_attributes_the_benchmark_reads():
    env, policy = drift_avoidance_env(), lazy_walker_policy()
    build = pc.build_induced_dtmc(env, policy)
    assert (build.stats.states, build.stats.transitions) == (build.dtmc.num_states, build.dtmc.num_transitions)
    result = pc.check(build.dtmc, pc.parse_property(NO_COLLISION_6))
    assert (result.value, result.satisfied, result.iterations) == (2187 / 4096, None, 6)
    report = pc.validate_model(env)
    assert report.ok and 0 < report.states <= report.transitions
    assert pc.measure(env, policy, NO_COLLISION_6).m == 2187 / 4096
    _, mask = pc.prune(policy, pc.PruneSpec(method="random", layer=1, fraction=0.5, seed=0))
    assert all(layer == 1 for layer, _, _ in mask.zeroed)


@pytest.mark.parametrize("builtin", [True, False])
def test_wrapped_environments_keep_their_answers(step_policy, builtin):
    # The exact gambler's verdict holds only if its rows keep their rationals
    # through the tracer's wrapping.
    if builtin:
        env, policy, prop = drift_avoidance_env(), lazy_walker_policy(), NO_COLLISION_6
    else:
        env, policy, prop = pc.load_explicit_model(gambler_text("1/2")), step_policy, 'P>=0.25 [F "goal"]'
    tracer = Tracer(pc, [])
    wrapped = tracer.wrap_env(env)
    unwrapped = Tracer.unwrap_env(wrapped)
    expected = (pc.report_to_dict(pc.measure(env, policy, prop)), pc.validate_model(env))
    for each in (wrapped, unwrapped):
        assert (pc.report_to_dict(pc.measure(each, policy, prop)), pc.validate_model(each)) == expected
    assert tracer.calls["environments.call"] > 0
    assert all(getattr(unwrapped, attr) is getattr(env, attr) for attr in ENV_CALLABLES)
    if not builtin:
        assert expected[0]["satisfied"] is True
