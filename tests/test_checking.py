"""Exact checking: fixture values, qualitative sets, oracle agreement."""

from __future__ import annotations

import random
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from prunecheck import (
    Dtmc,
    UnknownLabelWarning,
    bounded_until_probability,
    check,
    evaluate_states,
    next_probability,
    parse_property,
    prob01,
    seq_probability,
    until_probability,
)

from .conftest import label_sets, random_dtmc
from .oracles import bounded_until_loop, next_loop, next_paths, seq_linear, until_linear, until_paths

# Random chains legitimately miss a label now and then; those warnings are
# the subject of TestEvaluateStates, noise everywhere else.
pytestmark = pytest.mark.filterwarnings("ignore::prunecheck.UnknownLabelWarning")

# ===== Unbounded fixture values =====


class TestUnboundedFixtures:
    def test_chain3_half(self, chain3):
        result = check(chain3, parse_property('P=?[F "goal"]'))
        assert result.value == 0.5
        assert result.per_state == (0.5, 1.0, 0.0)
        assert result.satisfied is None

    def test_loop_certain_via_graph_analysis(self, loop):
        result = check(loop, parse_property('P=?[F "goal"]'))
        assert result.value == 1.0
        assert result.iterations == 0
        assert result.residual == 0.0

    def test_two_coin_quarter(self, two_coin):
        result = check(two_coin, parse_property('P=?[F "goal"]'))
        assert result.value == 0.25

    def test_chain3_converges_in_two_sweeps(self, chain3):
        result = check(chain3, parse_property('P=?[F "goal"]'))
        assert result.iterations == 2
        assert result.residual == 0.0

    def test_globally_is_complement(self, chain3):
        result = check(chain3, parse_property('P=?[G !"bad"]'))
        assert result.value == 0.5

    def test_globally_inside_absorbing_goal(self, loop):
        assert check(loop, parse_property('P=?[G !"goal"]')).value == 0.0


# ===== Qualitative sets =====


class TestProb01:
    def test_chain3_sets(self, chain3):
        everything = frozenset(range(3))
        zero, one = prob01(chain3, everything, chain3.states_with("goal"))
        assert zero == frozenset({2})
        assert one == frozenset({1})

    def test_loop_is_all_prob1(self, loop):
        zero, one = prob01(loop, frozenset(range(2)), loop.states_with("goal"))
        assert zero == frozenset()
        assert one == frozenset({0, 1})

    def test_empty_target_is_all_prob0(self, chain3):
        zero, one = prob01(chain3, frozenset(range(3)), frozenset())
        assert zero == frozenset(range(3))
        assert one == frozenset()

    @pytest.mark.parametrize("seed", range(30))
    def test_random_chains_report_exact_zero_and_one(self, seed):
        dtmc = random_dtmc(random.Random(seed))
        a, b = label_sets(dtmc)
        zero, one = prob01(dtmc, a | b, b)
        values = until_probability(dtmc, a | b, b)
        oracle = until_linear(dtmc.rows, a | b, b)
        for s in zero:
            assert values[s] == 0.0
            assert oracle[s] == 0.0
        for s in one:
            assert values[s] == 1.0
            assert oracle[s] >= 1.0 - 1e-9


# ===== Oracle agreement =====


class TestBoundedAgainstEnumeration:
    @pytest.mark.parametrize("seed", range(40))
    def test_bounded_until_matches_paths(self, seed):
        rng = random.Random(1000 + seed)
        dtmc = random_dtmc(rng)
        a, b = label_sets(dtmc)
        k = rng.randint(0, 9)
        values = bounded_until_probability(dtmc, a, b, k)
        for s in range(dtmc.num_states):
            assert values[s] == pytest.approx(until_paths(dtmc.rows, a, b, k, s), abs=1e-9)

    @pytest.mark.parametrize("seed", range(20))
    def test_parsed_bounded_forms_match_paths(self, seed):
        rng = random.Random(2000 + seed)
        dtmc = random_dtmc(rng)
        a, b = label_sets(dtmc)
        k = rng.randint(0, 8)
        everything = set(range(dtmc.num_states))

        until = check(dtmc, parse_property(f'P=?[ "a" U<={k} "b" ]'))
        eventually = check(dtmc, parse_property(f'P=?[ F<={k} "b" ]'))
        globally = check(dtmc, parse_property(f'P=?[ G<={k} "a" ]'))
        for s in range(dtmc.num_states):
            assert until.per_state[s] == pytest.approx(until_paths(dtmc.rows, a, b, k, s), abs=1e-9)
            assert eventually.per_state[s] == pytest.approx(
                until_paths(dtmc.rows, everything, b, k, s), abs=1e-9
            )
            assert globally.per_state[s] == pytest.approx(
                globally_oracle(dtmc.rows, a, k, s), abs=1e-9
            )

    def test_zero_bound_is_the_indicator(self, chain3):
        values = bounded_until_probability(chain3, {0, 1, 2}, {1}, 0)
        assert values == [0.0, 1.0, 0.0]

    def test_negative_bound_rejected(self, chain3):
        with pytest.raises(ValueError, match="non-negative"):
            bounded_until_probability(chain3, {0}, {1}, -1)


def globally_oracle(rows, phi, k, s):
    from .oracles import globally_paths

    return globally_paths(rows, phi, k, s)


class TestUnboundedAgainstLinearSolve:
    @pytest.mark.parametrize("seed", range(40))
    def test_until_matches_dense_solve(self, seed):
        dtmc = random_dtmc(random.Random(3000 + seed))
        a, b = label_sets(dtmc)
        values = until_probability(dtmc, a | b, b)
        oracle = until_linear(dtmc.rows, a | b, b)
        for got, want in zip(values, oracle):
            assert got == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("seed", range(20))
    def test_parsed_until_matches_dense_solve(self, seed):
        dtmc = random_dtmc(random.Random(4000 + seed))
        a, b = label_sets(dtmc)
        result = check(dtmc, parse_property('P=?[ "a" U "b" ]'))
        oracle = until_linear(dtmc.rows, a, b)
        for got, want in zip(result.per_state, oracle):
            assert got == pytest.approx(want, abs=1e-8)


# ===== Bit identity with the per-element loops =====


@st.composite
def labeled_chains(draw, shape: str) -> Dtmc:
    """Chains with rows of mixed widths, some self-loops, and non-dyadic
    probabilities (so a different summation order shows in the last bit).

    ``shape`` picks the labels: "any" draws "a" and "b" freely, "empty_b"
    labels no state "b", and "a_in_b" labels "b" on every "a" state.
    """
    n = draw(st.integers(1, 9))
    rows = []
    for s in range(n):
        targets = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        if draw(st.booleans()) and s not in targets:
            targets.insert(draw(st.integers(0, len(targets))), s)
        weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(targets), max_size=len(targets)))
        total = sum(weights)
        rows.append(tuple((t, w / total) for t, w in zip(targets, weights)))
    a = draw(st.sets(st.integers(0, n - 1)))
    b = set() if shape == "empty_b" else draw(st.sets(st.integers(0, n - 1)))
    if shape == "a_in_b":
        b |= a
    labels = tuple(frozenset({"a"} if s in a else ()) | frozenset({"b"} if s in b else ()) for s in range(n))
    return Dtmc(state_vectors=tuple((s,) for s in range(n)), state_labels=labels, rows=tuple(rows))


class TestBoundedBitIdentity:
    """``per_state`` of X, U<=k, F<=k and G<=k equals the old loops with ==."""

    @pytest.mark.parametrize("shape", ["any", "empty_b", "a_in_b"])
    @given(data=st.data())
    def test_operators_equal_the_loops(self, shape, data):
        dtmc = data.draw(labeled_chains(shape))
        k = data.draw(st.integers(1, 12))
        rows = dtmc.rows
        a, b = label_sets(dtmc)
        everything = set(range(dtmc.num_states))
        assert check(dtmc, parse_property('P=? [X "b"]')).per_state == tuple(next_loop(rows, b))
        assert next_probability(dtmc, b) == next_loop(rows, b)
        for bound in (0, k):
            until = check(dtmc, parse_property(f'P=? ["a" U<={bound} "b"]'))
            assert until.per_state == tuple(bounded_until_loop(rows, a, b, bound))
            assert bounded_until_probability(dtmc, a, b, bound) == bounded_until_loop(rows, a, b, bound)
            eventually = check(dtmc, parse_property(f'P=? [F<={bound} "b"]'))
            assert eventually.per_state == tuple(bounded_until_loop(rows, everything, b, bound))
            for formula, bad in (('"a"', everything - a), ('!"b"', b)):
                globally = check(dtmc, parse_property(f"P=? [G<={bound} {formula}]"))
                expected = tuple(1.0 - v for v in bounded_until_loop(rows, everything, bad, bound))
                assert globally.per_state == expected

    def test_row_order_decides_the_last_bit(self):
        # 0.1 + 0.2 + 0.7 and 0.7 + 0.2 + 0.1 differ in the last bit, so a
        # sum in any order but the row's own would show here.
        forward = ((1, 0.1), (2, 0.2), (3, 0.7))
        dtmc = Dtmc(
            state_vectors=tuple((s,) for s in range(6)),
            state_labels=(frozenset(),) + (frozenset({"b"}),) * 3 + (frozenset(),) * 2,
            rows=(forward, ((1, 1.0),), ((2, 1.0),), ((3, 1.0),), forward[::-1], ((5, 1.0),)),
        )
        values = next_probability(dtmc, {1, 2, 3})
        assert values[0] == 0.1 + 0.2 + 0.7
        assert values[4] == 0.7 + 0.2 + 0.1
        assert values[0] != values[4]
        assert bounded_until_probability(dtmc, {0, 4}, {1, 2, 3}, 1) == next_loop(dtmc.rows, {1, 2, 3})


# ===== Next =====


class TestNext:
    def test_chain3_next_goal(self, chain3):
        assert check(chain3, parse_property('P=?[X "goal"]')).value == 0.5

    def test_next_true_is_one(self, chain3):
        assert check(chain3, parse_property("P=?[X true]")).per_state == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize("seed", range(15))
    def test_random_next_matches_oracle(self, seed):
        dtmc = random_dtmc(random.Random(5000 + seed))
        _, b = label_sets(dtmc)
        values = next_probability(dtmc, b)
        for s in range(dtmc.num_states):
            assert values[s] == pytest.approx(next_paths(dtmc.rows, b, s), abs=1e-12)


# ===== Seq =====


def labeled_chain(*labels: str) -> Dtmc:
    """A straight line of states carrying the given label strings."""
    n = len(labels)
    rows = tuple(
        ((s + 1, 1.0),) if s + 1 < n else ((s, 1.0),) for s in range(n)
    )
    return Dtmc(
        state_vectors=tuple((s,) for s in range(n)),
        state_labels=tuple(frozenset(l.split()) if l else frozenset() for l in labels),
        rows=rows,
    )


class TestSeq:
    def test_line_reaches_a_then_b(self):
        dtmc = labeled_chain("", "a", "b")
        assert seq_probability(dtmc, {1}, {2}) == [1.0, 1.0, 0.0]

    def test_b_before_a_does_not_count(self):
        dtmc = labeled_chain("b", "a", "")
        assert seq_probability(dtmc, {1}, {0})[0] == 0.0

    def test_single_state_with_both_labels(self):
        dtmc = labeled_chain("a b")
        assert seq_probability(dtmc, {0}, {0}) == [1.0]

    def test_seq_from_everything_equals_eventually(self, two_coin):
        everything = set(range(two_coin.num_states))
        goal = two_coin.states_with("goal")
        seq = seq_probability(two_coin, everything, goal)
        reach = until_probability(two_coin, everything, goal)
        for got, want in zip(seq, reach):
            assert got == pytest.approx(want, abs=1e-9)

    def test_parsed_seq(self, two_coin):
        # Must pass through a goal-flip first, then end in the sink.
        result = check(two_coin, parse_property('P=?[SEQ("goal", "goal")]'))
        assert result.value == pytest.approx(0.25, abs=1e-9)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_seq_matches_alternate_product(self, seed):
        dtmc = random_dtmc(random.Random(6000 + seed))
        a, b = label_sets(dtmc)
        values = seq_probability(dtmc, a, b)
        oracle = seq_linear(dtmc.rows, a, b)
        for got, want in zip(values, oracle):
            assert got == pytest.approx(want, abs=1e-8)


# ===== Duality and monotonicity =====


class TestDualityAndMonotonicity:
    @pytest.mark.parametrize("seed", range(20))
    def test_bounded_globally_dual_to_eventually(self, seed):
        rng = random.Random(7000 + seed)
        dtmc = random_dtmc(rng)
        k = rng.randint(0, 10)
        g = check(dtmc, parse_property(f'P=?[G<={k} "a"]'))
        f = check(dtmc, parse_property(f'P=?[F<={k} !"a"]'))
        for left, right in zip(g.per_state, f.per_state):
            assert abs(left - (1.0 - right)) <= 1e-12

    @pytest.mark.parametrize("seed", range(20))
    def test_unbounded_globally_dual_to_eventually(self, seed):
        dtmc = random_dtmc(random.Random(8000 + seed))
        g = check(dtmc, parse_property('P=?[G "a"]'))
        f = check(dtmc, parse_property('P=?[F !"a"]'))
        for left, right in zip(g.per_state, f.per_state):
            assert abs(left - (1.0 - right)) <= 1e-12

    @pytest.mark.parametrize("seed", range(20))
    def test_eventually_monotone_in_bound(self, seed):
        dtmc = random_dtmc(random.Random(9000 + seed))
        _, b = label_sets(dtmc)
        everything = set(range(dtmc.num_states))
        previous = None
        for k in range(8):
            current = bounded_until_probability(dtmc, everything, b, k)
            if previous is not None:
                for lo, hi in zip(previous, current):
                    assert lo <= hi
            previous = current


# ===== State formulas and warnings =====


class TestEvaluateStates:
    def test_boolean_algebra(self, chain3):
        prop = parse_property('P=?[F ("goal" | "bad") & !"bad"]')
        assert evaluate_states(chain3, prop.path.target) == frozenset({1})

    def test_unknown_label_warns_and_is_empty(self, chain3):
        with pytest.warns(UnknownLabelWarning, match="mystery"):
            result = check(chain3, parse_property('P=?[F "mystery"]'))
        assert result.value == 0.0

    def test_known_labels_stay_silent(self, chain3):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check(chain3, parse_property('P=?[F "goal"]'))


# ===== Comparator verdicts =====


class TestVerdicts:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ('P>=0.5[F "goal"]', True),
            ('P>0.5[F "goal"]', False),
            ('P<=0.5[F "goal"]', True),
            ('P<0.3[F "goal"]', False),
        ],
    )
    def test_threshold_comparisons(self, chain3, text, expected):
        assert check(chain3, parse_property(text)).satisfied is expected

    def test_query_has_no_verdict(self, chain3):
        assert check(chain3, parse_property('P=?[F "goal"]')).satisfied is None

    def test_value_is_initial_state_entry(self, two_coin):
        result = check(two_coin, parse_property('P=?[F "goal"]'))
        assert result.value == result.per_state[0]

    def test_values_stay_in_unit_interval(self):
        for seed in range(25):
            dtmc = random_dtmc(random.Random(seed))
            for text in ['P=?[F "a"]', 'P=?[G "b"]', 'P=?[F<=4 "b"]', 'P=?[X "a"]']:
                for value in check(dtmc, parse_property(text)).per_state:
                    assert 0.0 <= value <= 1.0
