"""Exact checking: fixture values, qualitative sets, oracle agreement."""

from __future__ import annotations

import json
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from prunecheck import (
    And,
    Distribution,
    Dtmc,
    EnvironmentModel,
    Eventually,
    FalseFormula,
    Globally,
    Label,
    Next,
    Not,
    Or,
    Prob,
    Seq,
    SolverError,
    TrueFormula,
    UnknownLabelWarning,
    Until,
    build_induced_dtmc,
    check,
    evaluate_states,
    load_explicit_model,
    parse_property,
    prob01,
)
from prunecheck import checking
from prunecheck.checking import CERTIFIED_GAP, UNDECIDED

from .conftest import FRACTION3, dtmc_from_rows, gambler_text, label_sets, random_dtmc, rows_of, state_mask, states_labelled
from .oracles import (
    bounded_until_fraction,
    bounded_until_loop,
    evaluate_sets,
    next_loop,
    next_paths,
    row_prob01_sets,
    seq_linear,
    until_fraction,
    until_linear,
    until_paths,
)

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

    def test_chain3_closes_in_one_exact_step(self, chain3):
        # The one uncertain state's successors are all settled, so the first
        # interval step makes no rounding and closes the interval.
        result = check(chain3, parse_property('P=?[F "goal"]'))
        assert result.iterations == 1
        assert result.residual == 0.0
        assert result.lower == result.value == result.upper == 0.5
        # X counts no step, F<=k counts its bound, and the exact path none.
        # The bounded sums are certified by their rounding allowance, so their
        # interval is not a point even where the floats happen to be exact.
        for text, chain, iterations, exact in (
            ('P=?[X "goal"]', chain3, 0, False),
            ('P=?[F<=5 "goal"]', chain3, 5, False),
            ('P=?[F "goal"]', with_rationals(chain3), 0, True),
        ):
            result = check(chain, parse_property(text))
            assert (result.iterations, result.residual) == (iterations, 0.0), text
            assert result.value == 0.5, text
            if exact:
                assert result.lower == result.upper == 0.5, text
            else:
                assert result.lower < 0.5 < result.upper, text

    def test_globally_is_complement(self, chain3):
        result = check(chain3, parse_property('P=?[G !"bad"]'))
        assert result.value == 0.5

    def test_globally_inside_absorbing_goal(self, loop):
        assert check(loop, parse_property('P=?[G !"goal"]')).value == 0.0


# ===== Qualitative sets =====


class TestProb01:
    def test_chain3_sets(self, chain3):
        everything = frozenset(range(3))
        zero, one = prob01(chain3, everything, states_labelled(chain3, "goal"))
        assert zero == frozenset({2})
        assert one == frozenset({1})

    def test_loop_is_all_prob1(self, loop):
        zero, one = prob01(loop, frozenset(range(2)), states_labelled(loop, "goal"))
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
        values = check(dtmc, parse_property('P=? [("a" | "b") U "b"]')).per_state
        oracle = until_linear(rows_of(dtmc), a | b, b)
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
        values = check(dtmc, parse_property(f'P=? ["a" U<={k} "b"]')).per_state
        for s in range(dtmc.num_states):
            assert values[s] == pytest.approx(until_paths(rows_of(dtmc), a, b, k, s), abs=1e-9)

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
            assert until.per_state[s] == pytest.approx(until_paths(rows_of(dtmc), a, b, k, s), abs=1e-9)
            assert eventually.per_state[s] == pytest.approx(
                until_paths(rows_of(dtmc), everything, b, k, s), abs=1e-9
            )
            assert globally.per_state[s] == pytest.approx(
                globally_oracle(rows_of(dtmc), a, k, s), abs=1e-9
            )

    def test_zero_bound_is_the_indicator(self, chain3):
        assert check(chain3, parse_property('P=? [F<=0 "goal"]')).per_state == (0.0, 1.0, 0.0)


def globally_oracle(rows, phi, k, s):
    from .oracles import globally_paths

    return globally_paths(rows, phi, k, s)


class TestUnboundedAgainstLinearSolve:
    @pytest.mark.parametrize("seed", range(40))
    def test_until_matches_dense_solve(self, seed):
        dtmc = random_dtmc(random.Random(3000 + seed))
        a, b = label_sets(dtmc)
        values = check(dtmc, parse_property('P=? [("a" | "b") U "b"]')).per_state
        oracle = until_linear(rows_of(dtmc), a | b, b)
        for got, want in zip(values, oracle):
            assert got == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("seed", range(20))
    def test_parsed_until_matches_dense_solve(self, seed):
        dtmc = random_dtmc(random.Random(4000 + seed))
        a, b = label_sets(dtmc)
        result = check(dtmc, parse_property('P=?[ "a" U "b" ]'))
        oracle = until_linear(rows_of(dtmc), a, b)
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
    return dtmc_from_rows(tuple((s,) for s in range(n)), labels, rows)


class TestBoundedBitIdentity:
    """``per_state`` of X, U<=k, F<=k and G<=k equals the old loops with ==."""

    @pytest.mark.parametrize("shape", ["any", "empty_b", "a_in_b"])
    @given(data=st.data())
    def test_operators_equal_the_loops(self, shape, data):
        dtmc = data.draw(labeled_chains(shape))
        k = data.draw(st.integers(1, 12))
        rows = rows_of(dtmc)
        a, b = label_sets(dtmc)
        everything = set(range(dtmc.num_states))
        assert check(dtmc, parse_property('P=? [X "b"]')).per_state == tuple(next_loop(rows, b))
        for bound in (0, k):
            until = check(dtmc, parse_property(f'P=? ["a" U<={bound} "b"]'))
            assert until.per_state == tuple(bounded_until_loop(rows, a, b, bound))
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
        dtmc = dtmc_from_rows(
            state_vectors=tuple((s,) for s in range(6)),
            state_labels=(frozenset(),) + (frozenset({"b"}),) * 3 + (frozenset(),) * 2,
            rows=(forward, ((1, 1.0),), ((2, 1.0),), ((3, 1.0),), forward[::-1], ((5, 1.0),)),
        )
        values = check(dtmc, parse_property('P=? [X "b"]')).per_state
        assert values[0] == 0.1 + 0.2 + 0.7
        assert values[4] == 0.7 + 0.2 + 0.1
        assert values[0] != values[4]
        once = checking._bounded_until(dtmc, state_mask(dtmc, {0, 4}), state_mask(dtmc, {1, 2, 3}), 1)
        assert once == next_loop(rows_of(dtmc), {1, 2, 3})


# ===== Bounded operators hold the exact value in their interval =====


@st.composite
def fraction_chains(draw) -> tuple[Dtmc, tuple]:
    """A chain whose probabilities are rationals of assorted denominators, and its rows of those rationals."""
    n = draw(st.integers(1, 7))
    rows = []
    for _ in range(n):
        targets = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        weights = draw(st.lists(st.integers(1, 30), min_size=len(targets), max_size=len(targets)))
        rows.append(tuple((t, Fraction(w, sum(weights))) for t, w in zip(targets, weights)))
    a = draw(st.sets(st.integers(0, n - 1)))
    b = draw(st.sets(st.integers(0, n - 1)))
    labels = tuple(frozenset({"a"} if s in a else ()) | frozenset({"b"} if s in b else ()) for s in range(n))
    floats = dtmc_from_rows(tuple((s,) for s in range(n)), labels, [[(t, float(p)) for t, p in row] for row in rows])
    exact = tuple(p for row in rows for _, p in row)
    return Dtmc(floats.state_vectors, labels, floats.indptr, floats.indices, floats.probs, exact), tuple(rows)


class TestBoundedIntervals:
    """X, U<=k, F<=k and G<=k sum in floats; their interval holds the exact rational."""

    @given(chain=fraction_chains(), k=st.integers(1, 12))
    def test_exact_value_lies_in_the_interval(self, chain, k):
        dtmc, rows = chain
        a, b = label_sets(dtmc)
        everything = set(range(dtmc.num_states))
        cases = (
            ('P=? [X "b"]', next_paths(rows, b, 0)),
            (f'P=? ["a" U<={k} "b"]', bounded_until_fraction(rows, a, b, k)[0]),
            (f'P=? [F<={k} "b"]', bounded_until_fraction(rows, everything, b, k)[0]),
            (f'P=? [G<={k} "a"]', 1 - bounded_until_fraction(rows, everything, everything - a, k)[0]),
        )
        for text, exact in cases:
            result = check(dtmc, parse_property(text))
            assert result.lower < result.upper, text
            assert Fraction(result.lower) <= exact <= Fraction(result.upper), text
            assert result.lower <= result.value <= result.upper, text

    def test_threshold_at_the_exact_value_is_undecided(self, step_policy):
        """The float sum is 0.16999999999999998, the probability exactly 17/100: the threshold lies inside."""
        env = load_explicit_model(FRACTION3)
        result = check(build_induced_dtmc(env, step_policy).dtmc, parse_property('P>=0.17 [F<=2 "goal"]'))
        assert result.value == 0.16999999999999998
        assert result.satisfied == UNDECIDED
        assert Fraction(result.lower) <= Fraction(17, 100) <= Fraction(result.upper)

    def test_no_step_is_exact(self, chain3):
        result = check(chain3, parse_property('P=? [F<=0 "goal"]'))
        assert result.lower == result.value == result.upper == 0.0


# ===== Unbounded operators against exact rationals =====

UNBOUNDED = (
    ('P=? ["a" U "b"]', lambda rows, a, b, everything: until_fraction(rows, a, b)),
    ('P=? [F "b"]', lambda rows, a, b, everything: until_fraction(rows, everything, b)),
    ('P=? [G "a"]', lambda rows, a, b, everything: [1 - v for v in until_fraction(rows, everything, everything - a)]),
    ('P=? [G !"b"]', lambda rows, a, b, everything: [1 - v for v in until_fraction(rows, everything, b)]),
    ('P=? [SEQ("a", "b")]', lambda rows, a, b, everything: seq_linear(rows, a, b, until_fraction)),
    ('P=? [SEQ("b", "a")]', lambda rows, a, b, everything: seq_linear(rows, b, a, until_fraction)),
)


def with_rationals(dtmc: Dtmc) -> Dtmc:
    """The same chain, carrying the rational each float probability denotes."""
    exact = tuple(Fraction(p) for p in dtmc.probs.tolist())
    return Dtmc(dtmc.state_vectors, dtmc.state_labels, dtmc.indptr, dtmc.indices, dtmc.probs, exact)


def gamblers_ruin(p: float, top: int = 40) -> Dtmc:
    """Capital c is state c: win 1 with probability p, else lose 1; 0 and
    ``top`` absorb. "b" marks ``top``; "a" marks the capitals in between
    except multiples of 13, so ``"a" U "b"`` has probability-0 states."""
    rows = [((0, 1.0),), *(((c + 1, p), (c - 1, 1.0 - p)) for c in range(1, top)), ((top, 1.0),)]
    labels = [frozenset({"a"}) if 0 < c < top and c % 13 else frozenset() for c in range(top)]
    return dtmc_from_rows(tuple((c,) for c in range(top + 1)), (*labels, frozenset({"b"})), rows)


def drifting_walk(top: int = 30) -> Dtmc:
    """States 0..top; 0, 1, top - 1 and top absorb, every other state steps
    by -2..2 with probabilities .15, .25, .1, .3, .2, so each row sums four
    off-diagonal terms whose order shows in the last bits. "b" marks the
    two top states, "a" the others but multiples of 7."""
    moves = ((1, 0.3), (-1, 0.25), (2, 0.2), (-2, 0.15), (0, 0.1))
    absorbing = {0, 1, top - 1, top}
    rows = [((c, 1.0),) if c in absorbing else tuple((c + d, p) for d, p in moves) for c in range(top + 1)]
    labels = [
        frozenset({"b"}) if c >= top - 1 else frozenset({"a"}) if c % 7 else frozenset() for c in range(top + 1)
    ]
    return dtmc_from_rows(tuple((c,) for c in range(top + 1)), labels, rows)


def assert_certified_against_exact(dtmc: Dtmc) -> None:
    """prob01 equals the row-based sets with ==. Each unbounded U, F, G and
    SEQ value is certified: without rationals the exact value lies in
    [lower, upper], at most CERTIFIED_GAP wide, and every state's value is
    within that gap of its exact one, from the dense solve and from interval
    iteration alike; with them the exact path gives lower == upper == value,
    within 2**-53 of the exact value."""
    rows = rows_of(dtmc)
    a, b = label_sets(dtmc)
    everything = set(range(dtmc.num_states))
    for first, then in ((a, b), (everything, b), (everything, everything - a), (b, a)):
        assert prob01(dtmc, first, then) == tuple(map(frozenset, row_prob01_sets(rows, first, then)))
    for text, reference in UNBOUNDED:
        exact = reference(rows, a, b, everything)
        if dtmc.exact_probs is not None:
            result = check(dtmc, parse_property(text))
            assert result.lower == result.value == result.upper, text
            assert abs(Fraction(result.value) - exact[0]) <= 2**-53, text
            assert (result.iterations, result.residual) == (0, 0.0), text
            continue
        for dense_max in (checking.DENSE_MAX_STATES, 0):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(checking, "DENSE_MAX_STATES", dense_max)
                result = check(dtmc, parse_property(text))
            for got, want in zip(result.per_state, exact):
                assert abs(Fraction(got) - want) <= CERTIFIED_GAP, text
            assert Fraction(result.lower) <= exact[0] <= Fraction(result.upper), text
            assert result.upper - result.lower <= CERTIFIED_GAP, text
            assert result.residual <= CERTIFIED_GAP, text


class TestUnboundedBitIdentity:
    """prob01 equals the row-based sets with ==, and unbounded U, F, G and
    SEQ values are certified against exact rationals, on the dense and the
    interval path and, given the chain's rationals, on the exact path."""

    @pytest.mark.parametrize("shape", ["any", "empty_b", "a_in_b"])
    @given(data=st.data())
    def test_random_chains(self, shape, data):
        dtmc = data.draw(labeled_chains(shape))
        assert_certified_against_exact(dtmc)
        assert_certified_against_exact(with_rationals(dtmc))

    @pytest.mark.parametrize("p", [0.5, 0.49, 1 / 3])
    def test_gamblers_ruin(self, p):
        dtmc = gamblers_ruin(p)
        assert_certified_against_exact(dtmc)
        assert_certified_against_exact(with_rationals(dtmc))

    def test_wide_rows(self):
        assert_certified_against_exact(drifting_walk())
        assert_certified_against_exact(with_rationals(drifting_walk()))


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
        values = check(dtmc, parse_property('P=? [X "b"]')).per_state
        for s in range(dtmc.num_states):
            assert values[s] == pytest.approx(next_paths(rows_of(dtmc), b, s), abs=1e-12)


# ===== Seq =====


def labeled_chain(*labels: str) -> Dtmc:
    """A straight line of states carrying the given label strings."""
    n = len(labels)
    rows = tuple(
        ((s + 1, 1.0),) if s + 1 < n else ((s, 1.0),) for s in range(n)
    )
    return dtmc_from_rows(
        state_vectors=tuple((s,) for s in range(n)),
        state_labels=tuple(frozenset(l.split()) if l else frozenset() for l in labels),
        rows=rows,
    )


SEQ_A_B = parse_property('P=? [SEQ("a", "b")]')


class TestSeq:
    def test_line_reaches_a_then_b(self):
        dtmc = labeled_chain("", "a", "b")
        assert check(dtmc, SEQ_A_B).per_state == (1.0, 1.0, 0.0)

    def test_b_before_a_does_not_count(self):
        dtmc = labeled_chain("b", "a", "")
        assert check(dtmc, SEQ_A_B).value == 0.0

    def test_single_state_with_both_labels(self):
        dtmc = labeled_chain("a b")
        assert check(dtmc, SEQ_A_B).per_state == (1.0,)

    def test_seq_from_everything_equals_eventually(self, two_coin):
        seq = check(two_coin, parse_property('P=?[SEQ(true, "goal")]')).per_state
        reach = check(two_coin, parse_property('P=?[F "goal"]')).per_state
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
        values = check(dtmc, SEQ_A_B).per_state
        oracle = seq_linear(rows_of(dtmc), a, b)
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
        previous = None
        for k in range(8):
            current = check(dtmc, parse_property(f'P=?[F<={k} "b"]')).per_state
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

    def test_unknown_label_warning_names_the_checked_chain(self, chain3):
        """The chain is a policy's fragment of the model, which may carry the label elsewhere."""
        with pytest.warns(UnknownLabelWarning) as caught:
            check(chain3, parse_property('P=?[F "mystery"]'))
        assert [str(w.message) for w in caught] == [
            "label 'mystery' does not occur in the checked chain; treating it as the empty set"
        ]

    def test_known_labels_stay_silent(self, chain3):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check(chain3, parse_property('P=?[F "goal"]'))


# The chains carry "a", "b" and "c" on random states and "d" on none, so
# every label is absent from some chains and "d" from all of them.
LABEL_POOL = ("a", "b", "c", "d")


@st.composite
def pooled_chains(draw) -> Dtmc:
    dtmc = draw(labeled_chains("any"))
    carried = st.frozensets(st.sampled_from(LABEL_POOL[:-1]))
    labels = tuple(draw(carried) for _ in range(dtmc.num_states))
    return Dtmc(dtmc.state_vectors, labels, dtmc.indptr, dtmc.indices, dtmc.probs)


state_formulas = st.recursive(
    st.one_of(st.just(TrueFormula()), st.just(FalseFormula()), st.sampled_from(LABEL_POOL).map(Label)),
    lambda sub: st.one_of(sub.map(Not), st.builds(And, sub, sub), st.builds(Or, sub, sub)),
    max_leaves=6,
)
bounds = st.one_of(st.none(), st.integers(0, 8))
path_formulas = st.one_of(
    st.builds(Next, state_formulas),
    st.builds(Until, state_formulas, state_formulas, bounds),
    st.builds(Eventually, state_formulas, bounds),
    st.builds(Globally, state_formulas, bounds),
    st.builds(Seq, state_formulas, state_formulas),
)


def reference_path_vector(dtmc: Dtmc, path) -> tuple[list[float], int | None, float | None]:
    """Reference sets as masks, then the checker's mask routines; the step
    count and residual of unbounded operators are left to the solver (None)."""
    everything = np.ones(dtmc.num_states, dtype=bool)

    def states(sf):
        return state_mask(dtmc, evaluate_sets(dtmc.state_labels, sf))

    if isinstance(path, Next):
        return checking._bounded_until(dtmc, everything, states(path.target), 1), 0, 0.0
    if isinstance(path, Seq):
        return checking._seq_solve(dtmc, states(path.first), states(path.then)).values, None, None
    if isinstance(path, Until):
        a, b = states(path.left), states(path.right)
    elif isinstance(path, Eventually):
        a, b = everything, states(path.target)
    else:
        a, b = everything, ~states(path.target)
    if path.bound is None:
        vec = checking._solve_until(dtmc.indptr, dtmc.indices, dtmc.probs, dtmc.exact_probs, a, b).values
        iterations, residual = None, None
    else:
        vec, iterations, residual = checking._bounded_until(dtmc, a & ~b, b, path.bound), path.bound, 0.0
    if isinstance(path, Globally):
        vec = [1.0 - v for v in vec]
    return vec, iterations, residual


def recorded(call, *args):
    """The call's result and the messages of the UnknownLabelWarnings it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call(*args)
    return result, [str(w.message) for w in caught if issubclass(w.category, UnknownLabelWarning)]


class TestMaskSemantics:
    """The checker's masks against the frozenset reference semantics."""

    @given(dtmc=pooled_chains(), sf=state_formulas)
    def test_evaluate_states_equals_the_sets(self, dtmc, sf):
        got, got_warnings = recorded(evaluate_states, dtmc, sf)
        want, want_warnings = recorded(evaluate_sets, dtmc.state_labels, sf)
        assert got == want
        assert got_warnings == want_warnings

    @given(dtmc=pooled_chains(), path=path_formulas)
    def test_check_equals_the_reference_route(self, dtmc, path):
        result, got_warnings = recorded(check, dtmc, Prob(None, None, path))
        (vec, iterations, residual), want_warnings = recorded(reference_path_vector, dtmc, path)
        assert result.per_state == tuple(vec)
        if iterations is None:
            assert result.residual <= CERTIFIED_GAP
        else:
            assert (result.iterations, result.residual) == (iterations, residual)
        assert got_warnings == want_warnings


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


# ===== Certified unbounded solving =====


def random_rational_chain(rng: random.Random, n: int) -> Dtmc:
    """Transient states 0..n-1 with a forward edge, a random edge and a
    local back edge, each 13/60, and an exit of 7/20 to absorbing "goal"
    (state n) or "bad" (n + 1); one state in ten is "hot", one in ten "a".
    The floats are the roundings of those rationals, which the chain keeps."""
    goal, bad = n, n + 1
    rows, labels = [], []
    for i in range(n):
        branches: dict[int, Fraction] = {}
        for t in (i + 1 if i + 1 < n else goal, rng.randrange(n), rng.randrange(max(0, i - 50), n)):
            branches[t] = branches.get(t, Fraction(0)) + Fraction(13, 60)
        exit_to = goal if rng.random() < 0.5 else bad
        branches[exit_to] = branches.get(exit_to, Fraction(0)) + Fraction(7, 20)
        rows.append(tuple(branches.items()))
        labels.append(frozenset(name for name in ("hot", "a") if rng.random() < 0.1))
    rows += [((goal, Fraction(1)),), ((bad, Fraction(1)),)]
    labels += [frozenset({"goal"}), frozenset({"bad"})]
    float_rows = tuple(tuple((t, float(p)) for t, p in row) for row in rows)
    dtmc = dtmc_from_rows(tuple((s,) for s in range(n + 2)), labels, float_rows)
    exact = tuple(p for row in rows for _, p in row)
    return Dtmc(dtmc.state_vectors, dtmc.state_labels, dtmc.indptr, dtmc.indices, dtmc.probs, exact)


def wide_walk(top: int, wide: int) -> Dtmc:
    """A fair walk on capitals 0..``top`` from ``top // 4``, which is state 0;
    capital ``wide`` jumps to one of the ``wide`` capitals around it alike
    (half each side). 0 is "bad" and ``top`` "goal", both absorbing. Every
    move keeps the mean, so "goal" has probability exactly 1/4."""
    start = top // 4
    rows, labels = [], []
    for i in range(top + 1):
        c = (start + i) % (top + 1)
        if c in (0, top):
            moves = ((c, 1.0),)
        elif c == wide:
            moves = tuple((t, 1.0 / wide) for t in range(c - wide // 2, c + wide // 2 + 1) if t != c)
        else:
            moves = ((c + 1, 0.5), (c - 1, 0.5))
        rows.append(tuple(((t - start) % (top + 1), p) for t, p in moves))
        labels.append(frozenset({"bad"} if c == 0 else {"goal"} if c == top else ()))
    return dtmc_from_rows(tuple((s,) for s in range(top + 1)), labels, rows)


def dense_until(dtmc: Dtmc, a: set, b: set, on_b: np.ndarray | None = None) -> np.ndarray:
    """Per state, the expected ``on_b`` (default 1) of the first b state
    reached through a, and 0 where there is none: P(a U b) by default. A
    dense float solve over the states that reach b through a."""
    rows = rows_of(dtmc)
    on_b = np.ones(len(rows)) if on_b is None else on_b
    unknowns = sorted(until_reachers(rows, a, b))
    pos = {s: i for i, s in enumerate(unknowns)}
    matrix, rhs = np.eye(len(unknowns)), np.zeros(len(unknowns))
    for s in unknowns:
        for t, p in rows[s]:
            if t in b:
                rhs[pos[s]] += p * on_b[t]
            elif t in pos:
                matrix[pos[s], pos[t]] -= p
    x = np.where([s in b for s in range(len(rows))], on_b, 0.0)
    x[unknowns] = np.linalg.solve(matrix, rhs)
    return x


def until_reachers(rows, a, b) -> set:
    """States of a - b with a path through a to b."""
    preds: dict[int, list[int]] = {}
    for s, row in enumerate(rows):
        for t, _ in row:
            preds.setdefault(t, []).append(s)
    reached, stack = set(b), list(b)
    while stack:
        for s in preds.get(stack.pop(), ()):
            if s in a and s not in reached:
                reached.add(s)
                stack.append(s)
    return reached - set(b)


class TestCertifiedSolving:
    def test_fair_gambler_from_fractions_is_exactly_a_quarter(self, step_policy):
        build = build_induced_dtmc(load_explicit_model(gambler_text("1/2")), step_policy)
        for text in ('P>=0.25 [F "goal"]', 'P<=0.25 [!"bad" U "goal"]'):
            result = check(build.dtmc, parse_property(text))
            assert result.value == result.lower == result.upper == 0.25
            assert result.satisfied is True
            assert (result.iterations, result.residual) == (0, 0.0)
        result = check(build.dtmc, parse_property('P=? [G !"bad"]'))
        assert result.value == result.lower == result.upper == 0.25

    @pytest.mark.parametrize("inexact", [None, 17])
    def test_fair_gambler_built_in_python_keeps_its_rationals(self, step_policy, inexact):
        # Gambler's ruin on 0..40 from 10 with Distribution rows that carry
        # their rationals, but for the row of state ``inexact``.
        half = Fraction(1, 2)

        def successors(state, action):
            c = state[0]
            if c in (0, 40):
                return Distribution((((c,), 1.0),), exact=(Fraction(1),))
            support = (((c + 1,), 0.5), ((c - 1,), 0.5))
            return Distribution(support) if c == inexact else Distribution(support, exact=(half, half))

        env = EnvironmentModel(
            feature_schema=("pos",),
            action_schema=("step",),
            initial=(10,),
            available_actions=lambda s: ("step",),
            successors=successors,
            labels=lambda s: {0: frozenset({"bad"}), 40: frozenset({"goal"})}.get(s[0], frozenset()),
        )
        dtmc = build_induced_dtmc(env, step_policy).dtmc
        if inexact is not None:
            assert dtmc.exact_probs is None
            return
        assert dtmc.exact_probs == tuple(Fraction(p) for p in dtmc.probs.tolist())
        result = check(dtmc, parse_property('P>=0.25 [F "goal"]'))
        assert result.value == result.lower == result.upper == 0.25
        assert result.satisfied is True

    @pytest.mark.parametrize("dense_max", [400, 0])
    def test_fair_gambler_from_floats_is_undecided_at_the_quarter(self, monkeypatch, step_policy, dense_max):
        # The dense solve closes the block in no interval steps; without it
        # Jacobi takes thousands.
        monkeypatch.setattr(checking, "DENSE_MAX_STATES", dense_max)
        build = build_induced_dtmc(load_explicit_model(gambler_text(0.5)), step_policy)
        assert build.dtmc.exact_probs is None
        result = check(build.dtmc, parse_property('P>=0.25 [F "goal"]'))
        assert result.lower < 0.25 < result.upper
        assert result.upper - result.lower <= CERTIFIED_GAP
        assert result.satisfied == UNDECIDED
        assert (result.iterations > 0) == (dense_max == 0)
        assert check(build.dtmc, parse_property('P>=0.2 [F "goal"]')).satisfied is True
        assert check(build.dtmc, parse_property('P>=0.3 [F "goal"]')).satisfied is False

    @pytest.mark.parametrize("dense_max", [400, 0])
    def test_a_wide_row_in_a_slowly_mixing_chain_is_certified(self, monkeypatch, dense_max):
        # One row of 20 inside branches makes 39 roundings a step. Charged
        # once per step, they outgrew the gap before the ~5,000 steps
        # interval iteration needs; charged by the time to leave the block,
        # they stay far below it.
        monkeypatch.setattr(checking, "DENSE_MAX_STATES", dense_max)
        result = check(wide_walk(40, 20), parse_property('P=? [F "goal"]'))
        assert result.lower <= 0.25 <= result.upper
        assert result.upper - result.lower <= CERTIFIED_GAP

    def test_interval_iteration_stops_once_rounding_outgrows_the_gap(self, monkeypatch):
        # On 0..200 a row of 100 branches charges 199 eps a step, and the
        # walk needs hundreds of thousands of steps to close, so no step
        # can: the solver gives up after about a thousand, not MAX_SWEEPS.
        monkeypatch.setattr(checking, "DENSE_MAX_STATES", 0)
        with pytest.raises(SolverError, match="rounding error outgrew 1e-10 after") as caught:
            check(wide_walk(200, 100), parse_property('P=? [F "goal"]'))
        assert caught.value.iterations < 2_000
        assert caught.value.residual > CERTIFIED_GAP

    def test_random_3000_state_chain_values_lie_in_their_intervals(self):
        dtmc = random_rational_chain(random.Random(7), 3000)
        everything = set(range(dtmc.num_states))
        hot, goal, bad, a = (states_labelled(dtmc, name) for name in ("hot", "goal", "bad", "a"))
        reach_goal = dense_until(dtmc, everything, goal)
        # SEQ("a", "goal"): the first "a" state met goes on to reach "goal".
        seq = dense_until(dtmc, everything - a, a, on_b=reach_goal)
        expected = {
            'P=? [!"hot" U "goal"]': dense_until(dtmc, everything - hot, goal)[0],
            'P=? [F "goal"]': reach_goal[0],
            'P=? [G !"bad"]': 1.0 - dense_until(dtmc, everything, bad)[0],
            'P=? [SEQ("a", "goal")]': seq[0],
        }
        for text, value in expected.items():
            result = check(dtmc, parse_property(text))
            assert result.iterations > 0, text  # past the fill cap: interval iteration
            assert result.lower <= value <= result.upper, text
            assert result.lower <= result.value <= result.upper, text
            assert result.upper - result.lower <= CERTIFIED_GAP, text

    @pytest.mark.parametrize("cap", [50, 100])
    def test_block_past_the_fill_cap_falls_through_to_floats(self, monkeypatch, step_policy, cap):
        # The block has 78 nonzeros: a cap of 50 skips the elimination, one
        # of 100 abandons it midway.
        dtmc = build_induced_dtmc(load_explicit_model(gambler_text("1/2")), step_policy).dtmc
        monkeypatch.setattr(checking, "EXACT_MAX_FILL", cap)
        result = check(dtmc, parse_property('P=? [F "goal"]'))
        assert result.lower < result.upper
        assert result.lower <= 0.25 <= result.upper
        assert result.upper - result.lower <= CERTIFIED_GAP

    @pytest.mark.parametrize(
        "p, text, expected",
        [
            # 1/3 lies above the decimal 0.3333333333333333 that its float prints as.
            ("1/3", 'P>0.3333333333333333 [F "goal"]', True),
            ("1/3", 'P<=0.3333333333333333 [F "goal"]', False),
            ("1/10", 'P>=0.1 [F "goal"]', True),
            ("1/10", 'P<0.1 [F "goal"]', False),
        ],
    )
    def test_exact_path_compares_the_rational(self, step_policy, p, text, expected):
        # State 1 reaches "goal" (state 2) with probability p, and "bad" otherwise.
        doc = {
            "features": ["pos"],
            "actions": ["step"],
            "initial": [1],
            "states": [
                {"s": [0], "labels": ["bad"], "act": {"step": [{"to": [0], "p": "1"}]}},
                {"s": [1], "act": {"step": [{"to": [1], "p": "1/2"}, {"to": [3], "p": "1/2"}]}},
                {"s": [2], "labels": ["goal"], "act": {"step": [{"to": [2], "p": "1"}]}},
                {"s": [3], "act": {"step": [{"to": [2], "p": p}, {"to": [0], "p": str(1 - Fraction(p))}]}},
            ],
        }
        dtmc = build_induced_dtmc(load_explicit_model(json.dumps(doc)), step_policy).dtmc
        result = check(dtmc, parse_property(text))
        assert result.value == float(Fraction(p)) == result.lower == result.upper
        assert result.satisfied is expected

    def test_solver_error_reports_the_gap(self, monkeypatch):
        # A 0.9 self-loop leaving for "goal" or "bad" alike: after k steps the
        # bounds are (1 - 0.9^k) / 2 and that plus 0.9^k.
        dtmc = dtmc_from_rows(
            state_vectors=((0,), (1,), (2,)),
            state_labels=(frozenset(), frozenset({"goal"}), frozenset({"bad"})),
            rows=(((0, 0.9), (1, 0.05), (2, 0.05)), ((1, 1.0),), ((2, 1.0),)),
        )
        assert check(dtmc, parse_property('P=? [F "goal"]')).value == pytest.approx(0.5, abs=CERTIFIED_GAP)
        monkeypatch.setattr(checking, "DENSE_MAX_STATES", 0)
        monkeypatch.setattr(checking, "MAX_SWEEPS", 3)
        with pytest.raises(SolverError) as caught:
            check(dtmc, parse_property('P=? [F "goal"]'))
        assert caught.value.iterations == 3
        assert caught.value.residual == pytest.approx(0.9**3)
        assert str(caught.value).startswith("interval iteration did not close to 1e-10 within 3 steps")
