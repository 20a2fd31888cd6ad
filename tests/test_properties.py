"""Property text: tokenizer, parser, AST shapes, formatter round-trips."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from prunecheck import (
    And,
    Eventually,
    FalseFormula,
    Globally,
    Label,
    Next,
    Not,
    Or,
    Prob,
    PropertySemanticError,
    PropertySyntaxError,
    Seq,
    TrueFormula,
    Until,
    format_formula,
    parse_property,
)

# ===== Well-formed inputs =====


class TestParseShapes:
    def test_query_eventually(self):
        prop = parse_property('P=?[F "goal"]')
        assert prop == Prob(None, None, Eventually(Label("goal")))

    def test_bounded_eventually(self):
        prop = parse_property('P=? [ F<=3 "goal" ]')
        assert prop.path == Eventually(Label("goal"), bound=3)

    def test_threshold_globally(self):
        prop = parse_property('P>=0.9 [ G !"collision" ]')
        assert prop.comparator == ">="
        assert prop.threshold == 0.9
        assert prop.path == Globally(Not(Label("collision")))

    def test_next(self):
        assert parse_property('P<0.5[X "a"]').path == Next(Label("a"))

    def test_until_with_bound(self):
        prop = parse_property('P=?[ "a" U<=7 "b" ]')
        assert prop.path == Until(Label("a"), Label("b"), bound=7)

    def test_unbounded_until(self):
        prop = parse_property('P=?[ true U "b" ]')
        assert prop.path == Until(TrueFormula(), Label("b"), bound=None)

    def test_seq(self):
        prop = parse_property('P=?[ SEQ("pick", "drop") ]')
        assert prop.path == Seq(Label("pick"), Label("drop"))

    def test_zero_bound_allowed(self):
        assert parse_property('P=?[F<=0 "a"]').path == Eventually(Label("a"), bound=0)

    def test_precedence_not_binds_tightest(self):
        prop = parse_property('P=?[F !"a" & "b" | "c"]')
        assert prop.path == Eventually(Or(And(Not(Label("a")), Label("b")), Label("c")))

    def test_parentheses_override(self):
        prop = parse_property('P=?[F "a" & ("b" | "c")]')
        assert prop.path == Eventually(And(Label("a"), Or(Label("b"), Label("c"))))

    def test_double_negation_kept(self):
        assert parse_property('P=?[X !!"a"]').path == Next(Not(Not(Label("a"))))

    def test_false_and_true_literals(self):
        prop = parse_property("P=?[ false U true ]")
        assert prop.path == Until(FalseFormula(), TrueFormula())

    @pytest.mark.parametrize("comparator", ["<", "<=", ">", ">="])
    def test_all_comparators(self, comparator):
        prop = parse_property(f'P{comparator}0.25 [ F "x" ]')
        assert prop.comparator == comparator
        assert prop.threshold == 0.25

    def test_boundary_thresholds(self):
        assert parse_property('P>=1 [F "a"]').threshold == 1.0
        assert parse_property('P<=0 [F "a"]').threshold == 0.0


# ===== Rejected inputs =====


class TestParseErrors:
    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("", "expected 'P'"),
            ("Q=?[F \"a\"]", "expected 'P'"),
            ("P[F \"a\"]", r"'=\?' or a comparator"),
            ("P=?F \"a\"]", r"expected '\['"),
            ('P=?[F "a"', r"expected '\]'"),
            ('P=?[F "a"] extra', "expected end of input"),
            ('P=?["a"]', "expected 'U'"),
            ('P=?["a" U "b" U "c"]', r"expected '\]'"),
            ("P=?[F goal]", "a state formula"),
            ('P=?[X X "a"]', "a state formula"),
            ('P=?[F<=3.5 "a"]', "integer bound"),
            ('P=?[F<2 "a"]', "a state formula"),
            ("P>=[F \"a\"]", "probability threshold"),
            ('P=?[SEQ("a" "b")]', "expected ','"),
            ('P=?[F "a" &]', "a state formula"),
            ('P=?[F ("a"]', r"expected '\)'"),
        ],
    )
    def test_syntax_errors(self, text, fragment):
        with pytest.raises(PropertySyntaxError, match=fragment):
            parse_property(text)

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("", "expected 'P' at position 0, found end of input", 0),
            ('Q=?[F "a"]', "expected 'P' at position 0, found 'Q'", 0),
            ('P>=[F "a"]', "expected a probability threshold at position 3, found '['", 3),
            ('P[F "a"]', "expected '=?' or a comparator at position 1, found '['", 1),
            ('P=?F "a"]', "expected '[' at position 3, found 'F'", 3),
            ('P=?[F "a"', "expected ']' at position 9, found end of input", 9),
            ('P=?["a"]', "expected 'U' at position 7, found ']'", 7),
            ('P=?["a" "U" "b"]', """expected 'U' at position 8, found '"U"'""", 8),
            ('P=?[SEQ "a", "b")]', """expected '(' at position 8, found '"a"'""", 8),
            ('P=?[SEQ("a" "b")]', """expected ',' at position 12, found '"b"'""", 12),
            ('P=?[SEQ("a", "b"]', "expected ')' at position 16, found ']'", 16),
            ('P=?[F ("a"]', "expected ')' at position 10, found ']'", 10),
            ('P=?[F<=3.5 "a"]', "expected a non-negative integer bound at position 7, found '3.5'", 7),
            ('P=?[F<=x "a"]', "expected a non-negative integer bound at position 7, found 'x'", 7),
            ('P=?[F "a"] extra', "expected end of input at position 11, found 'extra'", 11),
            ('P=?[F goal]', "expected a state formula at position 6, found 'goal'", 6),
            ('P=?[F "a" &]', "expected a state formula at position 11, found ']'", 11),
            ('P=?[F "two words"]', "label 'two words' at position 6 is not an identifier", 6),
            ('P=?[F%"a"]', "unexpected character '%' at position 5", 5),
        ],
        ids=[
            "no-P", "not-P", "bad-threshold", "no-comparator", "no-open-bracket", "no-close-bracket", "no-U",
            "quoted-U-is-a-label", "no-open-paren", "no-comma", "no-close-paren", "no-close-paren-in-atom",
            "fractional-bound", "word-bound", "trailing-input", "bare-word", "dangling-and", "label-not-identifier",
            "unexpected-character",
        ],
    )
    def test_exact_message_and_position(self, text, message, position):
        with pytest.raises(PropertySyntaxError) as exc:
            parse_property(text)
        assert str(exc.value) == message
        assert exc.value.position == position

    def test_quoted_keywords_are_labels(self):
        assert parse_property('P=?[X "P"]').path == Next(Label("P"))
        assert parse_property('P=?[F "U"]').path == Eventually(Label("U"))

    def test_unexpected_character_names_position(self):
        with pytest.raises(PropertySyntaxError, match="position 5") as exc:
            parse_property('P=?[F%"a"]'[:5] + '%"a"]')
        assert exc.value.position == 5

    def test_error_carries_token_position(self):
        with pytest.raises(PropertySyntaxError) as exc:
            parse_property('P=?[F "a" ] ]')
        assert exc.value.position == 12

    def test_label_must_be_identifier(self):
        with pytest.raises(PropertySyntaxError, match="not an identifier"):
            parse_property('P=?[F "two words"]')
        with pytest.raises(PropertySyntaxError, match="not an identifier"):
            parse_property('P=?[F ""]')

    def test_threshold_out_of_range_is_semantic(self):
        with pytest.raises(PropertySemanticError, match="outside"):
            parse_property('P>=1.5 [F "a"]')

    def test_negative_bound_is_rejected(self):
        with pytest.raises(PropertySyntaxError):
            parse_property('P=?[F<=-1 "a"]')

    def test_exit_codes(self):
        assert PropertySyntaxError("x", 0).exit_code == 2
        assert PropertySemanticError("x").exit_code == 2


# ===== AST validation =====


class TestProbNode:
    def test_comparator_without_threshold_rejected(self):
        with pytest.raises(PropertySemanticError, match="together"):
            Prob(comparator=">=", threshold=None, path=Next(TrueFormula()))

    def test_threshold_without_comparator_rejected(self):
        with pytest.raises(PropertySemanticError, match="together"):
            Prob(comparator=None, threshold=0.5, path=Next(TrueFormula()))


# ===== Formatting =====

_atoms = st.one_of(
    st.just(TrueFormula()),
    st.just(FalseFormula()),
    st.sampled_from(["a", "b", "safe_1", "_x"]).map(Label),
)
_state = st.recursive(
    _atoms,
    lambda kids: st.one_of(
        kids.map(Not),
        st.tuples(kids, kids).map(lambda p: And(*p)),
        st.tuples(kids, kids).map(lambda p: Or(*p)),
    ),
    max_leaves=8,
)
_bound = st.none() | st.integers(0, 12)
_path = st.one_of(
    _state.map(Next),
    st.tuples(_state, _state, _bound).map(lambda t: Until(t[0], t[1], bound=t[2])),
    st.tuples(_state, _bound).map(lambda t: Eventually(t[0], bound=t[1])),
    st.tuples(_state, _bound).map(lambda t: Globally(t[0], bound=t[1])),
    st.tuples(_state, _state).map(lambda t: Seq(*t)),
)
_head = st.just((None, None)) | st.tuples(
    st.sampled_from(["<", "<=", ">", ">="]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
_props = st.tuples(_head, _path).map(lambda t: Prob(t[0][0], t[0][1], t[1]))


class TestFormatFormula:
    def test_readable_output(self):
        prop = parse_property('P=?[ "a" U<=5 ("b" | !"c") ]')
        assert format_formula(prop) == 'P=? [ "a" U<=5 ("b" | !"c") ]'

    def test_threshold_head(self):
        prop = parse_property('P>=0.9[G !"collision"]')
        assert format_formula(prop) == 'P>=0.9 [ G !"collision" ]'

    @given(_props)
    def test_round_trip_is_identity(self, prop):
        assert parse_property(format_formula(prop)) == prop
