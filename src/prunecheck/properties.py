"""PCTL property syntax: tokenizer, recursive-descent parser, AST.

The accepted grammar, with the usual precedence ! > & > | and a
non-associative U (parenthesized state formulas only, so nesting path
operators is impossible by construction):

    prop  := "P" ("=?" | CMP FLOAT) "[" path "]"
    path  := "X" sf
           | sf "U" ("<=" INT)? sf
           | "F" ("<=" INT)? sf
           | "G" ("<=" INT)? sf
           | "SEQ" "(" sf "," sf ")"
    sf    := "true" | "false" | LABEL | "!" sf | sf "&" sf | sf "|" sf | "(" sf ")"
    LABEL := double-quoted identifier
    CMP   := "<" | "<=" | ">" | ">="

A probability query ("=?") or bound appears exactly once, at the top.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .errors import PropertySemanticError, PropertySyntaxError

# ===== AST =====


@dataclass(frozen=True)
class TrueFormula:
    pass


@dataclass(frozen=True)
class FalseFormula:
    pass


@dataclass(frozen=True)
class Label:
    name: str


@dataclass(frozen=True)
class Not:
    operand: "StateFormula"


@dataclass(frozen=True)
class And:
    left: "StateFormula"
    right: "StateFormula"


@dataclass(frozen=True)
class Or:
    left: "StateFormula"
    right: "StateFormula"


StateFormula = Union[TrueFormula, FalseFormula, Label, Not, And, Or]


@dataclass(frozen=True)
class Next:
    target: StateFormula


@dataclass(frozen=True)
class Until:
    left: StateFormula
    right: StateFormula
    bound: int | None = None


@dataclass(frozen=True)
class Eventually:
    target: StateFormula
    bound: int | None = None


@dataclass(frozen=True)
class Globally:
    target: StateFormula
    bound: int | None = None


@dataclass(frozen=True)
class Seq:
    """Reach a ``first`` state and, from there on, also a ``then`` state."""

    first: StateFormula
    then: StateFormula


PathFormula = Union[Next, Until, Eventually, Globally, Seq]


@dataclass(frozen=True)
class Prob:
    """Top-level property: a query (comparator None) or a bound check."""

    comparator: str | None
    threshold: float | None
    path: PathFormula

    def __post_init__(self) -> None:
        if (self.comparator is None) != (self.threshold is None):
            raise PropertySemanticError("comparator and threshold must be given together")
        if self.threshold is not None and not (0.0 <= self.threshold <= 1.0):
            raise PropertySemanticError(f"threshold {self.threshold} outside [0, 1]")


# ===== Tokenizer =====

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<query>=\?)
  | (?P<cmp><=|>=|<|>)
  | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<label>"[^"\n]*")
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[\[\](),!&|])
    """,
    re.VERBOSE,
)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class _Token:
    kind: str  # one of: query, cmp, number, label, word, punct, eof
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise PropertySyntaxError(f"unexpected character {text[pos]!r} at position {pos}", pos)
        kind = match.lastgroup
        if kind != "ws":
            tokens.append(_Token(kind, match.group(), pos))
        pos = match.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


# ===== Parser =====


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.at = 0

    # -- token plumbing --

    def peek(self) -> _Token:
        return self.tokens[self.at]

    def advance(self) -> _Token:
        token = self.tokens[self.at]
        self.at += 1
        return token

    def fail(self, expected: str) -> None:
        token = self.peek()
        found = "end of input" if token.kind == "eof" else repr(token.text)
        raise PropertySyntaxError(
            f"expected {expected} at position {token.pos}, found {found}", token.pos
        )

    def expect_punct(self, char: str) -> None:
        token = self.peek()
        if token.kind == "punct" and token.text == char:
            self.advance()
        else:
            self.fail(f"'{char}'")

    def expect_word(self, word: str) -> None:
        token = self.peek()
        if token.kind == "word" and token.text == word:
            self.advance()
        else:
            self.fail(f"'{word}'")

    def at_word(self, word: str) -> bool:
        token = self.peek()
        return token.kind == "word" and token.text == word

    def at_punct(self, char: str) -> bool:
        token = self.peek()
        return token.kind == "punct" and token.text == char

    # -- grammar --

    def property(self) -> Prob:
        self.expect_word("P")
        comparator: str | None = None
        threshold: float | None = None
        token = self.peek()
        if token.kind == "query":
            self.advance()
        elif token.kind == "cmp":
            comparator = self.advance().text
            number = self.peek()
            if number.kind != "number":
                self.fail("a probability threshold")
            threshold = float(self.advance().text)
        else:
            self.fail("'=?' or a comparator")
        self.expect_punct("[")
        path = self.path()
        self.expect_punct("]")
        if self.peek().kind != "eof":
            self.fail("end of input")
        return Prob(comparator=comparator, threshold=threshold, path=path)

    def path(self) -> PathFormula:
        if self.at_word("X"):
            self.advance()
            return Next(self.state_formula())
        if self.at_word("F"):
            self.advance()
            bound = self.optional_bound()
            return Eventually(self.state_formula(), bound=bound)
        if self.at_word("G"):
            self.advance()
            bound = self.optional_bound()
            return Globally(self.state_formula(), bound=bound)
        if self.at_word("SEQ"):
            self.advance()
            self.expect_punct("(")
            first = self.state_formula()
            self.expect_punct(",")
            then = self.state_formula()
            self.expect_punct(")")
            return Seq(first, then)
        left = self.state_formula()
        if not self.at_word("U"):
            self.fail("'U'")
        self.advance()
        bound = self.optional_bound()
        right = self.state_formula()
        return Until(left, right, bound=bound)

    def optional_bound(self) -> int | None:
        token = self.peek()
        if token.kind == "cmp" and token.text == "<=":
            self.advance()
            number = self.peek()
            if number.kind != "number" or not number.text.isdigit():
                self.fail("a non-negative integer bound")
            return int(self.advance().text)
        return None

    def state_formula(self) -> StateFormula:
        return self.or_formula()

    def or_formula(self) -> StateFormula:
        left = self.and_formula()
        while self.at_punct("|"):
            self.advance()
            left = Or(left, self.and_formula())
        return left

    def and_formula(self) -> StateFormula:
        left = self.not_formula()
        while self.at_punct("&"):
            self.advance()
            left = And(left, self.not_formula())
        return left

    def not_formula(self) -> StateFormula:
        if self.at_punct("!"):
            self.advance()
            return Not(self.not_formula())
        return self.atom()

    def atom(self) -> StateFormula:
        token = self.peek()
        if token.kind == "word" and token.text == "true":
            self.advance()
            return TrueFormula()
        if token.kind == "word" and token.text == "false":
            self.advance()
            return FalseFormula()
        if token.kind == "label":
            name = self.advance().text[1:-1]
            if not _IDENT_RE.match(name):
                raise PropertySyntaxError(
                    f"label {name!r} at position {token.pos} is not an identifier", token.pos
                )
            return Label(name)
        if self.at_punct("("):
            self.advance()
            inner = self.or_formula()
            self.expect_punct(")")
            return inner
        self.fail("a state formula")
        raise AssertionError("unreachable")


def parse_property(text: str) -> Prob:
    """Parse property text into its AST.

    Raises:
        PropertySyntaxError: the text does not match the grammar; the error
            carries the character position of the first offending token.
        PropertySemanticError: grammatical but ill-formed (threshold
            outside [0, 1]).
    """
    return _Parser(text).property()


# ===== Formatting =====

_BOUND = "<={}"


def _format_state(sf: StateFormula) -> str:
    if isinstance(sf, TrueFormula):
        return "true"
    if isinstance(sf, FalseFormula):
        return "false"
    if isinstance(sf, Label):
        return f'"{sf.name}"'
    if isinstance(sf, Not):
        return f"!{_wrap(sf.operand, atom_only=True)}"
    if isinstance(sf, And):
        # & and | parse left-associatively, so only the left child may stay
        # bare at equal precedence; a same-operator right child needs parens.
        return f"{_wrap(sf.left, keep=(And,))} & {_wrap(sf.right)}"
    if isinstance(sf, Or):
        return f"{_wrap(sf.left, keep=(And, Or))} | {_wrap(sf.right, keep=(And,))}"
    raise TypeError(f"not a state formula: {sf!r}")


def _wrap(sf: StateFormula, keep: tuple = (), atom_only: bool = False) -> str:
    simple = (TrueFormula, FalseFormula, Label, Not)
    if isinstance(sf, simple) or (not atom_only and isinstance(sf, keep)):
        return _format_state(sf)
    return f"({_format_state(sf)})"


def format_formula(prop: Prob) -> str:
    """Render an AST back to parsable property text."""
    path = prop.path
    if isinstance(path, Next):
        body = f"X {_wrap(path.target)}"
    elif isinstance(path, Eventually):
        bound = _BOUND.format(path.bound) if path.bound is not None else ""
        body = f"F{bound} {_wrap(path.target)}"
    elif isinstance(path, Globally):
        bound = _BOUND.format(path.bound) if path.bound is not None else ""
        body = f"G{bound} {_wrap(path.target)}"
    elif isinstance(path, Seq):
        body = f"SEQ({_format_state(path.first)}, {_format_state(path.then)})"
    elif isinstance(path, Until):
        bound = _BOUND.format(path.bound) if path.bound is not None else ""
        body = f"{_wrap(path.left)} U{bound} {_wrap(path.right)}"
    else:
        raise TypeError(f"not a path formula: {path!r}")
    head = "P=?" if prop.comparator is None else f"P{prop.comparator}{prop.threshold}"
    return f"{head} [ {body} ]"
