"""Propositional formulas evaluated inside an interval algebra.

Surface syntax (ASCII, whitespace insensitive)::

    formula := or ('->' formula)?          implication, right associative
    or      := and ('|' and)*
    and     := unary ('&' unary)*
    unary   := '~' unary | identifier | integer | 'T' | 'F' | '(' formula ')'

An integer is a run of decimal digits.  ``parse`` refuses, at the
token that goes deeper, a tree more than ``MAX_DEPTH`` (100) levels high
(each ``~`` and binary connective above an atom is one level) and
parentheses nested deeper than that; building a node that high from
the node classes raises NestingLimit, so no tree in hand is deeper
than the walkers can recurse.  ``T`` and ``F`` are the interval's
top and bottom; an integer literal denotes itself and must be a member
of the evaluation interval, checked once per compile, not per assignment.
Connectives evaluate as meet, join, relative pseudocomplement, and
pseudocomplement, so classical tautologies may fail: validity means
"evaluates to the top under every assignment of members to variables".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

from .errors import FormulaSyntaxError, NestingLimit, NotMember, SearchLimit, UnboundVariable, shown
from .factorization import as_natural
from .intervals import Interval
from .lattice import join, meet

DEFAULT_SEARCH_CAP = 1_000_000
MAX_DEPTH = 100


# ---------------------------------------------------------------------------
# Syntax trees
# ---------------------------------------------------------------------------


class _Node:
    """Base of the node classes.  ``height`` counts the connectives on
    the longest path down to an atom: 0 for an atom, stored by each
    connective node as it is built.  It is no dataclass field, so
    ``==``, ``hash`` and ``repr`` ignore it."""

    height = 0


class _Connective(_Node):
    def __post_init__(self):
        # the bound holds for every tree, so no walker recurses past MAX_DEPTH;
        # the height goes into the instance dict, as cached_property writes it
        height = 0
        for child in self.__dict__.values():
            if isinstance(child, _Node) and child.height > height:
                height = child.height
        if height >= MAX_DEPTH:
            raise NestingLimit(f"formula nests deeper than {MAX_DEPTH} levels")
        self.__dict__["height"] = height + 1


@dataclass(frozen=True)
class Var(_Node):
    name: str


@dataclass(frozen=True)
class Lit(_Node):
    value: int


@dataclass(frozen=True)
class Top(_Node):
    pass


@dataclass(frozen=True)
class Bottom(_Node):
    pass


@dataclass(frozen=True)
class And(_Connective):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or(_Connective):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Imp(_Connective):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Not(_Connective):
    child: "Formula"


Formula = Union[Var, Lit, Top, Bottom, And, Or, Imp, Not]

TOP = Top()
BOTTOM = Bottom()

# (node class, symbol, right-associative), loosest first; a row's index is
# its level, ``~`` binds at the next level and atoms at the one after
_CONNECTIVES = ((Imp, "->", True), (Or, "|", False), (And, "&", False))
_NOT_LEVEL = len(_CONNECTIVES)


def variables(formula: Formula) -> set[str]:
    """The set of variable names occurring in the formula."""
    if isinstance(formula, Var):
        return {formula.name}
    if isinstance(formula, (And, Or, Imp)):
        return variables(formula.left) | variables(formula.right)
    if isinstance(formula, Not):
        return variables(formula.child)
    return set()


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_KEYWORDS = {"T": TOP, "F": BOTTOM}


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("->", i):
            tokens.append(("op", "->", i))
            i += 2
        elif ch in "|&~()":
            tokens.append(("op", ch, i))
            i += 1
        elif ch.isdecimal():  # the digits int() accepts
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            try:
                tokens.append(("int", int(text[i:j]), i))
            except ValueError:  # past the interpreter's limit on digits
                raise FormulaSyntaxError(f"integer literal of {j - i} digits is too long", i) from None
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        else:
            raise FormulaSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    """Recursive descent; a method reads at a tree depth and returns the tree."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.parens = 0  # parentheses open at the current token

    def next_is(self, op: str) -> bool:
        kind, value, _ = self.tokens[self.pos]
        return kind == "op" and value == op

    def advance(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def nest(self, depth: int, position: int) -> int:
        if depth > MAX_DEPTH:
            raise FormulaSyntaxError(f"formula nests deeper than {MAX_DEPTH} levels", position)
        return depth

    def binary(self, level: int, depth: int) -> Formula:
        """A formula whose connectives are all at ``level`` or tighter."""
        if level == len(_CONNECTIVES):
            return self.unary(depth)
        node_class, symbol, right_assoc = _CONNECTIVES[level]
        node = self.binary(level + 1, depth)
        while self.next_is(symbol):
            position = self.advance()[2]
            operand = level if right_assoc else level + 1
            right = self.binary(operand, self.nest(depth + 1, position))
            # checked before building, so a tree past the bound is a
            # FormulaSyntaxError at this operator, never a NestingLimit
            self.nest(depth + 1 + max(node.height, right.height), position)
            node = node_class(node, right)
        return node

    def unary(self, depth: int) -> Formula:
        kind, value, position = self.advance()
        if kind == "int":
            return Lit(value)
        if kind == "name":
            return _KEYWORDS.get(value, Var(value))
        if kind == "op" and value == "~":
            return Not(self.unary(self.nest(depth + 1, position)))
        if kind == "op" and value == "(":
            self.parens = self.nest(self.parens + 1, position)
            node = self.binary(0, depth)
            if not self.next_is(")"):
                raise FormulaSyntaxError("expected ')'", self.tokens[self.pos][2])
            self.advance()
            self.parens -= 1
            return node
        shown = "end of input" if kind == "end" else repr(value)
        raise FormulaSyntaxError(f"expected a formula, found {shown}", position)


def parse(text: str) -> Formula:
    """Parse formula text; FormulaSyntaxError reports the bad offset."""
    parser = _Parser(_tokenize(text))
    node = parser.binary(0, 0)
    kind, value, position = parser.tokens[parser.pos]
    if kind != "end":
        raise FormulaSyntaxError(f"unexpected trailing input {value!r}", position)
    return node


# ---------------------------------------------------------------------------
# Printing (inverse of parse, minimal parentheses)
# ---------------------------------------------------------------------------


def format_formula(formula: Formula) -> str:
    """Render with the fewest parentheses that still round-trip."""
    return _format(formula, 0)


def _format(formula: Formula, level: int) -> str:
    """Render ``formula`` where the context binds at ``level``."""
    if isinstance(formula, Var):
        return formula.name
    if isinstance(formula, Lit):
        return str(formula.value)
    if isinstance(formula, Top):
        return "T"
    if isinstance(formula, Bottom):
        return "F"
    if isinstance(formula, Not):
        text, own = "~" + _format(formula.child, _NOT_LEVEL), _NOT_LEVEL
    else:
        for own, (node_class, symbol, right_assoc) in enumerate(_CONNECTIVES):
            if isinstance(formula, node_class):
                break
        else:
            raise TypeError(f"not a formula node: {formula!r}")
        left, right = (own + 1, own) if right_assoc else (own, own + 1)
        text = f"{_format(formula.left, left)} {symbol} {_format(formula.right, right)}"
    return f"({text})" if own < level else text


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate(q: Interval, formula: Formula, assignment: Mapping[str, int] | None = None) -> int:
    """Evaluate compositionally in the interval; the result is a member.

    Every variable of the formula must be bound (UnboundVariable
    otherwise) and every binding and literal must be a member of the
    interval (NotMember otherwise).
    """
    env = dict(assignment or {})
    names = sorted(variables(formula))
    for name in names:
        if name not in env:
            raise UnboundVariable(f"no value for variable {name!r}")
    for name, value in env.items():
        if not q.contains(value):
            raise NotMember(f"{name}={shown(value)} is not in the interval {q}")
    return _compile(q, formula, names)([env[name] for name in names])


def _compile(q: Interval, formula: Formula, names: list[str]) -> Callable[[Sequence[int]], int]:
    """Turn ``formula`` into a function of the values of ``names``, in
    order.  Literals are checked here, left to right; the connectives
    call meet, join, imp and neg as bound when this runs."""
    position = {name: i for i, name in enumerate(names)}
    operations = ((And, meet), (Or, join), (Imp, q.imp))

    def build(node):
        if isinstance(node, Var):
            i = position[node.name]
            return lambda values: values[i]
        if isinstance(node, Lit):
            value = node.value
            if not q.contains(value):
                raise NotMember(f"literal {shown(value)} is not in the interval {q}")
            return lambda values: value
        if isinstance(node, (Top, Bottom)):
            constant = q.top if isinstance(node, Top) else q.bottom
            return lambda values: constant
        if isinstance(node, Not):
            child, neg = build(node.child), q.neg
            return lambda values: neg(child(values))
        for node_class, operation in operations:
            if isinstance(node, node_class):
                left, right = build(node.left), build(node.right)
                return lambda values: operation(left(values), right(values))
        raise TypeError(f"not a formula node: {node!r}")

    return build(formula)


# ---------------------------------------------------------------------------
# Exhaustive validity checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Counterexample:
    """First falsifying assignment, with the value the formula took."""

    assignment: tuple[tuple[str, int], ...]
    value: int


def check_valid(
    q: Interval, formula: Formula, cap: int = DEFAULT_SEARCH_CAP
) -> Counterexample | None:
    """Return None when the formula evaluates to top under every
    assignment, else the lexicographically first counterexample
    (variables sorted by name, member values ascending).  ``cap``, a
    positive integer (NotNatural otherwise), bounds the search: the
    ``size ** k`` assignments are counted from the gaps, a factor at a
    time, and SearchLimit comes once they pass it, before any member is
    listed.  A variable-free formula is evaluated once, with no listing.
    """
    if type(cap) is not int or cap < 1:
        as_natural(cap)
    names = sorted(variables(formula))
    k, size, total = len(names), q.size(), 1
    for _ in names:
        total *= size
        if total > cap:
            message = f"{size}**{k} assignments over {k} variables exceed the cap {shown(cap)}"
            raise SearchLimit(message)
    value_of = _compile(q, formula, names)
    top = q.top
    for combo in itertools.product(q.members(cap) if k else (), repeat=k):
        value = value_of(combo)
        if value != top:
            return Counterexample(assignment=tuple(zip(names, combo)), value=value)
    return None
