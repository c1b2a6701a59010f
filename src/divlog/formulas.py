"""Propositional formulas evaluated inside an interval algebra.

Surface syntax (whitespace insensitive)::

    formula := or ('->' formula)?          implication, right associative
    or      := and ('|' and)*
    and     := unary ('&' unary)*
    unary   := '~' unary | identifier | integer | 'T' | 'F' | '(' formula ')'

Whitespace is what ``str.isspace`` accepts.  An integer is a run of
decimal digits, as ``int()`` reads them.  An identifier is a letter or
``_`` followed by letters, digits or ``_``, as ``str.isalpha`` and
``str.isalnum`` read them.  ``T`` and ``F`` are reserved: they are the
interval's top and bottom.  Each connective's symbol, precedence level
and associativity are attributes of its node class, which the parser
and printer read.  An integer literal denotes itself and must be a
member of the evaluation interval.  Operands are checked once, at the
boundary; connectives compute with gcd (meet), lcm (join) and the
interval's Heyting implication kernel, ``~x`` being ``x -> F``, so
classical tautologies may fail: validity means "evaluates to the top
under every assignment of members to variables".

A formula compiles, bound to one interval, into a function of its
variables' values, which ``evaluate`` and the full search of
``check_valid`` run on that interval's members.  Each connective acts
on one prime at a time, so an interval is a product of Gödel chains,
one per prime gap, and a formula of ``k`` variables is valid in it
exactly when it is valid in the chain ``C_n``, ``n = min(G + 1, k +
2)``, ``G`` the largest gap (Gödel 1932; Dummett, JSL 24, 1959).
``check_valid`` decides "valid" there first, compiling nothing: one
walk of the tree over ints, a value's ``n - 1`` thresholds in lanes
of one bit per assignment, at most ``_BLOCK_BITS`` wide (bitslicing:
Biham, FSE 1997; Knuth, TAOCP 4A 7.1.3).  A formula with a literal,
and every counterexample, still come from the full search, and
SearchLimit still counts its ``size ** k`` assignments.

``parse`` refuses, at the token that goes deeper, a tree more than
``MAX_DEPTH`` (100) levels high (each ``~`` and binary connective above
an atom is one level) and parentheses nested deeper than that; building
a node that high from the node classes raises NestingLimit, so no tree
in hand is deeper than the walkers can recurse.  ``format_formula``
raises ValueError for a ``Var`` or ``Lit`` whose text would not parse
back as that atom alone, such as ``Var("T")`` or ``Lit(-3)``.
``variables``, ``format_formula``, ``evaluate`` and ``check_valid``
take only the eight node classes: anything else in a tree, a subclass's
instance too, raises TypeError before UnboundVariable, SearchLimit or
NotMember.  ``Var`` raises TypeError for a name that is no ``str``.

The nodes and ``Counterexample`` are immutable ``errors.Value``s, so
``Lit(10**5000)`` prints as ``Lit(value=<16610-bit integer>)``.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from typing import Callable, Mapping, Sequence, Union

from .errors import FormulaSyntaxError, NestingLimit, NotMember, SearchLimit, UnboundVariable, Value, shown
from .factorization import as_natural
from .intervals import Interval

DEFAULT_SEARCH_CAP = 1_000_000
MAX_DEPTH = 100


# ---------------------------------------------------------------------------
# Syntax trees
# ---------------------------------------------------------------------------


class _Node(Value):
    """Base of the node classes.  ``height`` counts the connectives on
    the longest path down to an atom: 0 for an atom, a slot that each
    connective's constructor fills, and ``parse`` with the height it has
    already checked.  It is no field, so ``==``,
    ``hash``, ``repr`` and pickling ignore it.  Each connective's class
    declares the facts it has: ``symbol``, ``level`` (0 binds loosest)
    and ``right_assoc``."""

    __slots__ = ()
    height = 0


def _above(*children: Formula) -> int:
    """One more than the tallest child's height, 0 for a child that is no
    node; NestingLimit past MAX_DEPTH, so no walker recurses deeper."""
    height = max([child.height if isinstance(child, _Node) else 0 for child in children])
    if height >= MAX_DEPTH:
        raise NestingLimit(f"formula nests deeper than {MAX_DEPTH} levels")
    return height + 1


class Var(_Node):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        if not isinstance(name, str):
            raise TypeError(f"a variable's name is a str, not {type(name).__name__}")
        object.__setattr__(self, "name", name)


class Lit(_Node):
    __slots__ = _fields = ("value",)

    def __init__(self, value: int):
        object.__setattr__(self, "value", value)


class Top(_Node):
    __slots__ = ()
    symbol = "T"


class Bottom(_Node):
    __slots__ = ()
    symbol = "F"


class _Binary(_Node):
    __slots__ = ("left", "right", "height")
    _fields = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        object.__setattr__(self, "height", _above(left, right))
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class And(_Binary):
    __slots__ = ()
    symbol, level, right_assoc = "&", 2, False


class Or(_Binary):
    __slots__ = ()
    symbol, level, right_assoc = "|", 1, False


class Imp(_Binary):
    __slots__ = ()
    symbol, level, right_assoc = "->", 0, True


class Not(_Node):
    __slots__ = ("child", "height")
    _fields = ("child",)
    symbol, level = "~", 3

    def __init__(self, child: Formula):
        object.__setattr__(self, "height", _above(child))
        object.__setattr__(self, "child", child)


Formula = Union[Var, Lit, Top, Bottom, And, Or, Imp, Not]

TOP = Top()
BOTTOM = Bottom()


def variables(formula: Formula) -> set[str]:
    """The set of variable names occurring in the formula."""
    return _atoms(formula)[0]


def _atoms(formula: Formula) -> tuple[set[str], list]:
    """The formula's variable names, and its literals' values left to right."""
    names, literals = set(), []
    stack = [formula]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Var:
            names.add(node.name)
        elif kind is Lit:
            literals.append(node.value)
        elif kind is Not:
            stack.append(node.child)
        elif kind is And or kind is Or or kind is Imp:
            stack += node.right, node.left  # the left is popped first
        elif kind is not Top and kind is not Bottom:
            raise TypeError(f"not a formula node: {node!r}")
    return names, literals


def _require_literals(q: Interval, literals: list) -> None:
    """NotMember for the first literal outside ``q``."""
    for value in literals:
        if not q.contains(value):
            raise NotMember(f"literal {shown(value)} is not in the interval {q}")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_KEYWORDS = {node.symbol: node for node in (TOP, BOTTOM)}
_BINARY = {kind.symbol: kind for kind in (Imp, Or, And)}
# the whitespace before a token, and the token; a token that is no
# operator, no run of decimal digits and not led by a letter or "_" is bad
_TOKEN = re.compile(r"(\s*)(->|[|&~()]|\d+|\w+|\S)")
_PUNCTUATION = {*_BINARY, Not.symbol, "(", ")"}
# parse builds a connective at the height it has checked: the bare
# object, each slot then set through its descriptor
_new = object.__new__
_set_left, _set_right, _set_height = [_Binary.__dict__[slot].__set__ for slot in _Binary.__slots__]
_set_child, _set_not_height = [Not.__dict__[slot].__set__ for slot in Not.__slots__]


def parse(text: str) -> Formula:
    """Parse formula text; FormulaSyntaxError reports the bad offset.

    One ``_TOKEN.findall`` pass reads the tokens, each with the
    whitespace before it, and a token is classified where it is read,
    one ``Var`` built per name.  A failure walks the same list for the
    offset, so that a bad token anywhere wins; nothing is cached between
    calls."""
    tokens = _TOKEN.findall(text)
    tokens.append(("", ""))  # the end
    pos = parens = 0  # the current token's index; parentheses open at it
    names = dict(_KEYWORDS)  # name -> its node, a Var built once

    def fail(index: int, message: str):
        """Raise the text's first bad token, if it has one, else
        ``message``, its ``{}`` showing token ``index``, at that token;
        the end of input is at ``len(text)``."""
        offset = 0
        for i, (space, token) in enumerate(tokens):
            offset += len(space)
            value = token
            if token[:1].isdecimal():
                try:
                    value = int(token)
                except ValueError:  # past the interpreter's limit on digits
                    raise FormulaSyntaxError(f"integer literal of {len(token)} digits is too long", offset) from None
            elif token and not (token[0].isalpha() or token[0] == "_" or token in _PUNCTUATION):
                # any other character, or a \w run led by a digit int() refuses, as ² or ½
                raise FormulaSyntaxError(f"unexpected character {token[0]!r}", offset)
            if i == index:
                found, position = (repr(value), offset) if token else ("end of input", len(text))
            offset += len(token)
        raise FormulaSyntaxError(message.format(found), position)

    def nest(index: int):
        fail(index, f"formula nests deeper than {MAX_DEPTH} levels")

    def climb(level: int, depth: int) -> Formula:
        """A formula whose binary connectives all bind at ``level`` or
        tighter, ``depth`` levels below the root.  A node is built at
        the height checked here, ``depth`` plus its height never past
        MAX_DEPTH, so no constructor checks it again."""
        nonlocal pos, parens
        token = tokens[pos][1]
        pos += 1
        if token == "~":
            if depth >= MAX_DEPTH:
                nest(pos - 1)
            child = climb(Not.level, depth + 1)
            node = _new(Not)
            _set_child(node, child)
            _set_not_height(node, child.height + 1)
        elif token == "(":
            if parens >= MAX_DEPTH:
                nest(pos - 1)
            parens += 1
            node = climb(0, depth)
            if tokens[pos][1] != ")":
                fail(pos, "expected ')'")
            pos += 1
            parens -= 1
        elif token[:1].isalpha() or token[:1] == "_":
            node = names.get(token) or names.setdefault(token, Var(token))
        else:  # of the tokens left, int() reads the runs of decimal digits alone
            try:
                node = Lit(int(token))
            except ValueError:  # an operator or the end where a formula belongs, or a bad token
                fail(pos - 1, "expected a formula, found {}")
        while (kind := _BINARY.get(tokens[pos][1])) and kind.level >= level:
            at, pos = pos, pos + 1
            if depth >= MAX_DEPTH:
                nest(at)
            right = climb(kind.level if kind.right_assoc else kind.level + 1, depth + 1)
            height = node.height if node.height > right.height else right.height
            # checked before building, so a tree past the bound is a
            # FormulaSyntaxError at this operator, never a NestingLimit
            if depth + height >= MAX_DEPTH:
                nest(at)
            left, node = node, _new(kind)
            _set_left(node, left)
            _set_right(node, right)
            _set_height(node, height + 1)
        return node

    node = climb(0, 0)
    if tokens[pos][1]:
        fail(pos, "unexpected trailing input {}")
    return node


# ---------------------------------------------------------------------------
# Printing (inverse of parse, minimal parentheses)
# ---------------------------------------------------------------------------


def format_formula(formula: Formula) -> str:
    """Render with the fewest parentheses that still round-trip; an atom
    whose text would not read back as that atom raises ValueError."""
    return _format(formula, 0)


def _format(formula: Formula, level: int) -> str:
    """Render ``formula`` where the context binds at ``level``."""
    kind = type(formula)
    if kind is Var or kind is Lit:
        text = str(formula.name) if kind is Var else shown(formula.value)
        try:
            back = parse(text)
        except FormulaSyntaxError:
            back = None
        if back != formula:
            raise ValueError(f"{formula!r} prints as {text!r}, which does not parse back to it")
        return text
    if kind is Top or kind is Bottom:
        return kind.symbol
    if kind is Not:
        text = kind.symbol + _format(formula.child, kind.level)
    elif kind is And or kind is Or or kind is Imp:
        own = kind.level
        left, right = (own + 1, own) if kind.right_assoc else (own, own + 1)
        text = f"{_format(formula.left, left)} {kind.symbol} {_format(formula.right, right)}"
    else:
        raise TypeError(f"not a formula node: {formula!r}")
    return f"({text})" if kind.level < level else text


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
    names, literals = _atoms(formula)
    names = sorted(names)
    for name in names:
        if name not in env:
            raise UnboundVariable(f"no value for variable {name!r}")
    for name, value in env.items():
        if not q.contains(value):
            raise NotMember(f"{name}={shown(value)} is not in the interval {q}")
    _require_literals(q, literals)
    return _compile(q, formula, names)([env[name] for name in names])


def _compile(q: Interval, formula: Formula, names: list[str]) -> Callable[[Sequence], int]:
    """Turn ``formula`` into ``value_of(values)``, its value in ``q``
    when ``names`` take ``values``, in order: ``&``, ``|`` and ``->``
    call ``math.gcd``, ``math.lcm`` and ``q._imp``, ``T`` and ``F`` are
    ``q``'s top and bottom and ``~x`` is ``x -> F``, all bound here.
    Nothing is checked: the values and the literals must be members.
    ``evaluate`` calls it once, the full search once per assignment; the
    chain pass walks the tree itself (``_chain_slices``'s ``walk``).
    """
    position = {name: i for i, name in enumerate(names)}
    imp, top, bottom = q._imp, q.top, q.bottom
    operation = {And: math.gcd, Or: math.lcm, Imp: imp}

    def build(node):
        kind = type(node)
        if kind is Var:
            i = position[node.name]
            return lambda values: values[i]
        if kind is And or kind is Or or kind is Imp:
            op, left, right = operation[kind], build(node.left), build(node.right)
            return lambda values: op(left(values), right(values))
        if kind is Not:
            child = build(node.child)
            return lambda values: imp(child(values), bottom)
        # a Lit, Top or Bottom: both callers ran _atoms, which refuses the rest
        constant = node.value if kind is Lit else top if kind is Top else bottom
        return lambda values: constant

    return build(formula)


# ---------------------------------------------------------------------------
# The Gödel chain, bitsliced
# ---------------------------------------------------------------------------

# the widest lane of the chain pass, in bits; past it, leading variables iterate
_BLOCK_BITS = 1 << 12


@functools.lru_cache(maxsize=32)
def _chain_slices(k: int, n: int) -> tuple[int, list[int], list[int], Callable[[Formula, dict], int]]:
    """``(leading, trailing, constants, walk)``, all that the chain pass
    of ``k`` variables over ``C_n``, ``n >= 2``, needs, built once.

    A value of ``C_n`` is one int of ``n - 1`` lanes, lane ``j - 1`` its
    threshold ``v >= j``, bit ``i`` of a lane the ``i``-th tuple of
    ``product(range(n), repeat=t)``: the last ``t`` variables, the most
    with lanes ``n ** t <= _BLOCK_BITS`` bits wide, are ``trailing``.
    The ``leading = k - t`` others take each of the ``n`` ``constants``.
    ``walk(node, env)`` is ``node``'s value, ``env`` giving each
    variable's: ``a -> b`` is ``LE | B``, ``LE`` the AND of the lanes of
    ``~a | b`` (where ``a <= b``) copied to each lane, ``~a`` lane 0 of ``~a``."""
    t, width = 0, 1
    while t < k and width * n <= _BLOCK_BITS:
        t, width = t + 1, width * n
    lane, full = (1 << width) - 1, (1 << width * (n - 1)) - 1
    # each shift doubles the lanes lane 0 has ANDed in (or been copied to), the
    # last only up to the top; on positive ints, which bitwise ops need not copy
    shifts = [min(1 << e, n - 1 - (1 << e)) * width for e in range((n - 2).bit_length())]
    trailing = []
    for step in [n**e for e in reversed(range(t))]:  # the last variable runs fastest
        period = n * step  # a run of step bits for each value 0 .. n-1
        repunit = lane // ((1 << period) - 1)  # the period repeated across a lane
        trailing.append(sum([((1 << period) - (1 << j * step)) * repunit << (j - 1) * width for j in range(1, n)]))
    constants = [(1 << v * width) - 1 for v in range(n)]

    def walk(node: Formula, env: dict) -> int:
        kind = type(node)
        if kind is Var:
            return env[node.name]
        if kind is Top or kind is Bottom:
            return full if kind is Top else 0
        if kind is Not:  # a -> F: where lane 0 is clear
            le, b = walk(node.child, env) & lane ^ lane, 0
        else:
            a, b = walk(node.left, env), walk(node.right, env)
            if kind is not Imp:
                return a & b if kind is And else a | b
            le = full ^ a | b
            for shift in shifts:
                le &= le >> shift
            le &= lane
        for shift in shifts:
            le |= le << shift
        return le | b

    return k - t, trailing, constants, walk


def _holds_on_chain(formula: Formula, names: list[str], n: int) -> bool:
    """Whether ``formula``, free of literals, is the top of ``C_n`` under
    every assignment to ``names``: one walk of the tree per block of
    assignments, up to the first block whose top lane is not all ones."""
    leading, trailing, constants, walk = _chain_slices(len(names), n)
    lane, top = constants[1], constants[-2].bit_length()  # n - 2 lanes below the top
    for combo in itertools.product(constants, repeat=leading):
        if walk(formula, dict(zip(names, [*combo, *trailing]))) >> top != lane:
            return False
    return True


# ---------------------------------------------------------------------------
# Exhaustive validity checking
# ---------------------------------------------------------------------------


class Counterexample(Value):
    """First falsifying assignment, with the value the formula took."""

    __slots__ = _fields = ("assignment", "value")

    def __init__(self, assignment: tuple[tuple[str, int], ...], value: int):
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "value", value)


def check_valid(
    q: Interval, formula: Formula, cap: int = DEFAULT_SEARCH_CAP
) -> Counterexample | None:
    """Return None when the formula evaluates to top under every
    assignment, else the lexicographically first counterexample
    (variables sorted by name, member values ascending).  ``cap``, a
    positive integer (NotNatural otherwise), bounds the search: the
    ``size ** k`` assignments are counted from the gaps, a factor at a
    time, and SearchLimit comes once they pass it, before any member is
    listed; a literal outside the interval raises NotMember next.  A
    variable-free formula is evaluated once, with no listing.

    With ``k >= 1`` variables and no integer literal the formula is
    first tried on the Gödel chain ``C_n``, the integers ``0..n-1`` with
    ``min``, ``max`` and ``a -> b`` the top ``n - 1`` when ``a <= b``,
    else ``b``, where ``n = min(G + 1, k + 2)`` and ``G`` is the largest
    gap; it is valid if it holds on all ``n ** k`` assignments.  Each
    connective acts on one prime at a time, so the interval is a product
    of chains ``C_(gap + 1)``, and a formula is valid in it exactly when
    it is valid in ``C_(G + 1)``; with ``k`` variables ``C_(k + 2)``
    already decides every chain (Gödel 1932; Dummett, JSL 24, 1959).
    The chain pass walks the tree once per block of assignments, over
    ints of ``n - 1`` threshold lanes no wider than ``_BLOCK_BITS``, and
    needs no member, no kernel and no compiled formula.  A formula
    refuted there, or one with a literal, is compiled once and runs the
    full search over the members, which alone names the first
    counterexample.
    """
    if type(cap) is not int or cap < 1:
        as_natural(cap)
    names, literals = _atoms(formula)
    names = sorted(names)
    k, size, total = len(names), q.size(), 1
    for _ in names:
        total *= size
        if total > cap:
            message = f"{size}**{k} assignments over {k} variables exceed the cap {shown(cap)}"
            raise SearchLimit(message)
    _require_literals(q, literals)
    if k and not literals:  # valid in C_n is valid in the interval
        last = min(max(q._gaps.values(), default=0), k + 1)  # n - 1, the top
        if not last or _holds_on_chain(formula, names, last + 1):
            return None
    value_of, top = _compile(q, formula, names), q.top
    for combo in itertools.product(q.members(cap) if k else (), repeat=k):
        value = value_of(combo)
        if value != top:
            return Counterexample(assignment=tuple(zip(names, combo)), value=value)
    return None
