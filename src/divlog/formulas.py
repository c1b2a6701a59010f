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

``evaluate`` computes just so, in one walk of the tree over members.
``check_valid`` calls no kernel: it walks the tree over ints of
threshold lanes, one bit per assignment and lanes at most
``_BLOCK_BITS`` wide (bitslicing: Biham, FSE 1997; Knuth, TAOCP 4A
7.1.3).  Each connective acts on one prime at a time, so an interval
is a product of Gödel chains, one per prime gap, and a formula of
``k`` variables is valid in it exactly when it is valid in the chain
``C_n``, ``n = min(G + 1, k + 2)``, ``G`` the largest gap (Gödel 1932;
Dummett, JSL 24, 1959).  ``check_valid`` decides "valid" there
first, listing no member.  A formula with a literal, and every
counterexample, come from the member walk: each prime's chain embeds
in ``C_(G + 1)``, so the primes sit side by side in the lanes of one
walk over the members, a literal a constant per prime, and the lowest
bit whose top lane is clear is the first counterexample.  SearchLimit
counts the walk's ``size ** k`` assignments.

``parse`` reads the tokens of one ``findall`` in one loop over an
explicit stack of frames, one per open ``~``, ``(`` and binary operator
(operator-precedence parsing: Floyd, JACM 10, 1963; Pratt, POPL 1973),
and leaves on the root connective the ``atoms`` it read, the sorted
variable names and the literals in text order, so ``check_valid``,
``evaluate`` and ``variables`` need not walk the tree for them.
It refuses, at the token that goes deeper, a tree more than
``MAX_DEPTH`` (100) levels high (each ``~`` and binary connective above
an atom is one level) and parentheses nested deeper than that, and, at
the connective that passes it, a tree of more than ``MAX_NODES``
(65,536) nodes, a subtree counted once per place it stands; building a
node that high or that large from the node classes raises NestingLimit,
so no tree in hand is deeper than the walkers can recurse, nor larger
than they walk in bounded time, however many places share one subtree.
``format_formula`` raises ValueError for a ``Var`` or ``Lit`` whose
text would not parse back as that atom alone, such as ``Var("T")`` or
``Lit(-3)``.
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
from .intervals import Interval, _Chains

DEFAULT_SEARCH_CAP = 1_000_000
MAX_DEPTH = 100
MAX_NODES = 2**16  # a tree's nodes, a shared subtree counted at each place it stands


# ---------------------------------------------------------------------------
# Syntax trees
# ---------------------------------------------------------------------------


class _Node(Value):
    """Base of the node classes.  ``height`` counts the connectives on
    the longest path down to an atom: 0 for an atom.  ``size`` counts
    the nodes of the tree as the walkers visit them, a shared subtree
    once per place: 1 for an atom.  Both are slots that each
    connective's constructor fills, and ``parse`` with the values it has
    already checked.  Neither is a field, so ``==``, ``hash``, ``repr``
    and pickling ignore them.  Each connective's class declares the
    facts it has: ``symbol``, ``level`` (0 binds loosest) and
    ``right_assoc``."""

    __slots__ = ()
    height, size = 0, 1


def _above(*children: Formula) -> tuple[int, int]:
    """``(height, size)`` of a connective over ``children``, a child that
    is no node counted as an atom; NestingLimit past MAX_DEPTH, then
    past MAX_NODES, so no walker recurses deeper or walks longer."""
    height = max([child.height if isinstance(child, _Node) else 0 for child in children])
    if height >= MAX_DEPTH:
        raise NestingLimit(f"formula nests deeper than {MAX_DEPTH} levels")
    size = 1 + sum([child.size if isinstance(child, _Node) else 1 for child in children])
    if size > MAX_NODES:
        raise NestingLimit(f"formula has more than {MAX_NODES} nodes")
    return height + 1, size


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


class _Connective(_Node):
    """A node over children: ``height`` and ``size`` are its own slots,
    and ``atoms``, which only ``parse`` fills and only on the root it
    returns, holds the tree's ``(sorted names, literals in text
    order)`` for ``_atoms``.  None of the three is a field."""

    __slots__ = ("height", "size", "atoms")


class _Binary(_Connective):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        height, size = _above(left, right)
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "size", size)
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


class Not(_Connective):
    __slots__ = _fields = ("child",)
    symbol, level = "~", 3

    def __init__(self, child: Formula):
        height, size = _above(child)
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "child", child)


Formula = Union[Var, Lit, Top, Bottom, And, Or, Imp, Not]

TOP = Top()
BOTTOM = Bottom()


def variables(formula: Formula) -> set[str]:
    """The set of variable names occurring in the formula."""
    return set(_atoms(formula)[0])


def _atoms(formula: Formula) -> tuple[tuple[str, ...], tuple]:
    """The formula's variable names, sorted, and its literals' values
    left to right: the ``atoms`` that ``parse`` left on the root, else
    one walk of the tree, which refuses a non-node.  The walk serves an
    atom, a tree built from the node classes, a subtree and an unpickled
    or copied tree, none of which has the slot filled."""
    if isinstance(formula, _Connective):
        try:
            return formula.atoms
        except AttributeError:
            pass
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
    return tuple(sorted(names)), tuple(literals)


def _require_literals(q: Interval, literals: Sequence) -> None:
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
# parse builds a connective at the height and size it has checked: the
# bare object, each slot then set through its descriptor
_new = object.__new__
_set_left, _set_right = [_Binary.__dict__[slot].__set__ for slot in _Binary.__slots__]
(_set_child,) = [Not.__dict__[slot].__set__ for slot in Not.__slots__]
_set_height, _set_size, _set_atoms = [_Connective.__dict__[slot].__set__ for slot in _Connective.__slots__]


def parse(text: str) -> Formula:
    """Parse formula text; FormulaSyntaxError reports the bad offset.

    One ``_TOKEN.findall`` pass reads the tokens, each with the
    whitespace before it, and one loop consumes them, a token classified
    where it is read and one ``Var`` built per name.  Each ``~``, ``(``
    and binary operator pushes a frame ``(kind | Not | "(", left, at,
    level, depth)``: its connective, its left operand, its token's index
    and the ``level`` and ``depth`` of the formula it stands in.  An
    operand that no operator at the current ``level`` takes completes
    the frame on top: popping it builds that node, or closes that
    parenthesis, and restores its ``level`` and ``depth``.  The root
    connective gets ``atoms``, the sorted names and the literals read,
    so ``check_valid`` need not walk the tree for them.  A failure walks
    the same token list for the offset, so that a bad token anywhere
    wins; nothing is cached between calls."""
    tokens = _TOKEN.findall(text)
    tokens.append(("", ""))  # the end
    names = dict(_KEYWORDS)  # name -> its node, a Var built once
    literals = []
    stack = []  # the open frames, innermost last
    # the current token's index; parentheses open; the binding level and
    # the depth below the root of the formula being read
    pos = parens = level = depth = 0

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

    def grow(index: int):
        fail(index, f"formula has more than {MAX_NODES} nodes")

    while True:
        # an operand: a frame for each "~" and "(" before its atom
        token = tokens[pos][1]
        pos += 1
        node = names.get(token)  # T, F or a name read before
        if node is None:
            if token == "~":
                if depth >= MAX_DEPTH:
                    nest(pos - 1)
                stack.append((Not, None, pos - 1, level, depth))
                level, depth = Not.level, depth + 1
                continue
            if token == "(":
                if parens >= MAX_DEPTH:
                    nest(pos - 1)
                parens += 1
                stack.append(("(", None, pos - 1, level, depth))
                level = 0
                continue
            if token[:1].isalpha() or token[:1] == "_":
                node = names[token] = Var(token)
            else:  # of the tokens left, int() reads the runs of decimal digits alone
                try:
                    node = Lit(int(token))
                except ValueError:  # an operator or the end where a formula belongs, or a bad token
                    fail(pos - 1, "expected a formula, found {}")
                literals.append(node.value)
        # the frames that the operand completes, up to an operator that takes it
        op = _BINARY.get(tokens[pos][1])
        while not (op and op.level >= level):
            if not stack:
                if tokens[pos][1]:
                    fail(pos, "unexpected trailing input {}")
                if isinstance(node, _Connective):
                    del names[TOP.symbol], names[BOTTOM.symbol]
                    _set_atoms(node, (tuple(sorted(names)), tuple(literals)))
                return node
            kind, left, at, level, depth = stack.pop()
            if left is not None:  # a binary operator's frame, the only one with a left operand
                height = left.height if left.height > node.height else node.height
                # checked before building, so a tree past a bound is a
                # FormulaSyntaxError at this operator, never a NestingLimit
                if depth + height >= MAX_DEPTH:
                    nest(at)
                size = left.size + node.size + 1
                if size > MAX_NODES:
                    grow(at)
                right, node = node, _new(kind)
                _set_left(node, left)
                _set_right(node, right)
                _set_height(node, height + 1)
                _set_size(node, size)
            elif kind is Not:
                size = node.size + 1
                if size > MAX_NODES:
                    grow(at)
                child, node = node, _new(Not)
                _set_child(node, child)
                _set_height(node, child.height + 1)
                _set_size(node, size)
            else:  # "(": the operand is the parenthesized formula
                if tokens[pos][1] != ")":
                    fail(pos, "expected ')'")
                pos += 1
                parens -= 1
                op = _BINARY.get(tokens[pos][1])
        # a binary operator: its right operand comes next, one level down
        at, pos = pos, pos + 1
        if depth >= MAX_DEPTH:
            nest(at)
        stack.append((op, node, at, level, depth))
        level, depth = op.level if op.right_assoc else op.level + 1, depth + 1


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
    interval (NotMember otherwise).  Checked once, the tree is walked
    once, left before right: ``&``, ``|`` and ``->`` call ``math.gcd``,
    ``math.lcm`` and ``q._imp``, ``~x`` is ``x -> F``, and ``T`` and
    ``F`` are ``q``'s top and bottom.
    """
    env = dict(assignment or {})
    names, literals = _atoms(formula)
    for name in names:
        if name not in env:
            raise UnboundVariable(f"no value for variable {name!r}")
    for name, value in env.items():
        if not q.contains(value):
            raise NotMember(f"{name}={shown(value)} is not in the interval {q}")
    _require_literals(q, literals)
    imp, top, bottom = q._imp, q.top, q.bottom

    def walk(node: Formula) -> int:
        kind = type(node)
        if kind is Var:
            return env[node.name]
        if kind is Not:  # x -> F
            return imp(walk(node.child), bottom)
        if kind is And or kind is Or or kind is Imp:
            a, b = walk(node.left), walk(node.right)  # left first
            return math.gcd(a, b) if kind is And else math.lcm(a, b) if kind is Or else imp(a, b)
        # a Lit, Top or Bottom: _atoms refused anything else
        return node.value if kind is Lit else top if kind is Top else bottom

    return walk(formula)


# ---------------------------------------------------------------------------
# The Gödel chain, bitsliced
# ---------------------------------------------------------------------------

# the widest lane of a block, in bits; past it, leading variables iterate,
# and the member walk takes one variable's members a block at a time
_BLOCK_BITS = 1 << 12


def _walker(width: int, n: int) -> Callable[[Formula, dict], int]:
    """``walk(node, env)``, ``node``'s value over ``C_n``, ``n >= 2``: a
    value is one int of ``n - 1`` lanes of ``width`` bits, lane ``j - 1``
    its threshold ``v >= j``, one bit per place.  ``env`` gives each
    variable's value by name and each literal's by its int.  ``a -> b``
    is ``LE | B``, ``LE`` the AND of the lanes of ``~a | b`` (where ``a
    <= b``) copied to each lane, ``~a`` lane 0 of ``~a``.  Both passes
    of ``check_valid`` walk with it: the chain pass's places are chain
    assignments, the member walk's a member assignment at one prime."""
    lane, full = (1 << width) - 1, (1 << width * (n - 1)) - 1
    # each shift doubles the lanes lane 0 has ANDed in (or been copied to), the
    # last only up to the top; on positive ints, which bitwise ops need not copy
    shifts = [min(1 << e, n - 1 - (1 << e)) * width for e in range((n - 2).bit_length())]

    def walk(node: Formula, env: dict) -> int:
        kind = type(node)
        if kind is Var:
            return env[node.name]
        if kind is Top or kind is Bottom:
            return full if kind is Top else 0
        if kind is Lit:
            return env[node.value]
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

    return walk


@functools.lru_cache(maxsize=32)
def _chain_slices(k: int, n: int) -> tuple[int, list[int], list[int], Callable[[Formula, dict], int]]:
    """``(leading, trailing, constants, walk)``, all that the chain pass
    of ``k`` variables over ``C_n``, ``n >= 2``, needs, built once.

    Bit ``i`` of a lane is the ``i``-th tuple of ``product(range(n),
    repeat=t)``: the last ``t`` variables, the most with lanes ``n ** t
    <= _BLOCK_BITS`` bits wide, are ``trailing``.  The ``leading = k -
    t`` others take each of the ``n`` ``constants``, and ``walk`` is
    ``_walker(n ** t, n)``."""
    t, width = 0, 1
    while t < k and width * n <= _BLOCK_BITS:
        t, width = t + 1, width * n
    lane = (1 << width) - 1
    trailing = []
    for step in [n**e for e in reversed(range(t))]:  # the last variable runs fastest
        period = n * step  # a run of step bits for each value 0 .. n-1
        repunit = lane // ((1 << period) - 1)  # the period repeated across a lane
        trailing.append(sum([((1 << period) - (1 << j * step)) * repunit << (j - 1) * width for j in range(1, n)]))
    constants = [(1 << v * width) - 1 for v in range(n)]
    return k - t, trailing, constants, _walker(width, n)


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
# The members, every prime side by side
# ---------------------------------------------------------------------------

# the table that reads an exponent byte as threshold j's digit: "1" from j up
_AT_LEAST = [b"0" * j + b"1" * (256 - j) for j in range(64)]


def _in_every_lane(bits: int, lane: int, lanes: int) -> int:
    """``bits`` copied into lane 0 up to at least lane ``lanes - 1``,
    each lane ``lane`` bits wide: the copies double per shift."""
    copies = 1
    while copies < lanes:
        bits |= bits << copies * lane
        copies *= 2
    return bits


def _member_slices(q: Interval, chains: _Chains, k: int, cap: int) -> tuple:
    """``(leading, width, walk, blocks)``, all that the member walk of
    ``k`` variables over ``q`` needs, built once and kept in ``chains``,
    ``q``'s per-prime layer.

    Prime ``s``'s chain ``C_(g_s + 1)`` embeds in ``C_(G + 1)``, ``G``
    the largest gap, by ``v -> v`` below ``g_s`` and ``g_s -> G``, which
    keeps ``&``, ``|``, ``->``, ``T`` and ``F``.  So each of the ``G``
    lanes of a value holds one segment of ``width`` bits per prime, the
    first prime's lowest, and ``walk`` is ``_walker(primes * width, G +
    1)``.  Bit ``i`` of block ``c`` is tuple ``c * width + i`` of
    ``product(members, repeat=t)`` over the last ``t`` variables, and
    ``blocks[c]`` holds their values.  ``t`` is the most variables with
    lanes of ``primes * size ** t <= _BLOCK_BITS`` bits, in one block;
    when not one variable's members fit, ``t`` is 1 and they come
    ``width = _BLOCK_BITS // primes`` (at least 1) a block, the last
    block padded with the last member, which refutes only where the
    member before it does.  The ``leading = k - t`` others take one
    member per round of the blocks."""
    slices = chains.slices.get(k)
    if slices is None:
        size, gaps, last = q.size(), list(chains.gaps.values()), chains.largest
        t, width = 0, 1
        while t < k and len(gaps) * width * size <= _BLOCK_BITS:
            t, width = t + 1, width * size
        if k and not t:  # the last variable's members, a block at a time
            t, width = 1, max(_BLOCK_BITS // len(gaps), 1)
        lane = len(gaps) * width
        blocks = [[]]
        if k:
            if chains.exponents is None:
                q.members(cap)  # lists the members and their offsets
                chains.exponents = q._exponents()
            if t == 1:  # width members a block, all of them when they fit
                blocks = []
                for start in range(0, size, width):
                    chunks = [column[start : start + width] for column in chains.exponents]
                    chunks = [(chunk + chunk[-1:] * (width - len(chunk)))[::-1] for chunk in chunks]
                    blocks.append([_read_lanes(chunks, gaps, lane, last)])
            else:
                for step in [size**e for e in reversed(range(t))]:  # the last variable runs fastest
                    # each member's digit step times, the period repeated across a segment
                    periods = [b"".join([column[i : i + 1] * step for i in range(size)])
                               for column in chains.exponents]
                    digits = [(period * (width // len(period)))[::-1] for period in periods]
                    blocks[0].append(_read_lanes(digits, gaps, lane, last))
        slices = chains.slices[k] = (k - t, width, _walker(lane, last + 1), blocks)
    return slices


def _read_lanes(digits: list[bytes], gaps: list[int], lane: int, last: int) -> int:
    """The value that is, embedded, exponent ``digits[s][-1 - i]`` of
    prime ``s`` at bit ``i`` of its segment, in lanes of ``lane`` bits
    (``int`` reads bit 0 last).  Its lane ``j``, for ``j`` up to the
    prime's gap, is one ``int(..., 2)`` of the digits read as "at least
    ``j``", and the lanes above the gap repeat lane ``gap``."""
    width, value = lane // len(digits), 0
    for s, (column, gap) in enumerate(zip(digits, gaps)):
        for j in range(1, gap + 1):
            bits = int(column.translate(_AT_LEAST[j]), 2) << (j - 1) * lane + s * width
            value |= bits if j < gap else _in_every_lane(bits, lane, last - gap + 1)
    return value & (1 << last * lane) - 1


def _constant(vector: Sequence[int], chains: _Chains, width: int) -> int:
    """The value that is the member with exponents ``vector`` at every
    place: prime ``s``'s segment set in the lanes below its embedded
    exponent, each lane ``primes * width`` bits wide."""
    last, lane, value = chains.largest, len(vector) * width, 0
    for s, (e, gap) in enumerate(zip(vector, chains.gaps.values())):
        v = last if e == gap else e
        if v:
            value |= _in_every_lane(((1 << width) - 1) << s * width, lane, v) & (1 << v * lane) - 1
    return value


def _refute(q: Interval, chains: _Chains, formula: Formula, names: list[str], literals: Sequence,
            cap: int) -> Counterexample | None:
    """The first counterexample over ``q``'s members, else None: one walk
    per block of ``_member_slices``, in the order of ``product(members,
    repeat=k)``, up to the first block whose top lane is not all ones.
    ``chains`` is ``q``'s per-prime layer."""
    last = chains.largest
    if not last:  # one member, the top, which a variable still takes from the listing
        if names:
            q.members(cap)
        return None
    leading, width, walk, blocks = _member_slices(q, chains, len(names), cap)
    env = {value: _constant(chains.exponents_of(value), chains, width) for value in literals}
    lane = len(chains.gaps) * width
    top, ones = (last - 1) * lane, (1 << lane) - 1
    for combo in itertools.product(range(q.size()), repeat=leading):
        for name, i in zip(names, combo):
            env[name] = _constant([column[i] for column in chains.exponents], chains, width)
        for block, values in enumerate(blocks):
            env.update(zip(names[leading:], values))
            value = walk(formula, env)
            if value >> top != ones:  # the top lane: all ones where the formula is the top
                return _first_refuted(q, chains, names, combo, block * width, len(values), value, width)
    return None


def _first_refuted(q: Interval, chains: _Chains, names: list[str], combo: tuple, first: int, t: int, value: int,
                   width: int) -> Counterexample:
    """The counterexample at the lowest bit where ``value``, the block's,
    has its top lane clear in any prime's segment: bit ``i`` of the block
    is tuple ``first + i`` of the ``t`` trailing variables, and the
    leading ones take the members at ``combo``.  At that bit each prime's
    lanes, set from lane 0 up, give the value's exponent, embedded."""
    last, lane = chains.largest, len(chains.gaps) * width
    clear = value >> (last - 1) * lane ^ (1 << lane) - 1
    refuted = 0
    for s in range(len(chains.gaps)):
        refuted |= clear >> s * width
    bit = (refuted & -refuted).bit_length() - 1  # each clear bit shows up lowest at its place
    indices, place = [], first + bit
    for _ in range(t):  # the trailing tuple, the last variable's member lowest
        place, i = divmod(place, q.size())
        indices.append(i)
    result, ones = q.bottom, _in_every_lane(1, lane, last)  # ones: bit 0 of each lane
    for s, (prime, gap) in enumerate(chains.gaps.items()):
        v = (value >> s * width + bit & ones).bit_count()
        result *= prime ** (gap if v == last else v)
    members = q._members
    return Counterexample(tuple(zip(names, [members[i] for i in [*combo, *reversed(indices)]])), result)


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
    needs no member.  A formula refuted there, or one with a literal,
    goes on to the member walk (``_refute``): the same walker over the
    ``G`` threshold lanes of ``C_(G + 1)``, into which every prime's
    chain embeds, so that each lane holds one segment per prime and a
    literal is a constant per segment.  Its first block whose top lane
    is clear in some segment names the first counterexample, at the
    lowest such bit, and the lanes there its value.  Neither pass calls
    the interval's kernel.
    """
    if type(cap) is not int or cap < 1:
        as_natural(cap)
    names, literals = _atoms(formula)
    k, size, total = len(names), q.size(), 1
    for _ in names:
        total *= size
        if total > cap:
            message = f"{size}**{k} assignments over {k} variables exceed the cap {shown(cap)}"
            raise SearchLimit(message)
    _require_literals(q, literals)
    chains = q._layer()
    if k and not literals:  # valid in C_n is valid in the interval
        last = min(chains.largest, k + 1)  # n - 1, the top
        if not last or _holds_on_chain(formula, names, last + 1):
            return None
    return _refute(q, chains, formula, names, literals, cap)
