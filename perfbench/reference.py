"""Independent computations the benchmark checks divlog's outputs against.

Nothing here calls divlog's closed forms.  Factorization is plain trial
division by 2, 3 and 6k +- 1, primality is a deterministic Miller-Rabin
test, meet and join are ``math.gcd``/``math.lcm``, and negation and
implication are found by scanning an interval's members.  Formulas are
parsed by a parser of this module's own; only ``evaluate`` takes the
negation and implication to use, so that a check can plug in divlog's
brute-force oracle instead of the scans here.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache

# Deterministic for every n < 3.3e24 (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin with fixed bases: exact for every n below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def factor(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of ``n`` as ascending (prime, exponent) pairs."""
    pairs = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            pairs.append((p, e))
    p, step = 5, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            pairs.append((p, e))
        p += step
        step = 6 - step
    if n > 1:
        pairs.append((n, 1))
    return tuple(pairs)


def next_prime(n: int) -> int:
    """The least prime >= n."""
    while not is_prime(n):
        n += 1
    return n


@lru_cache(maxsize=None)
def members(bottom: int, top: int) -> tuple[int, ...]:
    """Every a with bottom | a and a | top, ascending."""
    divisors = [1]
    for p, e in factor(top):
        divisors = [d * p**i for d in divisors for i in range(e + 1)]
    return tuple(sorted(d for d in divisors if d % bottom == 0))


def is_boolean(bottom: int, top: int) -> bool:
    """True when no prime's exponent gap between bottom and top exceeds one."""
    return all(e <= 1 for _, e in factor(top // bottom))


def neg(bottom: int, top: int, a: int) -> int:
    """Greatest member c with gcd(a, c) == bottom, by scanning the members."""
    best = bottom
    for c in members(bottom, top):
        if math.gcd(a, c) == bottom:
            best = math.lcm(best, c)
    return best


def imp(bottom: int, top: int, a: int, b: int) -> int:
    """Greatest member c with gcd(a, c) dividing b, by scanning the members."""
    best = bottom
    for c in members(bottom, top):
        if b % math.gcd(a, c) == 0:
            best = math.lcm(best, c)
    return best


# ---------------------------------------------------------------------------
# Formulas: a parser of our own and an evaluator with pluggable ~ and ->
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(->|[|&~()]|\d+|[A-Za-z_][A-Za-z0-9_]*)")


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"bad formula text at {pos}: {text!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def parse(text: str):
    """Nested tuples: ('var', name), ('lit', n), ('T',), ('F',),
    ('~', x), ('&', x, y), ('|', x, y), ('->', x, y)."""
    toks = _tokens(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def formula():
        left = disjunction()
        if peek() == "->":
            take()
            return ("->", left, formula())
        return left

    def disjunction():
        node = conjunction()
        while peek() == "|":
            take()
            node = ("|", node, conjunction())
        return node

    def conjunction():
        node = unary()
        while peek() == "&":
            take()
            node = ("&", node, unary())
        return node

    def unary():
        if peek() == "~":
            take()
            return ("~", unary())
        tok = take()
        if tok == "(":
            node = formula()
            if take() != ")":
                raise ValueError(f"unbalanced parentheses: {text!r}")
            return node
        if tok.isdigit():
            return ("lit", int(tok))
        if tok in ("T", "F"):
            return (tok,)
        return ("var", tok)

    node = formula()
    if pos != len(toks):
        raise ValueError(f"trailing input: {text!r}")
    return node


def variables(node) -> list[str]:
    """Sorted distinct variable names of a parsed formula."""
    if node[0] == "var":
        return [node[1]]
    names = set()
    for child in node[1:]:
        if isinstance(child, tuple):
            names.update(variables(child))
    return sorted(names)


def evaluate(node, bottom: int, top: int, env, neg_fn=None, imp_fn=None) -> int:
    """Value of a parsed formula in [bottom, top]; ``neg_fn(a)`` and
    ``imp_fn(a, b)`` default to this module's member scans."""
    neg_fn = neg_fn or (lambda a: neg(bottom, top, a))
    imp_fn = imp_fn or (lambda a, b: imp(bottom, top, a, b))

    def ev(n):
        op = n[0]
        if op == "var":
            return env[n[1]]
        if op == "lit":
            return n[1]
        if op == "T":
            return top
        if op == "F":
            return bottom
        if op == "~":
            return neg_fn(ev(n[1]))
        if op == "&":
            return math.gcd(ev(n[1]), ev(n[2]))
        if op == "|":
            return math.lcm(ev(n[1]), ev(n[2]))
        return imp_fn(ev(n[1]), ev(n[2]))

    return ev(node)


def assignment_at(index: int, names: list[str], values: tuple[int, ...]) -> dict[str, int]:
    """The ``index``-th assignment in lexicographic order (names sorted,
    values ascending), as check_valid enumerates them."""
    env = {}
    for name in reversed(names):
        index, digit = divmod(index, len(values))
        env[name] = values[digit]
    return env


def assignment_index(assignment, values: tuple[int, ...]) -> int:
    """Inverse of ``assignment_at`` for an ordered (name, value) sequence."""
    index = 0
    position = {v: i for i, v in enumerate(values)}
    for _, value in assignment:
        index = index * len(values) + position[value]
    return index
