"""Formula parsing, printing, and many-valued evaluation."""

import copy
import functools
import itertools
import math
import pickle
import re
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from divlog import (
    BOTTOM,
    TOP,
    And,
    Bottom,
    Counterexample,
    DivlogError,
    FormulaSyntaxError,
    Imp,
    Interval,
    Lit,
    NestingLimit,
    Not,
    NotMember,
    NotNatural,
    Or,
    SearchLimit,
    Top,
    UnboundVariable,
    Var,
    as_natural,
    check_valid,
    divides,
    evaluate,
    format_formula,
    join,
    meet,
    oracle_imp,
    parse,
    variables,
)
from divlog.formulas import DEFAULT_SEARCH_CAP, MAX_DEPTH, MAX_NODES, _atoms, _chain_slices, _holds_on_chain


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def intervals(draw, top_max=240):
    top = draw(st.integers(min_value=1, max_value=top_max))
    bottom = draw(st.sampled_from(_divisors(top)))
    return Interval(bottom, top)


names = st.sampled_from(["p", "q", "r", "s"])
leaves = st.one_of(
    st.builds(Var, names),
    st.builds(Lit, st.integers(min_value=1, max_value=60)),
    st.just(TOP),
    st.just(BOTTOM),
)
formulas = st.recursive(
    leaves,
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Imp, sub, sub),
    ),
    max_leaves=25,
)


# -- parsing -----------------------------------------------------------------


def test_parse_negated_disjunct():
    assert parse("~p | p") == Or(Not(Var("p")), Var("p"))


def test_parse_implication_is_right_associative():
    assert parse("p -> q -> r") == Imp(Var("p"), Imp(Var("q"), Var("r")))


def test_parse_peirce_formula():
    p, q = Var("p"), Var("q")
    assert parse("((p->q)->p)->p") == Imp(Imp(Imp(p, q), p), p)


def test_parse_precedence():
    p, q, r = Var("p"), Var("q"), Var("r")
    assert parse("p & q | r") == Or(And(p, q), r)
    assert parse("~p & q") == And(Not(p), q)
    assert parse("p | q -> r") == Imp(Or(p, q), r)


def test_parse_atoms():
    assert parse("T") == TOP
    assert parse("F") == BOTTOM
    assert parse("12") == Lit(12)
    assert parse("widget") == Var("widget")


@pytest.mark.parametrize("name", [5, b"p", None])
def test_a_variable_is_named_by_a_str(name):
    """A name no ``parse`` builds is refused where it is given, not by
    the sort of ``check_valid`` or the printer."""
    with pytest.raises(TypeError, match="a variable's name is a str, not "):
        Var(name)


def test_parse_ignores_whitespace():
    assert parse(" p&q ->~ r ") == parse("p & q -> ~r")


@pytest.mark.parametrize(
    "text, message",
    [
        ("p &", "expected a formula, found end of input (at position 3)"),
        ("p $ q", "unexpected character '$' (at position 2)"),
        ("(p", "expected ')' (at position 2)"),
        ("p q", "unexpected trailing input 'q' (at position 2)"),
        ("p 0", "unexpected trailing input 0 (at position 2)"),  # a literal 0, not the end
        ("", "expected a formula, found end of input (at position 0)"),
        ("~", "expected a formula, found end of input (at position 1)"),
        ("p &  ", "expected a formula, found end of input (at position 5)"),  # the end is len(text)
        ("\u00b2", "unexpected character '²' (at position 0)"),  # a digit to isdigit, not to int()
        # past the interpreter's int-string limit
        ("p & " + "9" * 5000, "integer literal of 5000 digits is too long (at position 4)"),
    ],
)
def test_syntax_errors_carry_positions(text, message):
    with pytest.raises(FormulaSyntaxError) as exc:
        parse(text)
    assert str(exc.value) == message
    assert message.endswith(f"(at position {exc.value.position})")


def test_integer_literals_are_runs_of_decimal_digits():
    assert parse("٣٠") == Lit(30)  # Arabic-Indic digits, as int() reads them
    with pytest.raises(FormulaSyntaxError, match="unexpected character '²'"):
        parse("2²")


def test_syntax_error_wire_name():
    # serialized as SyntaxError without shadowing the builtin
    assert FormulaSyntaxError.name == "SyntaxError"
    assert NestingLimit.name == "NestingLimit"


def test_variables_collects_names():
    assert variables(parse("p -> (q & ~r) | p")) == {"p", "q", "r"}
    assert variables(parse("T & 12")) == set()


# -- printing ----------------------------------------------------------------


def test_printer_uses_minimal_parentheses():
    cases = [
        "~p | p",
        "(p -> q) -> r",
        "p -> q -> r",
        "p & (q | r)",
        "p & q | r",
        "~(p & q)",
        "~~p",
        "p & (q & r)",
        "(p | q) & r",
        "(p -> q) | r",
        "p | q -> r",
        "~(p -> q)",
        "p & q -> r | s",
        "~p -> q & r",
        "p -> ~q",
        "(p -> q) | (q -> p)",
        "p | q | ~r",
        "p | (q | r)",
        "p | q & r",
        "(p -> q) & (p | q)",
        "p & q & ~r",
        "~p & q",
        "p & (q -> r)",
        "~(p | q)",
    ]
    for text in cases:
        assert format_formula(parse(text)) == text


@given(formulas)
def test_print_parse_round_trip(f):
    assert parse(format_formula(f)) == f


@pytest.mark.parametrize(
    "atom, text",
    [
        (Var("T"), "T"),  # reads back as TOP
        (Var("F"), "F"),  # reads back as BOTTOM
        (Lit(True), "True"),  # reads back as Var("True")
        (Var("p q"), "p q"),
        (Var(""), ""),
        (Var("2x"), "2x"),
        (Lit(-3), "-3"),
    ],
)
def test_printer_refuses_an_atom_that_does_not_parse_back(atom, text):
    with pytest.raises(ValueError) as exc:
        format_formula(And(Var("p"), atom))
    assert str(exc.value) == f"{atom!r} prints as {text!r}, which does not parse back to it"


def test_printer_keeps_every_atom_the_tokenizer_reads():
    for text in ["p", "_", "x\u00b2", "\u56db", "T", "F", "0", "12"]:
        assert format_formula(parse(text)) == text


# -- evaluation --------------------------------------------------------------


def test_eval_negation_example():
    assert evaluate(Interval(1, 12), parse("~2")) == 3


def test_excluded_middle_fails_in_twelve():
    assert evaluate(Interval(1, 12), parse("2 | ~2")) == 6


@given(intervals())
def test_top_meet_bottom_is_bottom(q):
    assert evaluate(q, parse("T & F")) == q.bottom


def test_eval_with_assignment():
    assert evaluate(Interval(1, 12), parse("p -> 6"), {"p": 4}) == 6


@given(intervals(), formulas, st.data())
def test_eval_lands_in_the_interval(q, f, data):
    ms = q.members()
    env = {name: data.draw(st.sampled_from(ms)) for name in sorted(variables(f))}
    try:
        value = evaluate(q, f, env)
    except NotMember:
        return  # formula carried a literal foreign to q
    assert q.contains(value)


def test_unbound_variables_are_reported():
    with pytest.raises(UnboundVariable) as exc:
        evaluate(Interval(1, 12), parse("p & q"), {"p": 2})
    assert "q" in str(exc.value)


def test_literals_must_be_members():
    with pytest.raises(NotMember):
        evaluate(Interval(1, 12), parse("5"))
    with pytest.raises(NotMember):
        evaluate(Interval(2, 24), parse("p"), {"p": 3})


@given(intervals(), st.data())
def test_negation_matches_implication_to_falsum(q, data):
    a = data.draw(st.sampled_from(q.members()))
    assert evaluate(q, Not(Lit(a))) == evaluate(q, Imp(Lit(a), BOTTOM))


monotone_formulas = st.recursive(
    st.one_of(st.builds(Var, names), st.just(TOP), st.just(BOTTOM)),
    lambda sub: st.one_of(st.builds(And, sub, sub), st.builds(Or, sub, sub)),
    max_leaves=12,
)


@given(intervals(), monotone_formulas, st.data())
def test_negation_free_fragment_is_monotone(q, f, data):
    ms = q.members()
    lo, hi = {}, {}
    for name in sorted(variables(f)):
        a = data.draw(st.sampled_from(ms))
        b = data.draw(st.sampled_from([m for m in ms if m % a == 0]))
        lo[name], hi[name] = a, b
    assert divides(evaluate(q, f, lo), evaluate(q, f, hi))


# -- validity checking -------------------------------------------------------


def test_self_implication_is_valid():
    assert check_valid(Interval(1, 12), parse("p -> p")) is None


def test_peirce_law_fails_in_the_three_chain():
    found = check_valid(Interval(1, 4), parse("((p->q)->p)->p"))
    assert found == Counterexample(assignment=(("p", 2), ("q", 1)), value=2)


def test_boolean_interval_validates_excluded_middle():
    assert check_valid(Interval(6, 12), parse("p | ~p")) is None


def test_first_counterexample_is_lexicographic():
    found = check_valid(Interval(1, 4), parse("p -> q"))
    assert found == Counterexample(assignment=(("p", 2), ("q", 1)), value=1)


def test_excluded_middle_counterexample_in_twelve():
    found = check_valid(Interval(1, 12), parse("p | ~p"))
    assert found.assignment == (("p", 2),)
    assert found.value == 6


def test_variable_free_formulas_are_checked_directly():
    assert check_valid(Interval(1, 12), parse("T")) is None
    assert check_valid(Interval(1, 12), parse("2")) == Counterexample(
        assignment=(), value=2
    )


def test_search_cap_guards_assignment_blowup():
    q = Interval(1, 12)  # six members, so eight variables exceed 10^6
    with pytest.raises(SearchLimit):
        check_valid(q, parse("a & b & c & d & e & f & g & h"))


def test_search_cap_is_configurable():
    with pytest.raises(SearchLimit):
        check_valid(Interval(1, 4), parse("p | ~p"), cap=2)


def conjunction(names):
    """``names`` joined by ``&`` into a tree of height about log2(len(names))."""
    if len(names) == 1:
        return names[0]
    half = len(names) // 2
    return f"({conjunction(names[:half])}) & ({conjunction(names[half:])})"


def test_search_over_thousands_of_variables_stops_at_the_cap():
    # 6**6000 has 4670 digits: the count stops once it passes the cap
    f = parse(conjunction([f"v{i}" for i in range(6000)]))
    with pytest.raises(SearchLimit) as info:
        check_valid(Interval(1, 12), f)
    assert str(info.value) == "6**6000 assignments over 6000 variables exceed the cap 1000000"


def test_variable_free_formula_is_decided_in_an_interval_too_big_to_list():
    q = Interval(1, 897612484786617600)
    assert q.size() == 103_680
    assert check_valid(q, parse("T")) is None
    assert check_valid(q, parse("F & T")) == Counterexample(assignment=(), value=1)


def test_an_over_cap_search_lists_no_member(monkeypatch):
    def refuse(self, cap=None):
        raise AssertionError("members listed")

    monkeypatch.setattr(Interval, "members", refuse)
    with pytest.raises(SearchLimit):
        check_valid(Interval(1, 12), parse("p | q"), cap=35)
    with pytest.raises(SearchLimit):
        check_valid(Interval(1, 897612484786617600), parse("p & q"))


def test_linearity_holds_in_every_interval():
    """(p -> q) | (q -> p) is valid in every interval: an interval is a
    product of chains, and in a chain one of a -> b and b -> a is the top."""
    f = parse("(p -> q) | (q -> p)")
    intervals = [Interval(b, top) for top in range(1, 201) for b in _divisors(top)]
    for q in intervals:
        assert check_valid(q, f) is None, q
    assert len(intervals) == 1_098
    assert sum(q.size() ** 2 for q in intervals) == 19_428


# -- nesting bound -------------------------------------------------------------

NESTED = {
    "negations": lambda n: "~" * n + "p",
    "parentheses": lambda n: "(" * n + "p" + ")" * n,
    "conjunctions": lambda n: "p" + " & p" * n,
    "implications": lambda n: "p" + " -> p" * n,
    "parenthesized negations": lambda n: "(~" * n + "p" + ")" * n,
}


@pytest.mark.parametrize(
    "shape, n, position",
    [
        ("negations", MAX_DEPTH + 1, MAX_DEPTH),
        ("negations", 3000, MAX_DEPTH),
        ("parentheses", MAX_DEPTH + 1, MAX_DEPTH),
        ("parentheses", 3000, MAX_DEPTH),
        ("conjunctions", MAX_DEPTH + 1, 2 + 4 * MAX_DEPTH),
        ("conjunctions", 5000, 2 + 4 * MAX_DEPTH),
        ("implications", 5000, 2 + 5 * MAX_DEPTH),
        ("parenthesized negations", MAX_DEPTH + 1, 2 * MAX_DEPTH),
    ],
)
def test_nesting_past_the_bound_is_a_syntax_error(shape, n, position):
    with pytest.raises(FormulaSyntaxError) as exc:
        parse(NESTED[shape](n))
    assert exc.value.position == position
    assert f"deeper than {MAX_DEPTH} levels" in str(exc.value)


@pytest.mark.parametrize("node_class", [And, Or, Imp])
def test_any_tree_within_the_bound_round_trips(node_class):
    atoms = [Var("p")] * (MAX_DEPTH + 1)
    leaning_left = functools.reduce(node_class, atoms)
    leaning_right = functools.reduce(lambda tree, atom: node_class(atom, tree), atoms)
    for f in (leaning_left, leaning_right):
        assert parse(format_formula(f)) == f


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_every_walker_handles_a_formula_at_the_bound(shape):
    f = parse(NESTED[shape](MAX_DEPTH))
    q = Interval(1, 12)
    assert variables(f) == {"p"}
    assert parse(format_formula(f)) == f
    assert evaluate(q, f, {"p": 4}) == reference_evaluate(q, f, {"p": 4})
    assert check_valid(q, f) == reference_check_valid(q, f)


@pytest.mark.parametrize(
    "grow",
    [
        lambda tree: And(tree, Var("q")),
        lambda tree: Or(Var("q"), tree),
        lambda tree: Imp(tree, TOP),
        lambda tree: Imp(Lit(3), tree),
        Not,
    ],
    ids=["and-left", "or-right", "imp-left", "imp-right", "not"],
)
def test_a_built_tree_is_bounded_like_a_parsed_one(grow):
    tree = Var("p")
    for height in range(1, MAX_DEPTH + 1):
        tree = grow(tree)
        assert tree.height == height
    with pytest.raises(NestingLimit, match=f"deeper than {MAX_DEPTH} levels"):
        grow(tree)


def test_height_leaves_equality_hash_and_repr_alone():
    built = Imp(Not(And(Var("p"), Var("q"))), Var("p"))
    assert (built.height, Var("p").height, TOP.height, Lit(3).height) == (3, 0, 0, 0)
    assert (built.size, built.left.size, Var("p").size, TOP.size, Lit(3).size) == (6, 4, 1, 1, 1)
    assert (parse("~(p & q) -> p").size, Not(5).size, And(5, Var("p")).size) == (6, 2, 3)
    assert parse("~(p & q) -> p") == built
    assert hash(parse("~(p & q) -> p")) == hash(built)
    assert repr(built) == (
        "Imp(left=Not(child=And(left=Var(name='p'), right=Var(name='q'))), right=Var(name='p'))"
    )
    # the parsed root's atoms are no field either
    parsed = parse("~(p & q) -> p")
    assert parsed.atoms == (("p", "q"), ()) and not hasattr(built, "atoms")
    assert parsed == built and hash(parsed) == hash(built) and repr(parsed) == repr(built)
    assert "atoms" not in Imp._fields and "atoms" not in Not._fields
    for twin in (pickle.loads(pickle.dumps(parsed)), copy.copy(parsed), copy.deepcopy(parsed)):
        assert twin == built and repr(twin) == repr(built) and not hasattr(twin, "atoms")
    assert pickle.dumps(parse("~(p & q) -> r")) == pickle.dumps(Imp(Not(And(Var("p"), Var("q"))), Var("r")))


def shared_tree(levels):
    """``levels`` nested ``Imp(f, f)`` over one ``Var``: ``levels + 1``
    distinct nodes, which the walkers visit as ``2 ** (levels + 1) - 1``."""
    f = Var("p")
    for _ in range(levels):
        f = Imp(f, f)
    return f


def balanced_text(levels):
    """A conjunction of ``2 ** levels`` leaves, ``levels`` levels high."""
    text = "p"
    for _ in range(levels):
        text = f"{text} & ({text})"
    return text


def test_a_shared_tree_past_the_node_bound_is_refused_at_once():
    start = time.perf_counter()
    with pytest.raises(NestingLimit, match=f"^formula has more than {MAX_NODES} nodes$"):
        shared_tree(60)
    assert time.perf_counter() - start < 0.05
    assert shared_tree(15).size == MAX_NODES - 1
    assert Not(shared_tree(15)).size == MAX_NODES
    for grow in (Not, lambda f: And(f, 5)):
        with pytest.raises(NestingLimit, match="nodes"):
            grow(Not(shared_tree(15)))
    tall = functools.reduce(lambda f, _: Not(f), range(MAX_DEPTH), Var("p"))
    with pytest.raises(NestingLimit, match=f"deeper than {MAX_DEPTH} levels"):
        And(tall, shared_tree(15))  # past both bounds: the height is checked first


def test_every_walker_answers_on_a_shared_tree_at_the_node_bound():
    f, q = shared_tree(15), Interval(1, 12)
    assert variables(f) == {"p"}
    assert evaluate(q, f, {"p": 4}) == 12
    assert check_valid(q, f) is None
    text = format_formula(f)
    twin = pickle.loads(pickle.dumps(f))
    assert twin == f and hash(twin) == hash(f) and twin.size == f.size
    assert repr(f) == f"Imp(left={f.left!r}, right={f.right!r})"
    back = parse(text)
    assert back == f and back.size == MAX_NODES - 1


def test_a_text_past_the_node_bound_is_refused_at_its_connective():
    text = balanced_text(15)
    f = parse(text)
    assert (f.size, f.height) == (MAX_NODES - 1, 15)
    half = balanced_text(14)
    assert parse(f"~({text})").size == parse(f"~({half}) & ({half})").size == MAX_NODES
    message = "formula has more than 65536 nodes"
    assert parsed(parse, text + " & p") == (FormulaSyntaxError, f"{message} (at position {len(text) + 1})",
                                            len(text) + 1)
    assert_parsers_agree(text + " & p")
    assert parsed(parse, f"p | ~~({text})") == (FormulaSyntaxError, f"{message} (at position 4)", 4)


class _Meet(And):
    """A subclass of a node class, which no walker takes for a node."""

    __slots__ = ()


class _Name(Var):
    __slots__ = ()


WALKERS = {
    "variables": variables,
    "format_formula": format_formula,
    "evaluate": lambda f: evaluate(Interval(1, 12), f, {"p": 2, "q": 3}),
    "check_valid": lambda f: check_valid(Interval(1, 12), f),
}


@pytest.mark.parametrize("walker", WALKERS)
@pytest.mark.parametrize(
    "f, shown_as",
    [("p & q", "'p & q'"), (Or(Var("p"), Not(5)), "5"), (_Meet(Var("p"), Var("q")), "_Meet("),
     (Not(_Name("p")), "_Name(")],
    ids=["text", "non-node child", "subclass", "atom subclass"],
)
def test_non_node_children_reach_the_walkers_type_error(walker, f, shown_as):
    with pytest.raises(TypeError, match="not a formula node: " + re.escape(shown_as)):
        WALKERS[walker](f)


def test_a_non_node_is_refused_before_the_domain_errors():
    q, f = Interval(1, 12), Or(Imp(Lit(5), And(Var("p"), Var("q"))), Not(5))
    assert f.right.height == 1  # a non-node child counts as an atom
    with pytest.raises(UnboundVariable):
        evaluate(q, f.left, {"p": 2})
    with pytest.raises(SearchLimit):
        check_valid(q, f.left, cap=35)
    with pytest.raises(NotMember):
        check_valid(q, f.left)
    for refuse in (lambda: evaluate(q, f, {"p": 2}), lambda: check_valid(q, f, cap=35),
                   lambda: check_valid(q, f)):
        with pytest.raises(TypeError, match="not a formula node: 5"):
            refuse()


# -- the parser against the recursive descent it replaced ----------------------


def reference_tokenize(text):
    """Scan a character at a time."""
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
        elif ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            try:
                tokens.append(("int", int(text[i:j]), i))
            except ValueError:
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


class ReferenceParser:
    """Recursive descent, a method per precedence row."""

    rows = ((Imp, "->", True), (Or, "|", False), (And, "&", False))

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.parens = 0

    def next_is(self, op):
        kind, value, _ = self.tokens[self.pos]
        return kind == "op" and value == op

    def advance(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def nest(self, depth, position):
        if depth > MAX_DEPTH:
            raise FormulaSyntaxError(f"formula nests deeper than {MAX_DEPTH} levels", position)
        return depth

    def grow(self, child, others, position):
        """``child``, if a connective over it and ``others`` nodes more
        stays within the node bound."""
        if 1 + others + child.size > MAX_NODES:
            raise FormulaSyntaxError(f"formula has more than {MAX_NODES} nodes", position)
        return child

    def binary(self, level, depth):
        if level == len(self.rows):
            return self.unary(depth)
        node_class, symbol, right_assoc = self.rows[level]
        node = self.binary(level + 1, depth)
        while self.next_is(symbol):
            position = self.advance()[2]
            operand = level if right_assoc else level + 1
            right = self.binary(operand, self.nest(depth + 1, position))
            self.nest(depth + 1 + max(node.height, right.height), position)
            node = node_class(node, self.grow(right, node.size, position))
        return node

    def unary(self, depth):
        kind, value, position = self.advance()
        if kind == "int":
            return Lit(value)
        if kind == "name":
            return {"T": TOP, "F": BOTTOM}.get(value, Var(value))
        if kind == "op" and value == "~":
            return Not(self.grow(self.unary(self.nest(depth + 1, position)), 0, position))
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


def reference_parse(text):
    parser = ReferenceParser(reference_tokenize(text))
    node = parser.binary(0, 0)
    kind, value, position = parser.tokens[parser.pos]
    if kind != "end":
        raise FormulaSyntaxError(f"unexpected trailing input {value!r}", position)
    return node


def test_the_node_classes_declare_the_reference_rows():
    binary = sorted((Imp, Or, And), key=lambda kind: kind.level)
    assert tuple((kind, kind.symbol, kind.right_assoc) for kind in binary) == ReferenceParser.rows
    assert [kind.level for kind in binary] == [0, 1, 2]
    assert Not.level == len(ReferenceParser.rows)
    assert (Not.symbol, Top.symbol, Bottom.symbol) == ("~", "T", "F")


def parsed(parse_text, text):
    """The tree, or the type, message and offset of the syntax error."""
    try:
        return parse_text(text)
    except FormulaSyntaxError as err:
        return type(err), str(err), err.position


def assert_parsers_agree(text):
    assert parsed(parse, text) == parsed(reference_parse, text), text


formula_texts = st.lists(
    st.sampled_from(["->", "-", "~", "&", "|", "(", ")", "T", "F", "p", "q", "1", "09", "\t", "\u3000", " "]),
    max_size=20,
).map("".join)


@given(formula_texts)
def test_parse_matches_the_reference_on_formula_alphabet(text):
    assert_parsers_agree(text)


@given(st.text())
def test_parse_matches_the_reference_on_any_text(text):
    assert_parsers_agree(text)


@pytest.mark.parametrize(
    "c",
    ["\x1c", "\u3000", "\u0663", "\u00b2", "\u00bd", "\u56db", "\u00e9", "e\u0301", "_", "\u203f", "$"],
)
def test_parse_matches_the_reference_on_odd_characters(c):
    for text in [c, f"p{c}", f"{c}p", f"1{c}2", f"p &{c}q", f"x{c}y"]:
        assert_parsers_agree(text)


NESTED_TOO = {
    **NESTED,
    "negated conjunctions": lambda n: "~(p & " * n + "p" + ")" * n,
    "parenthesized implications": lambda n: "(p -> " * n + "p" + ")" * n,
}


@pytest.mark.parametrize("shape", sorted(NESTED_TOO))
def test_parse_matches_the_reference_on_nesting(shape):
    for n in range(131):
        assert_parsers_agree(NESTED_TOO[shape](n))


@pytest.mark.parametrize(
    "text, message",
    [
        ("p ) $", "unexpected character '$' (at position 4)"),
        ("p ) ²", "unexpected character '²' (at position 4)"),
        ("(p " + "7" * 5000, "integer literal of 5000 digits is too long (at position 3)"),
    ],
    ids=["dollar", "superscript", "long literal"],
)
def test_a_token_error_wins_over_an_earlier_parse_error(text, message):
    assert_parsers_agree(text)
    with pytest.raises(FormulaSyntaxError) as exc:
        parse(text)
    assert str(exc.value) == message


def test_a_repeated_variable_parses_like_the_tree_built_from_the_node_classes():
    text = "(p & q) -> (p | ~q) -> p"
    built = Imp(And(Var("p"), Var("q")), Imp(Or(Var("p"), Not(Var("q"))), Var("p")))
    f = parse(text)
    assert f.left.left is f.right.left.left is f.right.right  # one Var per name
    assert f == built and hash(f) == hash(built) and repr(f) == repr(built)
    assert pickle.loads(pickle.dumps(f)) == built
    assert repr(pickle.loads(pickle.dumps(f))) == repr(built)
    assert f == reference_parse(text)


@pytest.mark.parametrize("text", [b"p", None])
def test_parse_takes_only_text(text):
    with pytest.raises(TypeError):
        parse(text)


# -- the atoms a parsed root hands over ---------------------------------------


def taut_mix_texts(seeds):
    """The distinct formula texts of the benchmark's ``taut-mix``
    workload (``perfbench/workloads.py``) for ``seeds``."""
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, bench)
    try:
        from workloads import TautMix
    finally:
        sys.path.remove(bench)
    return sorted({text for seed in seeds for _, text, _ in TautMix(seed).ops})


def assert_atoms_match_the_walk(f):
    """A parsed connective holds the ``atoms`` that the walk of its
    constructor-built twin finds, and ``_atoms`` returns them unwalked."""
    twin = pickle.loads(pickle.dumps(f))
    assert not hasattr(twin, "atoms")
    if isinstance(f, (And, Or, Imp, Not)):
        assert _atoms(f) is f.atoms
        assert f.atoms == _atoms(twin)
    else:  # an atom has no slot: the walk answers
        assert not hasattr(f, "atoms")
    names, literals = _atoms(twin)
    assert list(names) == sorted(variables(twin)) and literals == tuple(reference_literals(twin))
    assert all(type(x) is tuple for x in _atoms(f))


def reference_literals(f):
    """The literals' values, left to right, by recursion."""
    kind = type(f)
    if kind is Lit:
        return [f.value]
    if kind is Not:
        return reference_literals(f.child)
    if kind in (And, Or, Imp):
        return reference_literals(f.left) + reference_literals(f.right)
    return []


def test_every_taut_mix_root_hands_over_the_atoms_its_walk_finds():
    texts = taut_mix_texts((1, 2, 3))
    assert len(texts) > 1_000
    for text in texts:
        f = parse(text)
        assert_atoms_match_the_walk(f)
        assert list(f.atoms[0]) == sorted(set(re.findall(r"[a-z_]\w*", text))), text
        assert f.atoms[1] == tuple(int(d) for d in re.findall(r"\d+", text)), text


@given(formulas)
def test_a_parsed_root_hands_over_the_atoms_its_walk_finds(f):
    assert_atoms_match_the_walk(parse(format_formula(f)))


@given(formula_texts)
def test_any_parsed_text_hands_over_the_atoms_its_walk_finds(text):
    try:
        f = parse(text)
    except FormulaSyntaxError:
        return
    assert_atoms_match_the_walk(f)


def test_only_the_parsed_root_holds_atoms_the_rest_is_walked():
    f = parse("(q & 3) -> ~(p | 7 | q) -> T")
    assert f.atoms == (("p", "q"), (3, 7))
    subtrees = [f.left, f.right, f.right.left, f.right.left.child]
    assert not any(hasattr(sub, "atoms") for sub in subtrees)
    assert [_atoms(sub) for sub in subtrees] == [
        (("q",), (3,)), (("p", "q"), (7,)), (("p", "q"), (7,)), (("p", "q"), (7,))
    ]
    built = Imp(And(Var("q"), Lit(3)), Imp(Not(Or(Or(Var("p"), Lit(7)), Var("q"))), TOP))
    assert built == f and not hasattr(built, "atoms") and _atoms(built) == f.atoms
    for twin in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
        assert not hasattr(twin, "atoms") and _atoms(twin) == f.atoms
    assert (_atoms(parse("p")), _atoms(parse("4")), _atoms(parse("T"))) == ((("p",), ()), ((), (4,)), ((), ()))
    assert variables(f) == {"p", "q"}
    # a parse is one request: the next parse of the same text has its own atoms
    assert parse("p & q").atoms == parse("p & q").atoms and parse("p & q").atoms is not parse("p & q").atoms


def test_a_built_tree_over_a_parsed_one_still_refuses_a_non_node_first():
    q, parsed = Interval(1, 12), parse("p & q & r")
    for f in (Or(parsed, Not(5)), Imp(Not(parsed), "p"), _Meet(parsed, Var("s"))):
        for refuse in (lambda: check_valid(q, f, cap=35), lambda: evaluate(q, f, {"p": 2}), lambda: variables(f)):
            with pytest.raises(TypeError, match="not a formula node: "):
                refuse()
    with pytest.raises(SearchLimit):
        check_valid(q, Or(parsed, Not(Lit(5))), cap=35)


# -- evaluate and check_valid against a checked tree-walking reference ---------


def reference_eval(q, formula, env):
    """Walk the tree per assignment, checking each literal at its node."""
    if isinstance(formula, Var):
        return env[formula.name]
    if isinstance(formula, Lit):
        value = as_natural(formula.value)
        if not q.contains(value):
            raise NotMember(f"literal {value} is not in the interval {q}")
        return value
    if isinstance(formula, Top):
        return q.top
    if isinstance(formula, Bottom):
        return q.bottom
    if isinstance(formula, And):
        return meet(reference_eval(q, formula.left, env), reference_eval(q, formula.right, env))
    if isinstance(formula, Or):
        return join(reference_eval(q, formula.left, env), reference_eval(q, formula.right, env))
    if isinstance(formula, Imp):
        return q.imp(reference_eval(q, formula.left, env), reference_eval(q, formula.right, env))
    if isinstance(formula, Not):
        return q.neg(reference_eval(q, formula.child, env))
    raise TypeError(f"not a formula node: {formula!r}")


def reference_evaluate(q, formula, assignment=None):
    env = dict(assignment or {})
    for name in sorted(variables(formula)):
        if name not in env:
            raise UnboundVariable(f"no value for variable {name!r}")
    for name, value in env.items():
        value = as_natural(value)
        if not q.contains(value):
            raise NotMember(f"{name}={value} is not in the interval {q}")
    return reference_eval(q, formula, env)


def reference_check_valid(q, formula, cap=DEFAULT_SEARCH_CAP):
    names = sorted(variables(formula))
    members = q.members()
    size, k = len(members), len(names)
    if size**k > cap:
        raise SearchLimit(f"{size}**{k} assignments over {k} variables exceed the cap {cap}")
    for combo in itertools.product(members, repeat=len(names)):
        value = reference_eval(q, formula, dict(zip(names, combo)))
        if value != q.top:
            return Counterexample(assignment=tuple(zip(names, combo)), value=value)
    return None


def outcome(fn, *args):
    """The value, or the class and message of the domain error raised."""
    try:
        return fn(*args)
    except DivlogError as err:
        return type(err), str(err)


@given(intervals(), formulas, st.data())
def test_evaluate_matches_the_reference(q, f, data):
    ms = q.members()
    env = {name: data.draw(st.sampled_from(ms)) for name in sorted(variables(f))}
    # overwrite some bindings with foreign or non-natural values, add
    # bindings the formula does not use, and unbind a variable
    env.update(data.draw(st.dictionaries(names, st.integers(-1, 60), max_size=2)))
    for name in data.draw(st.sets(names, max_size=1)):
        env.pop(name, None)
    assert outcome(evaluate, q, f, env) == outcome(reference_evaluate, q, f, env)


@given(intervals(), formulas, st.integers(1, 400))
def test_check_valid_matches_the_reference(q, f, cap):
    assert outcome(check_valid, q, f, cap) == outcome(reference_check_valid, q, f, cap)


def test_evaluate_reports_unbound_then_binding_then_literal():
    q, f = Interval(1, 12), parse("5 & p & q")
    with pytest.raises(UnboundVariable):
        evaluate(q, f, {"p": 7})
    with pytest.raises(NotMember, match="p=7"):
        evaluate(q, f, {"p": 7, "q": 2})
    with pytest.raises(NotMember, match="literal 5"):
        evaluate(q, f, {"p": 2, "q": 2})


def test_check_valid_reports_search_then_literal():
    q, f = Interval(1, 12), parse("5 & p & q")  # six members, 36 assignments
    with pytest.raises(SearchLimit) as info:
        check_valid(q, f, cap=35)
    assert str(info.value) == "6**2 assignments over 2 variables exceed the cap 35"
    with pytest.raises(NotMember, match="literal 5"):
        check_valid(q, f, cap=36)


@pytest.mark.parametrize("bad", ["x", None, True, 2.0, 0, -1])
def test_search_caps_must_be_positive_integers(bad):
    with pytest.raises(NotNatural):
        check_valid(Interval(1, 12), parse("p | ~p"), cap=bad)


def _refuse(*args):
    raise AssertionError("an evaluation checked an operand again")


@pytest.mark.parametrize(
    "text, values",
    [("~(p & 6) -> (6 -> ~p) | q", 549), ("(p & 4 -> q) | ~(q | ~p) | 2", 513),
     ("~~(p -> q) & (3 | T) -> ~~p -> ~~q", 497)],
)
def test_evaluate_computes_without_the_checked_operations(monkeypatch, text, values):
    """In every interval with top <= 36, ``evaluate`` gives the checked
    reference's value, or its error, under every assignment, and
    ``check_valid`` its verdict, with the checked ``neg``, ``imp``,
    ``meet`` and ``join`` refused.  ``values`` counts the assignments
    that give a value, not NotMember for a literal."""
    f = parse(text)
    names = sorted(variables(f))
    cases = [(q, dict(zip(names, combo)))
             for q in SMALL_INTERVALS for combo in itertools.product(q.members(), repeat=len(names))]
    expected = ([outcome(reference_evaluate, q, f, env) for q, env in cases],
                [outcome(reference_check_valid, q, f) for q in SMALL_INTERVALS])
    assert sum(type(value) is int for value in expected[0]) == values
    for target in ("divlog.intervals.Interval.neg", "divlog.intervals.Interval.imp",
                   "divlog.lattice.meet", "divlog.lattice.join"):
        monkeypatch.setattr(target, _refuse)
    assert ([outcome(evaluate, q, f, env) for q, env in cases],
            [outcome(check_valid, q, f) for q in SMALL_INTERVALS]) == expected


NEGATION_HEAVY = ["~p | ~~p", "~~p -> p", "~(p & q) -> (~p | ~q)", "~(p | q) -> (~p & ~q)"]


def _small_intervals():
    """Every interval with top <= 36, built fresh: no member listed yet."""
    return [Interval(bottom, top) for top in range(1, 37) for bottom in _divisors(top)]


SMALL_INTERVALS = _small_intervals()


@pytest.mark.parametrize("text", NEGATION_HEAVY)
def test_negation_heavy_formulas_match_the_reference_in_every_small_interval(text):
    f = parse(text)
    for q in SMALL_INTERVALS:
        assert check_valid(q, f) == reference_check_valid(q, f), q


def _reused(q):
    """``q`` after a member walk of two variables, so its members are
    listed and that walk's lanes built: ``p | q | T | <bottom>`` is
    valid everywhere, and its literal keeps it off the chain pass."""
    assert check_valid(q, parse(f"p | q | T | {q.bottom}")) is None and q._members is not None
    return q


def test_a_corrupted_negation_kernel_changes_evaluate_and_no_verdict(monkeypatch):
    """A kernel whose ``x -> F`` is always the bottom changes what
    ``evaluate`` returns, and no verdict of ``check_valid``, on fresh and
    reused intervals alike: its chain pass and its member walk compute
    on exponents and call no kernel.  Three of the formulas are valid in
    every interval."""
    texts = [*NEGATION_HEAVY, "~p | q"]

    def verdicts():
        intervals = [_reused(q) for q in _small_intervals()]
        intervals += _small_intervals()
        return {text: [check_valid(q, parse(text)) for q in intervals] for text in texts}

    before = verdicts()
    q = Interval(1, 12)
    assert evaluate(q, parse("~2")) == 3
    kernel = Interval._imp
    monkeypatch.setattr(Interval, "_imp", lambda self, a, b: self.bottom if b == self.bottom else kernel(self, a, b))
    assert evaluate(q, parse("~2")) == 1
    assert verdicts() == before
    refuted = {text: sum(x is not None for x in before[text]) for text in texts}
    assert refuted == {"~p | ~~p": 0, "~~p -> p": 62, "~(p & q) -> (~p | ~q)": 0,
                       "~(p | q) -> (~p & ~q)": 0, "~p | q": 208}
    assert len(before["~p | q"]) == 280


# -- searches on fresh and reused intervals ------------------------------------

# formulas of two and three variables, with and without literals
SEARCH_FORMULAS = [
    "(p -> q) | (q -> p)",
    "~(p & q) -> (~p | ~q)",
    "(p & 2 -> q | F) & (T -> ~q | 3)",
    "(6 -> p) | ~(q & ~6) | (p & q -> 4)",
    "((p -> q) -> r) -> ((r -> p) -> p)",
    "(p -> q) | (q -> r) | (r -> p)",
    "~(p & q & r) -> (~p | ~q | ~r)",
    "(p & (q | r)) -> ((p & q) | 2 | ~~r) & (F -> T & r)",
]


@pytest.mark.parametrize("text", SEARCH_FORMULAS)
def test_searches_match_the_reference_on_fresh_and_reused_intervals(text):
    """A fresh interval lists its members in the search, a reused one
    has them listed already; both agree with the reference, errors too."""
    f = parse(text)
    for fresh, reused in zip(_small_intervals(), map(_reused, _small_intervals())):
        got = outcome(check_valid, fresh, f)  # before the reference lists its members
        expected = outcome(reference_check_valid, fresh, f)
        assert got == expected, fresh
        assert outcome(check_valid, reused, f) == expected, reused


# every interval with top <= 60, as (bottom, top)
BOUNDS_UP_TO_60 = [(bottom, top) for top in range(1, 61) for bottom in _divisors(top)]
MEMBER_WALK_FORMULAS = list(dict.fromkeys([*SEARCH_FORMULAS, *NEGATION_HEAVY, "(p -> q) | (q -> p) | 1"]))


@functools.lru_cache(maxsize=None)
def _reference_outcomes(text):
    f = parse(text)
    return [outcome(reference_check_valid, Interval(*bounds), f, 3000) for bounds in BOUNDS_UP_TO_60]


@pytest.mark.parametrize("block_bits", [None, 8, 64])
def test_the_member_walk_matches_the_reference_on_every_interval_up_to_60(block_bits):
    """Result, or error class and message, on every interval with top <=
    60, fresh and reused, at ``cap=3000``.  Blocks of 8 and 64 bits give
    most searches of two or three variables leading variables, so 62 and
    29 first counterexamples lie past block 0, where a leading variable
    is not the bottom; at the default width one does."""
    past_block_0 = 0
    with pytest.MonkeyPatch.context() as patch:
        if block_bits:
            patch.setattr("divlog.formulas._BLOCK_BITS", block_bits)
        _chain_slices.cache_clear()  # the chain pass's tables are built for one width
        try:
            for text in MEMBER_WALK_FORMULAS:
                f = parse(text)
                k = len(variables(f))
                for bounds, expected in zip(BOUNDS_UP_TO_60, _reference_outcomes(text)):
                    fresh = Interval(*bounds)
                    got = outcome(check_valid, fresh, f, 3000)
                    assert got == expected, (text, fresh)
                    assert outcome(check_valid, _reused(Interval(*bounds)), f, 3000) == expected, (text, fresh)
                    if isinstance(got, Counterexample):
                        leading = fresh._chains.slices[k][0]
                        past_block_0 += any(v != fresh.bottom for _, v in got.assignment[:leading])
        finally:
            _chain_slices.cache_clear()
    assert past_block_0 == {None: 1, 8: 62, 64: 29}[block_bits]


def test_a_refuted_formula_calls_no_kernel_and_lists_the_members_once(monkeypatch):
    """On 288 members ``p -> q`` is refuted on the chain, then the member
    walk finds its first counterexample in its second block (``p = 2``),
    with no kernel call: the fresh interval lists its members once, and
    the second call reads them, and its lanes, from the interval's slot."""
    calls, listings = [], []
    kernel, members = Interval._imp, Interval.members
    monkeypatch.setattr(Interval, "_imp", lambda self, a, b: calls.append(a) or kernel(self, a, b))
    monkeypatch.setattr(Interval, "members", lambda self, *cap: listings.append(self) or members(self, *cap))
    q = Interval(1, 1441440)
    assert q.size() == 288
    for _ in range(2):
        assert check_valid(q, parse("p -> q")) == Counterexample((("p", 2), ("q", 1)), 45045)
    assert calls == [] and listings == [q] and q._members is not None


def test_searches_repeated_on_one_interval_keep_their_verdicts():
    q = Interval(1, 12)  # 6 members; the chain is C_3
    for _ in range(3):  # valid on the chain
        assert check_valid(q, parse("(p -> q) | (q -> p)")) is None
    for _ in range(2):  # refuted on the chain, then in full at (1, 2)
        assert check_valid(q, parse("q -> p")) == Counterexample((("p", 1), ("q", 2)), 3)
    assert check_valid(q, parse("p | T")) is None
    for _ in range(2):  # refuted in full at the 7th assignment: 2 -> 1 is 3
        assert check_valid(q, parse("p -> q")) == Counterexample((("p", 2), ("q", 1)), 3)


def test_a_foreign_literal_raises_before_any_member_is_listed():
    q = _reused(Interval(1, 12))
    with pytest.raises(NotMember, match="literal 5 is not in the interval"):
        check_valid(q, parse("p | q | 5"))
    fresh = Interval(1, 1441440)
    with pytest.raises(NotMember, match="literal 17 is not in the interval"):
        check_valid(fresh, parse("p | 4 | 17"))
    assert fresh._members is None


def test_a_two_variable_full_search_on_320_members_matches_the_reference():
    q = Interval(1, 2**9 * 3**3 * 5 * 7 * 11)
    assert q.size() == 320
    # the literal 1 keeps linearity off the chain pass: a member walk
    for text in ["(p -> q) | (q -> p) | 1", "(p -> q) | (q -> 2 | p & 3)"]:
        f = parse(text)
        expected = reference_check_valid(q, f)
        assert check_valid(Interval(q.bottom, q.top), f) == expected
        assert check_valid(q, f) == expected


def test_one_variable_and_variable_free_searches_on_fresh_and_reused_intervals():
    for q in (Interval(1, 36), _reused(Interval(1, 36))):
        assert check_valid(q, parse("p | ~p")) == Counterexample((("p", 2),), 18)
        assert check_valid(q, parse("~~p -> p")) == Counterexample((("p", 2),), 18)
        assert check_valid(q, parse("4 -> 2 | T")) is None
        assert check_valid(q, parse("p -> q | p")) is None


# -- the Gödel chain that decides valid formulas -------------------------------

# valid in every chain, so in every interval: the chain pass decides them
GODEL_DUMMETT = [
    "(p -> q) | (q -> p)",
    "((p -> q) -> q) -> ((q -> p) -> p)",
    "(p -> (q | r)) -> ((p -> q) | (p -> r))",
    "(p -> q) | (q -> r) | (r -> p)",
]
# bounded depth: valid in the chain C_n exactly when n < k + 2, k the
# variable count, so no shorter chain than k + 2 members can decide them
BOUNDED_DEPTH = ["p | ~p", "q | (q -> p | ~p)", "r | (r -> q | (q -> p | ~p))"]
# every literal-free formula of the corpora above
LITERAL_FREE = [
    text
    for text in dict.fromkeys([*NEGATION_HEAVY, *GODEL_DUMMETT, *BOUNDED_DEPTH, *SEARCH_FORMULAS])
    if not any(c.isdigit() for c in text)
]


@pytest.mark.parametrize("text", [*NEGATION_HEAVY, *GODEL_DUMMETT, *BOUNDED_DEPTH])
def test_chain_verdicts_match_the_reference_in_every_small_interval(text):
    """Fresh and reused intervals alike agree with the reference."""
    f = parse(text)
    for fresh, reused in zip(_small_intervals(), map(_reused, _small_intervals())):
        expected = reference_check_valid(fresh, f)
        assert check_valid(fresh, f) == expected, fresh
        assert check_valid(reused, f) == expected, reused


@pytest.mark.parametrize("k, text", enumerate(BOUNDED_DEPTH, 1))
def test_a_formula_of_k_variables_needs_a_chain_of_k_plus_2_members(k, text):
    f = parse(text)
    for n in range(1, k + 5):
        chain = Interval(1, 2 ** (n - 1))  # the Gödel chain C_n
        assert (check_valid(chain, f) is None) == (n < k + 2), n
        assert (check_valid(chain, f) is None) == (reference_check_valid(chain, f) is None), n


def _diagonal(q, length):
    """The chain ``d_0 < ... < d_(n-2) < top`` of ``n = min(G + 1,
    length)`` members of ``q``, ``G`` the largest gap: ``d_i = gcd(top,
    bottom * r**i)``, where ``r`` is the product of the primes with a
    positive gap.  Per prime, ``d_i`` sits ``min(i, gap)`` above the
    bottom, a top truncation, so the chain is a subalgebra of ``q``
    isomorphic to the Gödel chain ``C_n`` on which ``check_valid``
    decides valid formulas: ``d_i`` stands for ``i``."""
    r = math.prod(q._gaps)
    chain, d = [], q.bottom
    for _ in range(min(max(q._gaps.values(), default=0) + 1, length) - 1):
        chain.append(d)
        d = math.gcd(q.top, d * r)
    chain.append(q.top)
    return chain


def test_the_diagonal_is_a_subalgebra_isomorphic_to_a_goedel_chain():
    """Per prime, d_i sits min(i, gap) above the bottom: a chain from the
    bottom to the top, closed under meet, join and the oracle's ->, where
    d_i -> d_j is the top for i <= j and d_j otherwise."""
    cases = 0
    for top in range(1, 121):
        for bottom in _divisors(top):
            q = Interval(bottom, top)
            longest = max(q._gaps.values(), default=0) + 1
            full = _diagonal(q, longest + 3)
            assert len(full) == longest and full[0] == bottom and full[-1] == top, q
            for length in range(1, longest + 1):
                assert _diagonal(q, length) == full[: length - 1] + [top], (q, length)
            for i, a in enumerate(full):
                for j, b in enumerate(full):
                    assert (i < j) == (a != b and divides(a, b)), (q, a, b)
                    assert meet(a, b) == full[min(i, j)] and join(a, b) == full[max(i, j)], (q, a, b)
                    assert oracle_imp(q, a, b) == (top if i <= j else b), (q, a, b)
                    cases += 1
    assert cases == 3_405


class _Refused(Exception):
    """Raised by a refused interval method; no DivlogError."""


def _refused_call(self, *args):
    raise _Refused


def test_a_valid_formula_is_decided_on_the_chain_without_the_search(monkeypatch):
    """On 288 members linearity is decided on the chain C_4, with no
    kernel call and no member listed; an invalid formula still gets the
    member walk's first counterexample."""
    calls = []
    kernel = Interval._imp
    monkeypatch.setattr(Interval, "_imp", lambda self, a, b: calls.append(a) or kernel(self, a, b))
    q = Interval(1, 1441440)
    assert check_valid(q, parse("(p -> q) | (q -> p)")) is None
    assert calls == [] and q._members is None
    assert check_valid(q, parse("p -> q")) == Counterexample((("p", 2), ("q", 1)), 45045)

    for name in ("members", "_imp"):
        monkeypatch.setattr(Interval, name, _refused_call)
    over = Interval(1, 2**4 * 3**4 * 5**4)  # 125 members: 125**3 > 10**6
    with pytest.raises(SearchLimit):
        check_valid(over, parse("((p -> q) | (q -> r)) | (r -> p)"))


def test_valid_verdicts_call_no_kernel_and_list_no_member(monkeypatch):
    """With the kernel and the member list refused, every valid verdict
    of a literal-free formula in an interval with top <= 36 still comes
    back, and every refuted formula reaches the member walk, whose
    listing of the fresh interval refuses."""
    valid = {text: [check_valid(q, parse(text)) is None for q in SMALL_INTERVALS] for text in LITERAL_FREE}
    for name in ("members", "_imp"):
        monkeypatch.setattr(Interval, name, _refused_call)
    for text in LITERAL_FREE:
        f = parse(text)
        for q, expected in zip(_small_intervals(), valid[text]):
            try:
                assert check_valid(q, f) is None and expected, (text, q)
            except _Refused:
                assert not expected, (text, q)
    assert sum(map(sum, valid.values())) == 1_684 and len(valid) * len(SMALL_INTERVALS) == 1_820


# too many members for a search of two variables, and gaps up to
# 40, within the factorization ceiling of 2**63 - 1 for top / bottom
HUGE_GAPS = [
    Interval(1, 2**30 * 3**10 * 5**3 * 7**2),
    Interval(5**2 * 11, 2**40 * 3**8 * 5**4 * 11),
    Interval(1, (2 * 3 * 5 * 7 * 11 * 13 * 17 * 19) ** 2),  # G = 2: C_3 decides
    Interval(13, 13 * (2 * 3 * 5 * 7 * 11 * 13 * 17) ** 3),  # G = 3: C_4 decides
]


@pytest.mark.parametrize("text", LITERAL_FREE)
def test_the_chain_pass_agrees_with_the_diagonal_in_intervals_too_big_to_search(monkeypatch, text):
    """The verdict on the abstract chain ``C_n`` against the path it
    replaced: every assignment over the diagonal inside the interval,
    evaluated through the interval's kernel.  A formula refuted on the
    chain goes on to list the members for the member walk, out of reach
    here, so a refused listing reads as refuted."""
    f = parse(text)
    names = sorted(variables(f))
    k = len(names)
    monkeypatch.setattr(Interval, "members", _refused_call)
    for q in HUGE_GAPS:
        assert q.size() ** 2 > DEFAULT_SEARCH_CAP
        diagonal = itertools.product(_diagonal(q, k + 2), repeat=k)
        on_diagonal = all(evaluate(q, f, dict(zip(names, combo))) == q.top for combo in diagonal)
        try:
            on_chain = check_valid(q, f, cap=q.size() ** k) is None
        except _Refused:
            on_chain = False
        assert on_chain == on_diagonal, q


# -- the bitsliced chain pass against the reference search ---------------------


def reference_holds_on_chain(f, n):
    """Whether ``f`` is valid in ``C_n``, by the reference search over
    ``[1, 2^(n-1)]``, whose members ``2^0 .. 2^(n-1)`` are that chain."""
    return reference_check_valid(Interval(1, 2 ** (n - 1)), f) is None


def holds_on_chain(f, names, n, block_bits=None):
    """The bitsliced verdict on ``C_n``, its blocks ``block_bits`` wide
    (the default when None); ``C_1`` is a one-member interval, which
    ``check_valid`` decides without a pass."""
    if n == 1:
        return check_valid(Interval(7, 7), f) is None
    with pytest.MonkeyPatch.context() as patch:
        if block_bits:
            patch.setattr("divlog.formulas._BLOCK_BITS", block_bits)
        _chain_slices.cache_clear()  # the tables are built for one width
        try:
            return _holds_on_chain(f, names, n)
        finally:
            _chain_slices.cache_clear()


chain_formulas = st.recursive(
    st.one_of(st.builds(Var, names), st.just(TOP), st.just(BOTTOM)),
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Imp, sub, sub),
    ),
    max_leaves=12,
)


# p -> (q -> p) is valid in every chain through an implication's lower
# thresholds, ``a -> b`` being ``b`` where ``a > b``: a pass that drops
# the ``| B_j`` of ``LE | B_j`` refutes it on C_3 and up
@pytest.mark.parametrize("text", [*LITERAL_FREE, "p -> (q -> p)"])
def test_the_bitsliced_chain_pass_matches_the_reference_on_the_corpora(text):
    """On every chain up to ``C_(k+3)``, at the default block width, and
    at widths of 1 and 8 bits, where leading variables iterate."""
    f = parse(text)
    names = sorted(variables(f))
    for n in range(1, len(names) + 4):
        expected = reference_holds_on_chain(f, n)
        for block_bits in (None, 1, 8):
            assert holds_on_chain(f, names, n, block_bits) == expected, (n, block_bits)


@given(chain_formulas)
def test_the_bitsliced_chain_pass_matches_the_reference(f):
    names = sorted(variables(f))
    for n in range(1, len(names) + 4):
        expected = reference_holds_on_chain(f, n)
        assert holds_on_chain(f, names, n) == expected == holds_on_chain(f, names, n, 8), n


# the Gödel-Dummett-valid schemas of the taut-mix benchmark workload
VALID_SCHEMAS = ["{a} -> ({b} -> {a})", "({a} & {b}) -> {a}", "{a} -> ({a} | {b})",
                 "({a} -> {b}) | ({b} -> {a})", "~~({a} | ~{a})", "(({a} -> {b}) & {a}) -> {b}"]
valid_formulas = st.builds(
    lambda schema, a, b: parse(schema.format(a=f"({format_formula(a)})", b=f"({format_formula(b)})")),
    st.sampled_from(VALID_SCHEMAS), chain_formulas, chain_formulas,
)


@given(valid_formulas)
def test_the_bitsliced_chain_pass_keeps_what_is_valid(f):
    """Valid on every chain, much of it through an implication's lower
    thresholds, where ``a -> b`` is ``b``: the drawn formulas above are
    rarely valid, so they would miss a pass that refuted these."""
    names = sorted(variables(f))
    for n in range(1, len(names) + 4):
        expected = reference_holds_on_chain(f, n)
        assert expected, n
        assert holds_on_chain(f, names, n) == expected == holds_on_chain(f, names, n, 8), n


def test_the_chain_pass_keeps_its_bitsets_to_a_block():
    """A 6-variable linearity cycle on ``C_8`` takes 8**6 = 262,144 chain
    assignments: two leading variables iterate over 64 blocks of 8**4
    bits.  A value is one int of 7 lanes of 4,096 bits, one per
    threshold.  One block of all of them would take 32 KB per
    threshold, and the six variables' 42 thresholds alone 1.3 MB."""
    names = [f"p{i}" for i in range(6)]
    f = parse(" | ".join(f"({a} -> {b})" for a, b in zip(names, names[1:] + names[:1])))
    q = Interval(1, 2**7)  # C_8
    leading, trailing, constants = _chain_slices(6, 8)[:3]
    assert leading == 2 and len(trailing) == 4 and len(constants) == 8
    assert all(value.bit_length() <= 7 * 4096 for value in [*trailing, *constants])
    _chain_slices.cache_clear()  # the table's build is measured too
    tracemalloc.start()
    try:
        assert check_valid(q, f, cap=8**6) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q._members is None and peak < 2**20, peak


def test_the_member_walk_keeps_its_values_to_a_bound():
    """``p -> p | 2`` is valid, so the member walk tries every member: on
    ``HUGE_GAPS[0]`` (4,092 members, G = 30) and on ``[1, 2^31 3^11 5^3
    7^2]`` (4,608 members, G = 31), each over four primes, 1,024 members
    a block, so a value is G lanes of 4,096 bits.  The first call keeps
    the variable's lanes over every member, one value per block, the
    walker's top and one byte per member and prime; past that, each
    call peaks below 7 values: one per variable, literal and level of
    the tree, and three more."""
    f = parse("p -> p | 2")
    for bounds in [(HUGE_GAPS[0].bottom, HUGE_GAPS[0].top), (1, 2**31 * 3**11 * 5**3 * 7**2)]:
        q = Interval(*bounds)
        q.members()
        chains = q._layer()
        value = chains.largest * 4096 // 8  # bytes
        bound = (1 + 1 + f.height + 3) * value
        for kept in [(math.ceil(q.size() / 1024) + 1) * value + len(chains.gaps) * q.size(), 0]:
            tracemalloc.start()
            try:
                assert check_valid(q, f, cap=q.size()) is None
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < kept + bound, (q, peak - kept, bound)
        leading, width = chains.slices[1][:2]
        assert leading == 0 and width == 1024 and len(chains.gaps) == 4


# -- parser heights against the constructors ------------------------------------


def assert_heights_match_the_constructors(f):
    """``parse`` builds connectives without their constructors: the tree
    rebuilt through them by a pickle round trip is equal, hashes alike
    and has the same height and size at every node."""
    built = pickle.loads(pickle.dumps(f))
    assert f == built and hash(f) == hash(built)
    pairs = [(f, built)]
    while pairs:
        node, twin = pairs.pop()
        assert (node.height, node.size) == (twin.height, twin.size), (node, twin)
        pairs += [(getattr(node, field), getattr(twin, field)) for field in type(node)._fields
                  if field in ("left", "right", "child")]


@pytest.mark.parametrize("text", [*NEGATION_HEAVY, *SEARCH_FORMULAS, *GODEL_DUMMETT, *BOUNDED_DEPTH])
def test_parsed_heights_match_the_constructors_on_the_corpora(text):
    assert_heights_match_the_constructors(parse(text))


@given(formulas)
def test_parsed_heights_match_the_constructors(f):
    assert_heights_match_the_constructors(parse(format_formula(f)))


@pytest.mark.parametrize("shape", sorted(NESTED_TOO))
def test_parsed_heights_up_to_the_bound_and_the_offset_past_it(shape):
    """Every tree of the shape within the bound has the constructors'
    heights, the tallest one MAX_DEPTH high; the first text past it is
    refused at the reference parser's offset."""
    tallest = 0
    for n in itertools.count():
        text = NESTED_TOO[shape](n)
        try:
            f = parse(text)
        except FormulaSyntaxError as err:
            with pytest.raises(FormulaSyntaxError) as expected:
                reference_parse(text)
            assert (str(err), err.position) == (str(expected.value), expected.value.position)
            break
        assert_heights_match_the_constructors(f)
        tallest = f.height
    assert tallest == (0 if shape == "parentheses" else MAX_DEPTH)
