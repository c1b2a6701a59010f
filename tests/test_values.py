"""Value semantics of the formula nodes, Counterexample and LawReport:
equal and hashed by their fields, printed by them, rebuilt by pickle
and deepcopy, and closed to assignment."""

import copy
import pickle

import pytest

from divlog import (
    BOTTOM,
    TOP,
    And,
    Bottom,
    Counterexample,
    Imp,
    LawReport,
    Lit,
    Not,
    Or,
    Top,
    Var,
    format_formula,
)
from divlog.errors import shown
from divlog.formulas import MAX_DEPTH

P, Q = Var("p"), Var("q")
HUGE = 10**5000  # past the interpreter's 4300-digit limit on int-to-str

# (value, an equal value built by keyword, an unequal value, its exact repr)
VALUES = [
    (Var("p"), Var(name="p"), Var("q"), "Var(name='p')"),
    (Lit(3), Lit(value=3), Lit(4), "Lit(value=3)"),
    (Top(), TOP, BOTTOM, "Top()"),
    (Bottom(), BOTTOM, TOP, "Bottom()"),
    (And(P, Q), And(left=P, right=Q), And(Q, P), "And(left=Var(name='p'), right=Var(name='q'))"),
    (Or(P, Q), Or(left=P, right=Q), Or(P, P), "Or(left=Var(name='p'), right=Var(name='q'))"),
    (Imp(P, Q), Imp(left=P, right=Q), Imp(Q, P), "Imp(left=Var(name='p'), right=Var(name='q'))"),
    (Not(P), Not(child=P), Not(Q), "Not(child=Var(name='p'))"),
    (
        Counterexample((("p", 2),), 2),
        Counterexample(assignment=(("p", 2),), value=2),
        Counterexample((("p", 2),), 1),
        "Counterexample(assignment=(('p', 2),), value=2)",
    ),
    (
        LawReport("law", {"max_value": 3}, 3),
        LawReport(law_name="law", parameters={"max_value": 3}, cases_checked=3,
                  counterexamples=(), skipped=()),
        LawReport("law", {"max_value": 3}, 3, counterexamples=({"a": 1},)),
        "LawReport(law_name='law', parameters={'max_value': 3}, cases_checked=3, "
        "counterexamples=(), skipped=())",
    ),
]
IDS = [type(value).__name__ for value, *_ in VALUES]


@pytest.mark.parametrize("value, same, other, text", VALUES, ids=IDS)
def test_equal_by_fields_and_printed_by_them(value, same, other, text):
    assert value == same and not value != same
    assert value != other and not value == other
    assert value != text and value != None  # noqa: E711
    assert repr(value) == repr(same) == text


@pytest.mark.parametrize("value, same, other, text", VALUES[:-1], ids=IDS[:-1])
def test_equal_values_hash_alike(value, same, other, text):
    assert hash(value) == hash(same)
    assert {value: 1}[same] == 1


def test_a_law_report_holds_a_dict_so_it_has_no_hash():
    with pytest.raises(TypeError):
        hash(LawReport("law", {"max_value": 3}, 3))


def test_connectives_of_equal_children_differ_by_class():
    assert And(P, Q) != Or(P, Q) != Imp(P, Q) != And(P, Q)
    assert Top() == TOP and Bottom() == BOTTOM and TOP != BOTTOM


@pytest.mark.parametrize("value, same, other, text", VALUES, ids=IDS)
def test_assignment_and_deletion_are_refused(value, same, other, text):
    for name in ("name", "value", "left", "child", "law_name", "height", "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, 4)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == same


def test_law_report_defaults_to_no_counterexamples_and_nothing_skipped():
    report = LawReport(law_name="law", parameters={}, cases_checked=0)
    assert (report.counterexamples, report.skipped, report.passed) == ((), (), True)


def _tallest():
    """A tree exactly MAX_DEPTH high that uses every node class."""
    tree, grow = Lit(3), [lambda t: And(t, P), lambda t: Or(TOP, t), lambda t: Imp(t, BOTTOM), Not]
    for height in range(MAX_DEPTH):
        tree = grow[height % 4](tree)
    return tree


@pytest.mark.parametrize("clone", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_a_tree_as_high_as_allowed_survives_pickle_and_deepcopy(clone):
    tree = _tallest()
    twin = clone(tree)
    assert twin == tree and twin is not tree and hash(twin) == hash(tree)
    assert twin.height == tree.height == MAX_DEPTH
    assert type(twin) is Not and twin.child.height == MAX_DEPTH - 1
    for value, *_ in VALUES:
        assert clone(value) == value and type(clone(value)) is type(value)


# -- an int past the digit limit prints by its size ---------------------------


def test_repr_shows_a_huge_literal_by_its_size():
    assert repr(Lit(HUGE)) == "Lit(value=<16610-bit integer>)"
    assert repr(Not(Lit(HUGE))) == "Not(child=Lit(value=<16610-bit integer>))"


def test_repr_shows_a_huge_counterexample_value_by_its_size():
    found = Counterexample(assignment=(("p", HUGE), ("q", 2)), value=HUGE)
    assert repr(found) == (
        "Counterexample(assignment=(('p', <16610-bit integer>), ('q', 2)), "
        "value=<16610-bit integer>)"
    )
    alone = Counterexample(assignment=(("p", HUGE),), value=2)
    assert repr(alone) == "Counterexample(assignment=(('p', <16610-bit integer>),), value=2)"


def test_repr_shows_a_huge_int_inside_report_parameters_by_its_size():
    report = LawReport("x", {"max_value": HUGE, "seen": [HUGE, 2], HUGE: (HUGE,)}, 1)
    assert repr(report) == (
        "LawReport(law_name='x', parameters={'max_value': <16610-bit integer>, "
        "'seen': [<16610-bit integer>, 2], <16610-bit integer>: (<16610-bit integer>,)}, "
        "cases_checked=1, counterexamples=(), skipped=())"
    )


def test_shown_re_raises_for_any_other_container_of_a_huge_int():
    with pytest.raises(ValueError):
        shown({HUGE})


def test_format_names_a_huge_literal_in_its_error():
    with pytest.raises(ValueError, match=r"^Lit\(value=<16610-bit integer>\) prints as"):
        format_formula(And(P, Lit(HUGE)))
