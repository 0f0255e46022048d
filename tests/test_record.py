"""The record contract of every syntax class: construction, `==`, hash,
`__match_args__` and `repr`, each as a frozen dataclass with the same
fields gives them."""

import dataclasses
import sys

import pytest

from lpm import dkparse, llproof, tff
from lpm.record import Record, replace, values

ENTRIES = (dkparse.Decl, dkparse.Def, dkparse.Rule, dkparse.AssertType, dkparse.Comment)
CLASSES = tuple(dict.fromkeys(
    [row.cls for row in tff.CONNECTIVES + tff.ITEMS] + [row.cls for row in llproof.RULES]
    + [llproof.LLProof, *ENTRIES]
    + [tff.TVar, tff.TCons, tff.Var, tff.Fun, tff.TffTheory, tff.TffContext, llproof.AbsArg]))
# fields that `==` skips
LOOSE = {cls: ("line", "col") for cls in ENTRIES}


def _values(cls):
    """Distinct values for the fields of `cls`, rebuilt on every call, so
    two calls give equal but not identical values."""
    return tuple((f, (i,)) for i, f in enumerate(cls.__match_args__))


def _twin(cls):
    """A frozen dataclass with the fields of `cls`, compared and shown alike."""
    spec = [(f, object, dataclasses.field(compare=f not in LOOSE.get(cls, ()))) for f in cls.__match_args__]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def test_every_syntax_class_is_a_record():
    assert len(CLASSES) == len(tff.CONNECTIVES) + len(tff.ITEMS) + len(llproof.RULES) + 1 + len(ENTRIES) + 7
    assert all(issubclass(cls, Record) for cls in CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: f"{c.__module__}.{c.__name__}")
def test_record_contract(cls):
    names = cls.__match_args__
    assert names == tuple(cls.__annotations__)
    a, b = cls(*_values(cls)), cls(*_values(cls))
    assert a == b and hash(a) == hash(b) and not a != b
    assert cls(**dict(zip(names, _values(cls)))) == a
    assert values(a) == _values(cls) and all(getattr(a, f) == v for f, v in zip(names, _values(cls)))
    twin = _twin(cls)(*_values(cls))
    assert repr(a) == repr(twin)
    for f in names:
        changed = replace(a, **{f: "other"})
        assert getattr(changed, f) == "other"
        assert (changed == a) == (dataclasses.replace(twin, **{f: "other"}) == twin)
        assert (changed == a) == (hash(changed) == hash(a))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: f"{c.__module__}.{c.__name__}")
def test_records_of_different_classes_with_equal_fields_differ(cls):
    x = cls(*_values(cls))
    for other in CLASSES:
        if other is not cls and len(other.__match_args__) == len(cls.__match_args__):
            assert x != other(*_values(cls))


def test_fields_of_equal_names_in_sibling_classes_still_differ():
    p, q = tff.Pred("p"), tff.Pred("q")
    assert tff.And(p, q) != tff.Or(p, q)
    assert llproof.And(p, q) != llproof.Or(p, q)
    assert tff.And(p, q) != llproof.And(p, q)
    assert dkparse.Decl("a", dkparse.parse_term("Type")) != dkparse.AssertType("a", dkparse.parse_term("Type"))


def test_loose_fields_are_not_compared():
    ty = dkparse.parse_term("Type")
    assert dkparse.Decl("a", ty, 1, 2) == dkparse.Decl("a", ty, 3, 4)
    assert hash(dkparse.Decl("a", ty, 1, 2)) == hash(dkparse.Decl("a", ty))
    assert repr(dkparse.Comment("c", 3, 4)) == "Comment(text='c', line=3, col=4)"


def test_defaults_and_argument_errors():
    assert tff.Pred("p") == tff.Pred("p", (), ()) == tff.Pred(name="p", args=())
    assert tff.TCons("c").args == () and tff.TffContext().vars == ()
    assert dkparse.Def("d", dkparse.parse_term("Type"), dkparse.parse_term("Type")).line == 0
    with pytest.raises(TypeError):
        tff.And(tff.Top())
    with pytest.raises(TypeError):
        tff.Not(tff.Top(), tff.Top())
    with pytest.raises(TypeError):
        tff.Not(tff.Top(), body=tff.Top())
    with pytest.raises(TypeError):
        tff.Not(phi=tff.Top())
    with pytest.raises(TypeError):
        replace(tff.Not(tff.Top()), phi=tff.Top())


def test_positional_patterns_follow_the_fields():
    match tff.Forall("x", tff.TVar("a"), tff.Top()):
        case tff.Forall(var, ty, body):
            assert (var, ty, body) == ("x", tff.TVar("a"), tff.Top())
    match dkparse.Decl("c", dkparse.parse_term("Type"), 5, 6):
        case dkparse.Decl(name, _, line):
            assert (name, line) == ("c", 5)


def test_hash_is_cached_at_construction():
    phi = tff.Top()
    for _ in range(5000):
        phi = tff.Not(tff.And(phi, tff.Pred("p")))
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)  # far below the tree's depth of 10,000
    try:
        assert hash(phi) == hash(phi)
        assert {phi: 1}[phi] == 1
    finally:
        sys.setrecursionlimit(limit)


def test_verdict_is_an_unhashable_record():
    v = llproof.Verdict(True, entries=[dkparse.Comment("c")])
    assert v and not llproof.Verdict(False, error="no")
    assert v == llproof.Verdict(True, None, None, [dkparse.Comment("c")])
    assert repr(llproof.Verdict(False, "no")) == "Verdict(accepted=False, error='no', path=None, entries=())"
    with pytest.raises(TypeError):
        hash(v)
