"""Term representation: substitution, alpha-equality, binder plumbing."""

import random
import sys

from lpm import kernel, signature
from lpm.terms import (
    TYPE,
    App,
    Const,
    FVar,
    KTerm,
    Lam,
    Pi,
    Var,
    app,
    arrow,
    free_fvars,
    instantiate,
    instantiate_many,
    shift,
    spine,
    substitute,
)
from lpm.dkparse import parse_term
from lpm.dkprint import print_term, uses_binder
from references import abstract, is_locally_closed, reference_instantiate


def test_substitute_single_variable():
    assert substitute(FVar("x"), {"x": Const("c")}) == Const("c")


def test_substitute_avoids_capture():
    # substituting x for y under a binder named x must not capture
    t = Lam("x", Const("A"), App(Var(0, "x"), FVar("y")))
    got = substitute(t, {"y": FVar("x")})
    expected = Lam("z", Const("A"), App(Var(0, "z"), FVar("x")))
    assert got == expected
    assert free_fvars(got) == {"x"}


def test_substitute_then_beta_step():
    # P t with P := (y : term bool => eq bool y y), t := true reduces in
    # one beta step to eq bool true true
    term_bool = App(Const("term"), Const("bool"))
    p_body = app(Const("eq"), Const("bool"), Var(0, "y"), Var(0, "y"))
    t = App(FVar("P"), FVar("t"))
    bound = substitute(t, {"P": Lam("y", term_bool, p_body), "t": Const("true")})
    fn, args = spine(bound)
    reduced = instantiate(fn.body, args[0])
    assert reduced == app(Const("eq"), Const("bool"), Const("true"), Const("true"))


def test_substitute_leaves_other_variables():
    t = app(Const("f"), FVar("x"), FVar("y"))
    assert substitute(t, {"x": Const("a")}) == app(Const("f"), Const("a"), FVar("y"))


def test_alpha_equality_ignores_display_names():
    a = Lam("x", Const("A"), Var(0, "x"))
    b = Lam("completely_different", Const("A"), Var(0, "whatever"))
    assert a == b
    assert hash(a) == hash(b)
    assert Pi("x", TYPE, Var(0)) == Pi("y", TYPE, Var(0))


def test_alpha_inequality_on_structure():
    assert Lam("x", Const("A"), Var(0)) != Lam("x", Const("B"), Var(0))
    assert Var(0) != Var(1)
    assert FVar("x") != Const("x")


def test_instantiate_only_hits_target_index():
    body = App(Var(0), Lam("y", TYPE, App(Var(0), Var(1))))
    got = instantiate(body, Const("c"))
    assert got == App(Const("c"), Lam("y", TYPE, App(Var(0), Const("c"))))


def test_abstract_inverts_instantiate():
    body = App(Var(0), Lam("y", TYPE, App(Var(0), Var(1))))
    assert abstract(instantiate(body, FVar("u")), "u") == body


def test_arrow_builand_uses_binder():
    t = arrow(Const("A"), Const("B"), Const("C"))
    assert t == Pi("", Const("A"), Pi("", Const("B"), Const("C")))
    assert not uses_binder(t.codomain)
    assert uses_binder(Var(0))


def _random_term(rng: random.Random, depth: int, scope: int) -> KTerm:
    choices = ["const", "fvar", "app", "lam", "pi"]
    if scope:
        choices.append("var")
    if depth <= 0:
        choices = ["const", "fvar"] + (["var"] if scope else [])
    kind = rng.choice(choices)
    if kind == "const":
        return Const(rng.choice("cdf"))
    if kind == "fvar":
        return FVar(rng.choice("xyz"))
    if kind == "var":
        return Var(rng.randrange(scope))
    if kind == "app":
        return App(_random_term(rng, depth - 1, scope), _random_term(rng, depth - 1, scope))
    if kind == "lam":
        return Lam("b", _random_term(rng, depth - 1, scope), _random_term(rng, depth - 1, scope + 1))
    return Pi("b", _random_term(rng, depth - 1, scope), _random_term(rng, depth - 1, scope + 1))


def random_terms(seed: int, count: int, depth: int = 4, closed: bool = True):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        t = _random_term(rng, depth, 0)
        if not closed or is_locally_closed(t):
            out.append(t)
    return out


def test_open_close_round_trip_random():
    for i, t in enumerate(random_terms(seed=7, count=200)):
        body = abstract(t, "x")
        assert instantiate(body, FVar("x")) == t, i


def test_substitution_composition_random():
    # substituting u then v equals substituting the composed map when the
    # two maps touch disjoint variables
    for t in random_terms(seed=11, count=200):
        one = substitute(substitute(t, {"x": Const("c")}), {"y": Const("d")})
        both = substitute(t, {"x": Const("c"), "y": Const("d")})
        assert one == both


def test_locally_closed_random():
    for t in random_terms(seed=13, count=100):
        assert is_locally_closed(t)
        assert not is_locally_closed(App(t, Var(5)))


# -- cached per-node data -------------------------------------------------


def _reference_data(t: KTerm) -> tuple[int, bool, bool]:
    """(lbr, has_fvar, has_bare_const) by a plain recursive walk."""
    match t:
        case Var(index=i):
            return i + 1, False, False
        case FVar():
            return 0, True, False
        case Const(name=n):
            return 0, False, "." not in n
        case App(fn=f, arg=a):
            (lf, ff, cf), (la, fa, ca) = _reference_data(f), _reference_data(a)
            return max(lf, la), ff or fa, cf or ca
        case Lam(annot=ty, body=b) | Pi(domain=ty, codomain=b):
            (lt, ft, ct), (lb, fb, cb) = _reference_data(ty), _reference_data(b)
            return max(lt, lb - 1, 0), ft or fb, ct or cb
        case _:
            return 0, False, False


def _cached_data(t: KTerm) -> tuple[int, bool, bool]:
    return t.lbr, t.has_fvar, t.has_bare_const


def test_cached_data_matches_reference_random():
    rng = random.Random(17)
    closed = random_terms(seed=19, count=150, closed=False)
    # the generator keeps indices in scope; start it under binders for open terms
    opened = [_random_term(rng, 4, 3) for _ in range(150)] + [Const("m.c"), Var(2), TYPE]
    images = []
    for t in closed + opened:
        images += [
            instantiate(t, Const("k")),
            instantiate(t, App(FVar("x"), Const("q.d")), 1),
            abstract(t, "x"),
            abstract(t, "y", 2),
            substitute(t, {"x": Const("c"), "z": Lam("w", TYPE, Var(0))}),
        ]
    terms = closed + opened + images
    for t in terms:
        assert _cached_data(t) == _reference_data(t), t
        assert is_locally_closed(t) == (_reference_data(t)[0] == 0)
    # equal terms hash alike; compare neighbours so equal pairs occur
    pairs = list(zip(terms, terms[1:])) + [(t, abstract(instantiate(t, FVar("v#0")), "v#0")) for t in closed]
    assert any(a == b and a is not b for a, b in pairs)
    for a, b in pairs:
        if a == b:
            assert hash(a) == hash(b), (a, b)


def test_unaffected_subtrees_are_returned_as_is():
    for t in random_terms(seed=23, count=100):
        assert is_locally_closed(t)
        assert instantiate(t, Const("c")) is t
        assert uses_binder(t) is False
        if not free_fvars(t):
            assert abstract(t, "u") is t
            assert substitute(t, {"x": Const("c"), "u": Const("d")}) is t
    body = Lam("y", Const("A"), app(Const("f"), Var(1), Var(0)))
    assert body.lbr == 1 and body.annot.lbr == 0
    opened = instantiate(body, Const("c"))
    assert opened.annot is body.annot
    assert abstract(opened, "u") is opened


def test_instantiate_many_is_a_fold_of_single_instantiations_random():
    # m values, outermost binder first, given outside the m binders, which
    # sit `depth` binders up from the body; the values have loose indices
    rng = random.Random(29)
    checked = 0
    for _ in range(600):
        m, depth = rng.randrange(5), rng.randrange(3)
        body = _random_term(rng, 4, depth + m + 2)
        values = [_random_term(rng, 2, 3) for _ in range(m)]
        expected = body
        for j, v in enumerate(values):
            expected = reference_instantiate(expected, v, depth + m - 1 - j)
        got = instantiate_many(body, values, depth)
        assert got == expected, (body, values, depth)
        assert _cached_data(got) == _reference_data(got)
        assert repr(got) == repr(expected)  # display names too
        if m == 1:
            assert instantiate(body, values[0], depth) == expected
        if body.lbr <= depth or not m:
            assert got is body
        checked += any(v.lbr for v in values) and body.lbr > depth + 1
    assert checked > 100


def test_deep_terms_without_recursion():
    # a 50000-deep application spine and binder nest; at the interpreter's
    # default recursion limit none of these four may recurse per node
    spine_t = Const("f")
    nest = Const("a")
    for _ in range(50_000):
        spine_t = App(spine_t, Const("a"))
        nest = Lam("x", TYPE, nest)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        results = [
            (hash(t), is_locally_closed(t), instantiate(t, Const("c")) is t, abstract(t, "u") is t)
            for t in (spine_t, nest)
        ]
    except RecursionError:
        results = None
    finally:
        sys.setrecursionlimit(limit)
    assert results is not None, "a walk recursed once per node"
    assert all(closed and same_i and same_a for _, closed, same_i, same_a in results)


def test_deep_equality_without_recursion():
    # equal and leaf-different 50000-deep spines and binder nests compare
    # at the default recursion limit
    def spine_of(leaf):
        t = Const("f")
        for i in range(50_000):
            t = App(t, leaf if i == 0 else Const("a"))
        return t

    def nest_of(leaf):
        t = leaf
        for _ in range(50_000):
            t = Lam("x", TYPE, t)
        return t

    pairs = [(make(Const("a")), make(Const("a")), make(Const("b"))) for make in (spine_of, nest_of)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        results = [(a == b, a == c, a != c) for a, b, c in pairs]
    except RecursionError:
        results = None
    finally:
        sys.setrecursionlimit(limit)
    assert results == [(True, False, True)] * 2



def test_deep_repr_without_recursion():
    # the repr of a 50000-deep application tower, at the default recursion limit
    tower = Const("a")
    for _ in range(50_000):
        tower = App(Const("f"), tower)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        text = repr(tower)
    except RecursionError:
        text = None
    finally:
        sys.setrecursionlimit(limit)
    assert text == "App(fn=Const(name='f'), arg=" * 50_000 + "Const(name='a')" + ")" * 50_000

# -- terms with loose indices ---------------------------------------------


def _open_terms(seed: int, count: int, scope: int = 3) -> list[KTerm]:
    """Random terms whose indices may escape up to `scope` binders."""
    rng = random.Random(seed)
    return [_random_term(rng, 4, scope) for _ in range(count)]


def test_shift_then_instantiate_is_identity_random():
    # index 0 is free after the shift, so instantiating it changes nothing
    # but lowers the shifted indices back
    values = _open_terms(31, 20)
    for i, t in enumerate(_open_terms(29, 300)):
        assert instantiate(shift(t, 1), values[i % 20]) == t, t


def test_shifts_compose_random():
    for i, t in enumerate(_open_terms(37, 300)):
        a, b = i % 3, (i // 3) % 4
        assert shift(shift(t, a), b) == shift(t, a + b), t
        assert shift(shift(t, a, 1), b, 1) == shift(t, a + b, 1), t


def test_shift_returns_closed_terms_as_is_random():
    for t in random_terms(seed=41, count=100):
        assert t.lbr == 0
        assert shift(t, 3) is t
    for t in _open_terms(43, 100):
        assert shift(t, 2, t.lbr) is t


def test_instantiate_shifts_an_open_value_under_binders():
    # the value refers to the binder outside the instantiated one; under
    # the lambda that binder is one index further away
    body = Lam("y", Const("A"), App(Var(1), Var(0)))
    assert instantiate(body, Var(0)) == Lam("y", Const("A"), App(Var(1), Var(0)))
    assert instantiate(body, App(Const("f"), Var(2))) == Lam("y", Const("A"), App(App(Const("f"), Var(3)), Var(0)))
    # indices past the instantiated binder move down by one
    assert instantiate(App(Var(0), Var(2)), Const("c")) == App(Const("c"), Var(1))


def test_substitute_shifts_an_open_value_under_binders():
    t = Lam("y", Const("A"), App(FVar("x"), Var(0)))
    assert substitute(t, {"x": Var(0)}) == Lam("y", Const("A"), App(Var(1), Var(0)))
    assert substitute(FVar("x"), {"x": Var(0)}) == Var(0)


def test_substitute_agrees_with_instantiate_random():
    # substituting x by v is abstracting x over a fresh index 0 and
    # instantiating that index by v
    values = _open_terms(53, 20)
    for i, t in enumerate(_open_terms(47, 300)):
        v = values[i % 20]
        assert substitute(t, {"x": v}) == instantiate(abstract(shift(t, 1), "x"), v), (t, v)


def test_arrow_of_open_components_matches_the_parser_random():
    # each component is written in the context of the whole product: the
    # parser resolves it under the anonymous binders before it
    rng = random.Random(59)
    scope = ("u", "v")
    for _ in range(100):
        parts = [_random_term(rng, 3, 2) for _ in range(rng.randrange(1, 5))]
        text = " -> ".join(f"({print_term(p, scope)})" for p in parts)
        parsed = parse_term(f"u : A -> v : A -> {text}", ("x", "y", "z"))
        assert parsed == Pi("u", Const("A"), Pi("v", Const("A"), arrow(*parts))), text


# ---------------------------------------------------------------------------
# `==` on forged hash collisions: two different terms of one class whose
# `_hash` slots are made equal must still differ, and so must their
# conversion when both are normal forms


def _collide(a: KTerm, b: KTerm) -> KTerm:
    b._hash = a._hash
    return b


def _differ(a: KTerm, b: KTerm) -> None:
    assert a.__class__ is b.__class__ and hash(a) == hash(b)
    assert a != b and b != a
    assert not kernel.convertible(signature.EMPTY, a, b)


def test_unequal_leaves_with_equal_hashes_are_unequal_under_an_app():
    f = Const("f")
    for x, y in ((Const("a"), Const("b")), (Var(0), Var(1)), (FVar("x"), FVar("y"))):
        assert x != _collide(x, y)
        if x.__class__ is Var:  # both are typed under a binder
            x, y = Lam("x", Const("A"), Lam("y", Const("A"), x)), Lam("x", Const("A"), Lam("y", Const("A"), y))
        _differ(App(f, x), App(f, y))


def test_a_different_child_at_each_position_with_equal_hashes():
    a, c = Const("A"), Const("c")
    for make in (App, lambda u, v: Lam("x", u, v), lambda u, v: Pi("x", u, v)):
        for left, right in (
            ((a, c), (Const("B"), c)),  # position 0, another hash
            ((a, c), (a, Const("d"))),  # position 1, another hash
            ((a, c), (Var(0), c)),  # position 0, another class
            ((a, c), (a, Var(0))),  # position 1, another class
        ):
            x, y = make(*left), make(*right)
            if x.lbr or y.lbr:  # Var(0) is bound by an outer binder
                x, y = Lam("z", a, x), Lam("z", a, y)
                _collide(x.body, y.body)
            _differ(x, _collide(x, y))


def test_a_deep_pair_that_differs_only_at_its_last_leaf():
    x, y = Const("a"), _collide(Const("a"), Const("b"))
    for i in range(1200):  # past the recursion limit; an App, a Lam and a Pi per three levels, all normal
        if i % 3 == 0:
            x, y = App(Const("f"), x), App(Const("f"), y)
        else:
            make = Lam if i % 3 == 1 else Pi
            x, y = make("x", Const("A"), x), make("x", Const("A"), y)
    _differ(x, y)
