"""Kernel operations: matching, reduction, conversion, typing."""

import random
import sys

import pytest

from bool_oracle import ANDB, NOTB, ORB, enumerate_terms, exhaustive_nf, from_kterm, to_kterm
from references import match_pattern
from lpm import embed, examples, kernel, signature
from lpm.dkparse import Decl, Rule, parse_file, parse_term
from lpm.kernel import Fuel
from lpm.terms import (
    KIND,
    TYPE,
    App,
    Const,
    FVar,
    Lam,
    Pi,
    Var,
    app,
    arrow,
    spine,
    substitute,
)


def T(text, delta=()):
    return parse_term(text, delta)


# ---------------------------------------------------------------------------
# match_pattern


def test_match_projection_pattern(pair_sig):
    lhs = T("pairs.fst (pairs.pair x y)", ("x", "y"))
    subject = T("pairs.fst (pairs.pair pairs.a pairs.a)")
    assert match_pattern(lhs, ("x", "y"), subject) == {
        "x": Const("pairs.a"),
        "y": Const("pairs.a"),
    }


def test_match_binds_whole_subterm():
    lhs = T("bool.andb bool.true a", ("a",))
    subject = T("bool.andb bool.true (bool.orb bool.false c)")
    assert match_pattern(lhs, ("a",), subject) == {"a": T("bool.orb bool.false c")}


def test_match_nonlinear_requires_equal_subterms():
    lhs = T("bool.andb a a", ("a",))
    assert match_pattern(lhs, ("a",), T("bool.andb bool.true bool.false")) is None
    assert match_pattern(lhs, ("a",), T("bool.andb c c")) == {"a": Const("c")}


def test_match_soundness_random():
    # whenever matching succeeds, substituting back gives the subject
    rng = random.Random(42)
    terms = enumerate_terms(7)
    pool = [t for size in range(3, 8) for t in terms[size]]
    entries = [e for e in embed.theory_entries(examples.bool_theory()) if isinstance(e, Rule)]
    rules = [r for head in ("bool.andb", "bool.orb", "bool.notb") for r in entries if spine(r.lhs)[0].name == head]
    hits = 0
    for _ in range(3000):
        subject = to_kterm(rng.choice(pool))
        rule = rng.choice(rules)
        got = match_pattern(rule.lhs, [n for n, _ in rule.ctx], subject)
        if got is not None:
            hits += 1
            assert substitute(rule.lhs, got) == subject
    assert hits > 50


# ---------------------------------------------------------------------------
# whnf


def test_whnf_beta_step(bool_sig):
    t = App(Lam("x", T("logic.term bool.bool"), Var(0)), Const("bool.true"))
    assert kernel.whnf(bool_sig, t) == Const("bool.true")


def test_whnf_unfolds_conjunction(logic_shallow):
    got = kernel.whnf(logic_shallow, T("logic.prf (logic.and A B)", ("A", "B")))
    expected = T("Z : logic.Prop -> (logic.prf A -> logic.prf B -> logic.prf Z) -> logic.prf Z", ("A", "B"))
    assert got == expected


def test_whnf_double_negation(bool_sig):
    # both reduction orders collapse ~(~true) to true; the head-first
    # strategy must agree with the exhaustive oracle
    t = ("n", ("n", ("T",)))
    assert from_kterm(kernel.whnf(bool_sig, to_kterm(t))) == exhaustive_nf(t)


def test_whnf_stops_at_stuck_head(bool_sig):
    t = T("bool.andb c bool.true")
    # head rule a && true fires even though c is opaque
    assert kernel.whnf(bool_sig, t) == Const("c")
    stuck = T("bool.andb c d")
    assert kernel.whnf(bool_sig, stuck) == stuck


def test_whnf_fuel_exhaustion():
    sig = signature.install_entries(signature.EMPTY, [Decl("b", TYPE), Decl("c", Const("b"))])
    sig = signature.install_entries(sig, [Rule((), Const("c"), Const("c"))])
    with pytest.raises(kernel.FuelExhausted):
        kernel.whnf(sig, Const("c"), Fuel(max_rewrite_steps=50))


def test_a_negative_budget_is_refused():
    with pytest.raises(ValueError, match="the fuel budget must be nonnegative"):
        Fuel(-1)


def test_a_loose_index_outside_any_binder_is_unbound():
    with pytest.raises(kernel.UnboundIdentifier) as e:
        kernel.infer(signature.EMPTY, {}, Var(0))
    assert str(e.value) == "unbound identifier: #0"


def test_an_argument_no_pattern_reads_is_never_reduced():
    # g's rule reads only its second argument: whnf of `g omega b` leaves
    # the diverging omega as it is and spends no fuel
    sig = signature.install_entries(signature.EMPTY, parse_file(
        "A : Type. a : A. b : A. omega : A. [] omega --> omega. g : A -> A -> A. [x : A] g x a --> x."))
    t = T("g omega b")
    fuel = Fuel(1000)
    assert kernel.whnf(sig, t, fuel) == t and fuel.steps_left == 1000
    with pytest.raises(kernel.FuelExhausted):  # normalizing it still reduces omega
        kernel.normalize(sig, t, fuel)


# ---------------------------------------------------------------------------
# normalize


def test_normalize_projections_give_reflexive_equation(pair_sig):
    goal = T("logic.eq pairs.elem (pairs.fst (pairs.pair pairs.a pairs.a)) (pairs.snd (pairs.pair pairs.a pairs.a))")
    assert kernel.normalize(pair_sig, goal) == T("logic.eq pairs.elem pairs.a pairs.a")


def test_normalize_variable_fixed_point(bool_sig):
    assert kernel.normalize(bool_sig, FVar("x")) == FVar("x")


def test_normalize_reassociates(bool_sig):
    t = T("bool.andb a (bool.andb b c)", ("a", "b", "c"))
    assert kernel.normalize(bool_sig, t) == T("bool.andb (bool.andb a b) c", ("a", "b", "c"))


def test_normalize_under_binders(logic_shallow):
    # the negation unfolds, and so does the prf False it exposes
    t = T("x : logic.Prop => logic.prf (logic.not x)")
    nf = kernel.normalize(logic_shallow, t)
    assert nf == T("x : logic.Prop => logic.prf x -> Z : logic.Prop -> logic.prf Z")


def test_normalize_unsticks_head_after_arg_reduction(bool_sig):
    # (~true) && x is head-stuck until the argument reduces to false
    t = T("bool.andb (bool.notb bool.true) x", ("x",))
    assert kernel.normalize(bool_sig, t) == Const("bool.false")


def _open_terms(count, seed):
    """Seeded open boolean terms: ground shapes with some leaves replaced
    by the free variables x and y."""
    rng = random.Random(seed)
    terms = enumerate_terms(7)
    pool = [t for size in range(1, 8) for t in terms[size]]

    def open_term(t):
        if t[0] == "n":
            return App(NOTB, open_term(t[1]))
        if t[0] in "ao":
            return app(ANDB if t[0] == "a" else ORB, open_term(t[1]), open_term(t[2]))
        return FVar(rng.choice("xy")) if rng.random() < 0.4 else to_kterm(t)

    return [open_term(rng.choice(pool)) for _ in range(count)]


def test_whnf_head_is_final(bool_sig):
    # no reduction inside the arguments can change the head whnf returns
    for t in [T("bool.andb (bool.notb bool.true) x", ("x",))] + _open_terms(400, 5):
        fuel = Fuel(10**7)
        w_head, w_args = spine(kernel.whnf(bool_sig, t, fuel))
        n_head, n_args = spine(kernel.normalize(bool_sig, t, fuel))
        assert (w_head, len(w_args)) == (n_head, len(n_args)), t


def test_convertible_agrees_with_normal_forms(bool_sig):
    rng = random.Random(11)
    terms = _open_terms(200, 7)
    nfs = [kernel.normalize(bool_sig, t, Fuel(10**7)) for t in terms]
    pairs = [(rng.randrange(200), rng.randrange(200)) for _ in range(300)]
    pairs += [(i, j) for i in range(200) for j in range(i + 1, 200) if nfs[i] == nfs[j]][:300]
    outcomes = set()
    for i, j in pairs:
        conv = kernel.convertible(bool_sig, terms[i], terms[j], Fuel(10**7))
        assert conv == (nfs[i] == nfs[j]), (terms[i], terms[j])
        outcomes.add(conv)
    assert outcomes == {True, False}


@pytest.mark.parametrize("n", [16, 64])
def test_normalize_stuck_tower_is_linear(bool_sig, monkeypatch, n):
    # a left-nested andb tower over n distinct variables is normal; each
    # level is reduced once, so normalizing it costs 2n - 1 whnf calls
    t = FVar("x0")
    for i in range(1, n):
        t = app(ANDB, t, FVar(f"x{i}"))
    calls = 0
    whnf = kernel.whnf

    def counted(*args):
        nonlocal calls
        calls += 1
        return whnf(*args)

    monkeypatch.setattr(kernel, "whnf", counted)
    assert kernel.normalize(bool_sig, t) == t
    assert calls == 2 * n - 1


def test_nonlinear_rule_fires_on_normal_forms():
    # the repeated variable x is compared on the arguments as given, which
    # differ, and then on their normal forms, which are equal
    text = """T : Type. c : T. P : T -> Type. f : T -> T -> Type.
    [x : T] f x x --> y : T -> P y.
    h : f ((z : T => z) c) c.
    #ASSERT (h c) : P c.
    """
    sig = signature.install_entries(signature.EMPTY, parse_file(text))
    assert list(sig._types) == ["T", "c", "P", "f", "h"]
    assert len(sig.rules_for("f")) == 1


def test_normalize_idempotent_random(bool_sig):
    rng = random.Random(3)
    terms = enumerate_terms(9)
    pool = [t for size in range(1, 10) for t in terms[size]]
    for t in rng.sample(pool, 400):
        nf = kernel.normalize(bool_sig, to_kterm(t))
        assert kernel.normalize(bool_sig, nf) == nf


def test_normalize_matches_exhaustive_oracle_small(bool_sig):
    # full agreement with the all-rewrite-sequences oracle on every term
    # that the oracle can exhaust comfortably; the acceptance suite
    # extends this check to size 12 with fixed-strategy oracles
    terms = enumerate_terms(6)
    fuel = Fuel(10**9)
    for size in range(1, 7):
        for t in terms[size]:
            assert from_kterm(kernel.normalize(bool_sig, to_kterm(t), fuel)) == exhaustive_nf(t)


# ---------------------------------------------------------------------------
# convertible


def test_convertible_reflexive(bool_sig):
    t = T("bool.andb c d")
    assert kernel.convertible(bool_sig, t, t)


def test_convertible_projection_example(pair_sig):
    lhs = T("logic.eq pairs.elem (pairs.fst (pairs.pair pairs.a pairs.a)) (pairs.snd (pairs.pair pairs.a pairs.a))")
    rhs = T("logic.eq pairs.elem pairs.a pairs.a")
    assert kernel.convertible(pair_sig, lhs, rhs)


def test_convertible_eta_off_by_default(bool_sig):
    lam = Lam("x", T("logic.term bool.bool"), App(FVar("f"), Var(0)))
    assert not kernel.convertible(bool_sig, lam, FVar("f"))
    assert kernel.convertible(bool_sig.with_eta(), lam, FVar("f"))


@pytest.mark.parametrize("eta", [False, True])
def test_convertible_compares_binders_of_one_kind(bool_sig, eta):
    # an abstraction and a product are never convertible, even with the
    # same parts; two of one kind compare their parts under the binder
    sig = bool_sig.with_eta(eta)
    dom = T("logic.term bool.bool")
    other_dom = T("logic.term bool.bool -> logic.term bool.bool")
    body = App(Lam("y", dom, Var(0)), Var(0))  # beta-reduces to the bound variable
    for former in (Lam, Pi):
        assert kernel.convertible(sig, former("x", dom, body), former("z", dom, Var(0)))
        assert not kernel.convertible(sig, former("x", dom, body), former("x", other_dom, Var(0)))
    assert not kernel.convertible(sig, Lam("x", dom, Var(0)), Pi("x", dom, Var(0)))
    assert not kernel.convertible(sig, Pi("x", dom, Var(0)), Lam("x", dom, Var(0)))


def test_convertible_through_stuck_heads(bool_sig):
    # same stuck head, non-convertible argument pairs, convertible wholes
    a = T("bool.andb (bool.notb bool.true) bool.true")
    b = T("bool.andb (bool.notb bool.false) bool.false")
    assert kernel.convertible(bool_sig, a, b)  # both reduce to false
    assert not kernel.convertible(bool_sig, T("bool.notb bool.true"), T("bool.notb bool.false"))


def test_convertible_equivalence_properties(bool_sig):
    rng = random.Random(17)
    terms = enumerate_terms(7)
    pool = [to_kterm(t) for size in range(1, 8) for t in terms[size]]
    sample = rng.sample(pool, 60)
    for t in sample:
        assert kernel.convertible(bool_sig, t, t)
    for _ in range(300):
        a, b, c = rng.choice(sample), rng.choice(sample), rng.choice(sample)
        ab = kernel.convertible(bool_sig, a, b)
        assert ab == kernel.convertible(bool_sig, b, a)
        if ab and kernel.convertible(bool_sig, b, c):
            assert kernel.convertible(bool_sig, a, c)


def test_conversion_has_no_depth_budget(bool_sig):
    # conversion is one loop over the pairs it compares: its verdict does
    # not depend on how deep they are, and no depth recurses
    def tower(leaf, n, head, *rest):
        for _ in range(n):
            leaf = app(head, leaf, *rest)
        return leaf

    andb, d, f = Const("bool.andb"), Const("d"), Const("f")  # no rule has the head f
    c_tower, e_tower = tower(Const("c"), 40, andb, d), tower(Const("e"), 40, andb, d)
    for budget in (0, 10, 10**6):
        assert not kernel.convertible(bool_sig, c_tower, e_tower, Fuel(budget))
    deep_c, deep_d = tower(Const("c"), 50_000, f), tower(d, 50_000, f)
    deep_redex = tower(App(Lam("x", Const("A"), Var(0)), Const("c")), 50_000, f)  # every level is compared
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        verdicts = kernel.convertible(bool_sig, deep_c, deep_d), kernel.convertible(bool_sig, deep_c, deep_redex)
    except RecursionError:
        pytest.fail("conversion recursed on 50,000-deep terms", pytrace=False)  # their repr would recurse too
    finally:
        sys.setrecursionlimit(limit)
    assert verdicts == (False, True)


# ---------------------------------------------------------------------------
# infer / check


def test_infer_type_is_kind(bool_sig):
    assert kernel.infer(bool_sig, {}, TYPE) == KIND


def test_infer_kind_untypable(bool_sig):
    with pytest.raises(kernel.UntypableKind):
        kernel.infer(bool_sig, {}, KIND)


def test_infer_prf_type(logic_shallow):
    assert kernel.infer(logic_shallow, {}, Const("logic.prf")) == arrow(Const("logic.Prop"), TYPE)


def test_infer_context_lookup(bool_sig):
    ctx = {"x": T("logic.term bool.bool")}
    assert kernel.infer(bool_sig, ctx, FVar("x")) == T("logic.term bool.bool")


def test_infer_unbound(bool_sig):
    with pytest.raises(kernel.UnboundIdentifier):
        kernel.infer(bool_sig, {}, FVar("nope"))
    with pytest.raises(kernel.UnboundIdentifier):
        kernel.infer(bool_sig, {}, Const("bool.nope"))


def test_infer_application_and_product(bool_sig):
    t = T("x : logic.term bool.bool => bool.andb x x")
    assert kernel.infer(bool_sig, {}, t) == T("logic.term bool.bool -> logic.term bool.bool")
    with pytest.raises(kernel.NotAFunction):
        kernel.infer(bool_sig, {}, App(Const("bool.true"), Const("bool.true")))


def test_infer_sort_errors(bool_sig):
    # lambda over a kind-level domain is outside the calculus
    with pytest.raises(kernel.SortError):
        kernel.infer(bool_sig, {}, Lam("x", TYPE, Var(0)))
    with pytest.raises(kernel.SortError):
        kernel.infer(bool_sig, {}, Pi("x", Const("bool.true"), TYPE))


def test_check_top_identity(logic_shallow):
    t = T("Z : logic.Prop => h : logic.prf Z => h")
    kernel.check(logic_shallow, {}, t, T("logic.prf logic.True"))


def test_check_true_against_bool(bool_sig):
    kernel.check(bool_sig, {}, Const("bool.true"), T("logic.term bool.bool"))


def test_check_sort_confusion(bool_sig):
    with pytest.raises(kernel.TypeMismatch) as e:
        kernel.check(bool_sig, {}, Const("bool.true"), Const("logic.Prop"))
    assert e.value.expected == Const("logic.Prop")


def test_mismatch_message_shows_no_fresh_names(bool_sig):
    # bool.ifte's type was built by opening binders with fresh names; the
    # message prints binder names as the `.dk` printer does
    with pytest.raises(kernel.TypeMismatch) as e:
        kernel.check(bool_sig, {}, Const("bool.ifte"), Const("bool.bool"))
    assert "#" not in str(e.value)
    assert "found al : logic.type -> " in str(e.value)


def test_subject_reduction_spot_check(bool_sig):
    # one reduction step preserves the inferred type
    rng = random.Random(23)
    terms = enumerate_terms(8)
    pool = [t for size in range(2, 9) for t in terms[size]]
    from bool_oracle import one_steps

    checked = 0
    for t in rng.sample(pool, 200):
        steps = one_steps(t)
        if not steps:
            continue
        kt = to_kterm(t)
        ty = kernel.infer(bool_sig, {}, kt)
        kernel.check(bool_sig, {}, to_kterm(rng.choice(steps)), ty)
        checked += 1
    assert checked > 100


def test_alpha_irrelevance_of_operations(bool_sig):
    a = T("x : logic.term bool.bool => bool.andb x bool.true")
    b = Lam("renamed", T("logic.term bool.bool"), app(Const("bool.andb"), Var(0, "other"), Const("bool.true")))
    assert a == b
    assert kernel.infer(bool_sig, {}, a) == kernel.infer(bool_sig, {}, b)
    assert kernel.normalize(bool_sig, a) == kernel.normalize(bool_sig, b)
    assert kernel.convertible(bool_sig, a, b)


def test_error_position_locates_failing_subterm(bool_sig):
    # child 0 is a function or binder domain, child 1 an argument or body
    def position(t, expected=None):
        with pytest.raises(kernel.KernelError) as e:
            if expected is None:
                kernel.infer(bool_sig, {}, t)
            else:
                kernel.check(bool_sig, {}, t, expected)
        return type(e.value), e.value.position

    B = "x : logic.term bool.bool => "
    assert position(T(B + "bool.andb x (bool.notb bool.bool)")) == (kernel.TypeMismatch, (1, 1))
    assert position(T(B + "bool.andb (bool.true bool.true) x")) == (kernel.NotAFunction, (1, 0, 1))
    assert position(T("x : bool.nope => x")) == (kernel.UnboundIdentifier, (0,))
    assert position(T("x : bool.true => x")) == (kernel.SortError, ())
    assert position(Pi("x", T("logic.term bool.bool"), Const("bool.nope"))) == (kernel.UnboundIdentifier, (1,))
    # a failed final conversion is at the checked term itself
    assert position(Const("bool.true"), Const("logic.Prop")) == (kernel.TypeMismatch, ())


SPINE_SIG = """A : Type. B : Type. C : Type. a : A. a2 : A. b : B. P : A -> Type. p : P a.
f : x : A -> P x -> B -> C.
T : A -> Type.
[] T a --> B -> C.
k : x : A -> T x.
"""

# (term, position, message): a bad argument at each position of f, too many
# arguments at each level, domains that depend on earlier arguments, and a
# type that is a product only after the arguments are put in and reduced (k)
SPINE_FAILURES = [
    ("f b p b", (0, 0), "type mismatch: expected A, found B"),
    ("f a2 p b", (0,), "type mismatch: expected P a2, found P a"),
    ("f a p a", (), "type mismatch: expected B, found A"),
    ("f a b", (), "type mismatch: expected P a, found B"),
    ("a b", (), "term a of type A is applied but is not a function"),
    ("P a b", (), "term P a of type Type is applied but is not a function"),
    ("k a2 b", (), "term k a2 of type T a2 is applied but is not a function"),
    ("k a a", (), "type mismatch: expected B, found A"),
    ("k a b b", (), "term k a b of type C is applied but is not a function"),
    ("f a p b b", (), "term f a p b of type C is applied but is not a function"),
    ("f a p b b b", (0,), "term f a p b of type C is applied but is not a function"),
    ("f a (P b) b", (0, 1), "type mismatch: expected A, found B"),
    ("f (a b) p", (0, 1), "term a of type A is applied but is not a function"),
    ("y : A => f y p b", (1, 0), "type mismatch: expected P y, found P a"),
    ("y : A => z : P y => f y z y", (1, 1), "type mismatch: expected B, found A"),
    ("y : A => z : P y => f a z b", (1, 1, 0), "type mismatch: expected P a, found P y"),
    ("y : A => z : P y => k y b", (1, 1), "term k y of type T y is applied but is not a function"),
    ("y : A => z : P y => f y z b (k a b)", (1, 1), "term f y z b of type C is applied but is not a function"),
    ("q : (B -> B) => f a p (q a)", (1, 1), "type mismatch: expected B, found A"),
    ("(x : A => f x) a p b b", (), "term (x : A => f x) a p b of type C is applied but is not a function"),
    ("(x : A => f x) a2 p", (), "type mismatch: expected P a2, found P a"),
]


def test_spine_failures_pinned():
    sig = signature.install_entries(signature.EMPTY, parse_file(SPINE_SIG))
    assert kernel.infer(sig, {}, T("f a p b")) == Const("C")
    assert kernel.infer(sig, {}, T("k a b")) == Const("C")
    assert kernel.infer(sig, {}, T("y : A => z : P y => f y z b")) == T("y : A -> z : P y -> C")
    for text, position, message in SPINE_FAILURES:
        with pytest.raises(kernel.KernelError) as e:
            kernel.infer(sig, {}, T(text))
        assert (e.value.position, str(e.value)) == (position, message), text


# a spine's constant arguments, and its locally closed arguments already
# typed in this `infer`, are typed in the spine's own frame
FRAME_SIG = "A : Type. a : A. b : A. g : A -> A -> A. f : A -> A -> A -> A -> A."


def _frames(monkeypatch, t):
    """The type of `t` in FRAME_SIG and the number of `_infer` frames typing it opens."""
    sig = signature.install_entries(signature.EMPTY, parse_file(FRAME_SIG))
    frames = []
    real = kernel._infer

    def counted(*args, **kwargs):
        frames.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(kernel, "_infer", counted)
    return kernel.infer(sig, {}, t), len(frames)


def test_a_spine_of_constants_opens_one_frame(monkeypatch):
    a, b = Const("a"), Const("b")
    assert _frames(monkeypatch, app(Const("f"), a, b, a, b)) == (Const("A"), 1)


def test_a_repeated_closed_argument_opens_one_frame(monkeypatch):
    # each argument is its own object: the memo finds it by equality
    g = lambda x, y: app(Const("g"), Const(x), Const(y))
    assert _frames(monkeypatch, app(Const("f"), g("a", "b"), g("a", "b"), g("a", "b"), g("a", "b"))) == (Const("A"), 2)
    assert _frames(monkeypatch, app(Const("f"), g("a", "b"), g("b", "a"), g("a", "b"), Const("a"))) == (Const("A"), 3)


@pytest.mark.parametrize("text, position", [
    ("f a nope b a", (0, 0, 1)),
    ("f a b a nope", (1,)),
    ("nope a", (0,)),
    ("f (g a nope) a a a", (0, 0, 0, 1, 1)),
    ("x : A => f x a x nope", (1, 1)),
])
def test_an_unbound_constant_in_a_spine_is_located(monkeypatch, text, position):
    # typed in the spine's frame when bound, so an unbound one takes the
    # frame's own path and is reported where it occurs
    with pytest.raises(kernel.UnboundIdentifier) as e:
        _frames(monkeypatch, T(text))
    assert (str(e.value), e.value.position) == ("unbound identifier: nope", position)


# ---------------------------------------------------------------------------
# reduction and conversion under binders: loose indices are rigid variables


def test_beta_under_binders_shifts_the_argument(logic_shallow):
    # the redex sits under x and its argument mentions x; the body also
    # reaches past the redex's own binder (no rule has these heads)
    t = T("x : logic.Prop => (y : logic.Prop => z : logic.Prop => logic.and y (logic.or x z)) (logic.not x)")
    expected = T("x : logic.Prop => z : logic.Prop => logic.and (logic.not x) (logic.or x z)")
    assert kernel.normalize(logic_shallow, t) == expected
    assert kernel.convertible(logic_shallow, t, expected)
    assert kernel.infer(logic_shallow, {}, t) == kernel.infer(logic_shallow, {}, expected)


def test_rule_fires_on_open_arguments_under_a_binder(logic_shallow):
    # prf (imp A B) --> prf A -> prf B and prf (forall a P) --> x : term a ->
    # prf (P x): the matched arguments are loose indices, and the right-hand
    # side's own binder must shift them
    t = T("A : logic.Prop => B : logic.Prop => logic.prf (logic.imp A B)")
    assert kernel.normalize(logic_shallow, t) == T("A : logic.Prop => B : logic.Prop => logic.prf A -> logic.prf B")
    t = T("a : logic.type => P : (logic.term a -> logic.Prop) => logic.prf (logic.forall a P)")
    expected = T("a : logic.type => P : (logic.term a -> logic.Prop) => x : logic.term a -> logic.prf (P x)")
    assert kernel.normalize(logic_shallow, t) == expected
    assert kernel.convertible(logic_shallow, t, expected)


def test_eta_on_open_terms(bool_sig):
    # under g, `x => g x` is g itself by eta; with g's index shifted past x
    f_ty = "(logic.term bool.bool -> logic.term bool.bool)"
    expanded = T(f"g : {f_ty} => x : logic.term bool.bool => g x")
    plain = T(f"g : {f_ty} => g")
    other = T(f"g : {f_ty} => x : logic.term bool.bool => g (bool.notb x)")
    assert not kernel.convertible(bool_sig, expanded, plain)
    eta = bool_sig.with_eta()
    assert kernel.convertible(eta, expanded, plain)
    assert kernel.convertible(eta, plain, expanded)
    assert not kernel.convertible(eta, other, plain)


def test_messages_name_bound_variables():
    # a bound variable prints under its binder's name, primed apart from
    # an outer binder of the same name
    def message(text):
        with pytest.raises(kernel.KernelError) as e:
            signature.install_entries(signature.EMPTY, parse_file(text))
        return str(e.value)

    base = "A : Type.\nB : A -> Type.\nf : x : A -> B x -> A.\ng : A -> A -> A.\n"
    assert message("A : Type.\n#ASSERT (x : A => x x) : A -> A.") == (
        "term x of type A is applied but is not a function")
    assert message(base + "#ASSERT (x : A => x : A => g x x x) : A -> A -> A.") == (
        "term g x' x' of type A is applied but is not a function")
    assert message(base + "#ASSERT (x : A => y : A => z : B y => f x z) : A -> y : A -> B y -> A.") == (
        "type mismatch: expected B x, found B y")
    assert message("A : Type.\n#ASSERT (x : A => y : x => y) : A -> A.") == (
        "binder domain x must have sort Type, has A")
