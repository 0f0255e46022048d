"""Decision-tree matching against the rule-by-rule oracle.

`kernel._fire` walks one decision tree per head and argument count;
`references.reference_fire` tries the rules one by one.  Both match
modulo whnf, reducing a subject only when a constant pattern meets it.
On any rule set and subject they must pick the same rule, bind each
variable to the same occurrence (told apart by `repr`: equal terms may
differ in display names), leave the same arguments, reduced as far as
matching reduced them, and charge the same fuel.
"""

from hypothesis import given, settings, strategies as st

from bool_oracle import enumerate_terms, to_kterm
from references import reference_fire
from lpm import kernel, signature
from lpm.dkparse import parse_file, parse_term
from lpm.terms import App, Const, FVar, KTerm, Lam, Var, app, free_fvars

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)

F, G, H, A, B, E, O = (Const(c) for c in ("f", "g", "h", "a", "b", "e", "o"))
# the rules a subject may hold redexes of: `e x --> x`, and `o --> o`, which diverges
SIG = signature.Signature(rules={
    "e": kernel.Rules((kernel.RewriteRule(App(E, FVar("x")), FVar("x")),)),
    "o": kernel.Rules((kernel.RewriteRule(O, O),)),
})

# patterns over the nullary a and b and the partially applicable g and h
patterns = st.recursive(
    st.sampled_from((*map(FVar, "xxxy"), A, B)),  # mostly variables, often repeated
    lambda inner: st.builds(lambda c, args: app(c, *args), st.sampled_from((G, H)), st.lists(inner, max_size=2)),
    max_leaves=6,
)
rule_args = st.sampled_from((0, 1, 2, 2, 3, 3)).flatmap(lambda k: st.lists(patterns, min_size=k, max_size=k))
rule_sets = st.lists(rule_args, min_size=1, max_size=6)

# values for variables: each family holds equal terms with different
# display names, so the occurrence a variable is bound to shows in `repr`
FAMILIES = (
    tuple(Lam(n, A, Var(0, n)) for n in ("u", "v", "w")),
    tuple(Var(0, n) for n in ("u", "v", "w")),
    tuple(App(Lam(n, A, Var(0, n)), B) for n in ("u", "v", "w")),  # a redex: its head is a binder
    tuple(app(F, Lam(n, A, Var(0, n)), H) for n in ("u", "v", "w")),
    tuple(App(E, Lam(n, A, Var(0, n))) for n in ("u", "v", "w")),  # rule redexes: a binder once reduced
    tuple(App(E, App(G, Lam(n, A, Var(0, n)))) for n in ("u", "v", "w")),  # `g` applied, once reduced
    (A,),
    (App(G, B),),
    (App(E, App(E, B)),),
    (FVar("x"),),  # a free variable of the subject named like a pattern variable
)
NOISE = (A, B, G, H, App(G, A), app(G, A, B), App(H, App(G, A)), app(G, A, B, A), Var(1), FVar("y"),
         App(E, A), App(E, app(H, B, A)), O)


def _rules(lhs_args: list[list[KTerm]]) -> kernel.Rules:
    """Rule i rewrites `f` applied to its patterns to `ri` applied to its
    variables in name order."""
    out = []
    for i, args in enumerate(lhs_args):
        names = sorted(set().union(*map(free_fvars, args)))
        out.append(kernel.RewriteRule(app(F, *args), app(Const(f"r{i}"), *map(FVar, names))))
    return kernel.Rules(tuple(out))


def _instance(pats: list[KTerm], data) -> list[KTerm]:
    """The patterns with each variable occurrence replaced by a value of the
    family drawn for that variable, or now and then of another, some
    subterms wrapped in an `e` redex, which reduces to them, and maybe one
    subterm replaced by noise."""
    family: dict[str, int] = {}
    target = data.draw(st.sampled_from((-1, -1, *range(12))), label="perturbed node")
    seen = 0

    def walk(p: KTerm) -> KTerm:
        nonlocal seen
        seen += 1
        if seen - 1 == target:
            return data.draw(st.sampled_from(NOISE + FAMILIES[0]))
        if type(p) is FVar:
            if p.name not in family or data.draw(st.sampled_from((False,) * 7 + (True,))):
                family[p.name] = data.draw(st.sampled_from(range(len(FAMILIES))))
            return data.draw(st.sampled_from(FAMILIES[family[p.name]]))
        if type(p) is App:
            p = App(walk(p.fn), walk(p.arg))
        return App(E, p) if data.draw(st.sampled_from((False,) * 5 + (True,)), label="wrapped") else p

    return [walk(p) for p in pats]


def _outcome(fire, rules: kernel.Rules, rev: list[KTerm], budget: int):
    rev = list(rev)
    fuel = kernel.Fuel(budget)
    try:
        result = repr(fire(SIG, rules, rev, fuel, {}))
    except kernel.FuelExhausted:
        result = "fuel exhausted"
    return result, [repr(a) for a in rev], fuel.steps_left


@PROPERTY_SETTINGS
@given(rule_sets, st.data())
def test_tree_fires_as_the_rule_by_rule_scan(lhs_args, data):
    rules = _rules(lhs_args)
    args = _instance(data.draw(st.sampled_from(lhs_args), label="model"), data)
    extra = data.draw(st.integers(-2, 2), label="arguments added or dropped")
    if extra < 0:
        del args[len(args) + extra :]
    args += data.draw(st.lists(st.sampled_from(NOISE), min_size=max(extra, 0), max_size=max(extra, 0)))
    rev = args[::-1]
    for budget in (3, 0):
        assert _outcome(kernel._fire, rules, rev, budget) == _outcome(reference_fire, rules, rev, budget)


def test_tree_binds_the_occurrence_the_scan_binds_first():
    # x occurs in argument 0 and twice inside argument 1's spine, whose
    # arguments the scan meets right to left
    rules = _rules([[FVar("x"), app(G, FVar("x"), FVar("x"))]])
    u, v, w = FAMILIES[0]
    for args in ([u, app(G, v, w)], [v, app(G, w, u)]):
        expected = _outcome(reference_fire, rules, args[::-1], 1)
        assert _outcome(kernel._fire, rules, args[::-1], 1) == expected
        assert expected[0] == repr(App(Const("r0"), args[0]))
    rules = _rules([[app(G, FVar("x"), FVar("x"))]])
    assert _outcome(kernel._fire, rules, [app(G, v, w)], 1)[0] == repr(App(Const("r0"), w))


def test_a_subject_is_reduced_only_when_a_live_rule_tests_it_next():
    # f x a, then f a b: c at argument 1 refutes both, so the diverging o
    # at argument 0 is never reduced, though the second rule has a there
    rules = _rules([[FVar("x"), A], [A, B]])
    for fire in (kernel._fire, reference_fire):
        assert _outcome(fire, rules, [Const("c"), O], 0) == ("None", [repr(Const("c")), repr(O)], 0)
    # f (g a) b: the argument of g comes before argument 1 in scan order,
    # and its reduct c refutes the rule, so o is never reduced; the reduct
    # stays in no argument, since it is not one
    rules = _rules([[App(G, A), B]])
    rev = [O, App(G, App(E, Const("c")))]
    for fire in (kernel._fire, reference_fire):
        assert _outcome(fire, rules, rev, 1) == ("None", list(map(repr, rev)), 0)
    # an argument reduced to be tested is left reduced when no rule fires
    for fire in (kernel._fire, reference_fire):
        assert _outcome(fire, rules, [O, App(E, App(H, A))], 1) == ("None", [repr(O), repr(App(H, A))], 0)
    # f a b: one redex object in both arguments is reduced once, for one step
    rules = _rules([[A, B]])
    ea = App(E, A)
    for fire in (kernel._fire, reference_fire):
        assert _outcome(fire, rules, [ea, ea], 3) == ("None", [repr(A), repr(A)], 2)


def test_normal_forms_match_the_scan_on_small_boolean_terms(bool_sig, monkeypatch):
    # every ground boolean term up to size 8, as criterion 7 enumerates them
    by_size = enumerate_terms(8)
    terms = [to_kterm(t) for size in range(1, 9) for t in by_size[size]]

    def normal_forms():
        out = []
        for t in terms:
            fuel = kernel.Fuel()
            out.append((repr(kernel.normalize(bool_sig, t, fuel)), fuel.steps_left))
        return out

    tree = normal_forms()
    monkeypatch.setattr(kernel, "_fire", reference_fire)
    assert normal_forms() == tree


def test_a_new_rule_gets_a_new_tree():
    # the tree for f is built and cached; a rule added later still fires,
    # in a new signature, while the old one keeps its tree
    sig = signature.install_entries(signature.EMPTY, parse_file("T : Type. c : T. d : T. f : T -> T. [] f c --> d."))
    t = parse_term("f d")
    assert kernel.normalize(sig, t) == t and sig.matcher("f").trees[1] is not None
    more = signature.install_entries(sig, parse_file("[] f d --> c."))
    assert kernel.normalize(more, t) == Const("c")
    assert kernel.normalize(sig, t) == t and more.matcher("f") is not sig.matcher("f")


def test_rules_after_a_nonlinear_rule_are_compiled_once():
    # rule i is f applied to x everywhere but a at i: each one may fail on
    # its repeated x, and the rules after it are one shared subtree, where
    # copying them into both branches of every switch made 2^(n+1) - 1 nodes
    n = 12
    rules = _rules([[A if j == i else FVar("x") for j in range(n)] for i in range(n)])
    nodes, todo = set(), [kernel._compile(rules.rules, n)]
    while todo:
        node = todo.pop()
        if node and id(node) not in nodes:
            nodes.add(id(node))
            todo += [*node.cases.values(), node.default] if type(node) is kernel._Switch else [node[3]]
    assert len(nodes) == 2 * n
    u, v, _ = FAMILIES[0]
    args = [v] + [u] * (n - 2) + [A]  # only the last rule has its a in place
    expected = _outcome(reference_fire, rules, args[::-1], 1)
    assert _outcome(kernel._fire, rules, args[::-1], 1) == expected
    assert expected[0] == repr(App(Const(f"r{n - 1}"), v))
