"""Formula traversals: pinned outputs, properties and the connective docs."""

import hashlib
import random
from pathlib import Path

from hypothesis import given, settings, strategies as st

from theory_gen import random_closed_formulas, random_formula, random_theory
from lpm import dkparse, embed, sexp, tff
from lpm.terms import substitute
from lpm.tff import PropRule, TffContext, TVar

# ---------------------------------------------------------------------------
# Pinned outputs of every formula traversal over seeded random formulas.
# The digests were recorded before the traversals were derived from one
# connective table; they must never be edited.

PINNED_SEEDS = range(24)
PINNED_DIGESTS = {
    "sexp": "42b1d016ba85188d595f9beb057883f0019434ce77ea80abd33db2668c65e4ea",
    "vars": "0081f876665152bc9559698ca5182356f1d0f7321d16de5823c8a63d8bbaf8ef",
    "translate": "04d6eb7a7a70754339dad985b251f3ece1fe20f195a4faaf69ebdd86b29714b2",
    "wf": "1cc2777365c25ee5e4cd5e4779f057cc8e4b663f74824afd296a21d1a274b7c9",
}


def _subformulas(phi):
    yield phi
    for f in phi.__match_args__:
        v = getattr(phi, f)
        if isinstance(v, tff.TffFormula):
            yield from _subformulas(v)


def _pinned_formulas(seed):
    thy = random_theory(seed)
    tbl = tff.wf_theory(thy)
    rng = random.Random(1000 + seed)
    scope = TffContext(("al",), (("w", TVar("al")),))
    formulas = random_closed_formulas(rng, tbl, 6)
    formulas += [random_formula(rng, tbl, scope, depth=3) for _ in range(3)]
    formulas += list(tbl.axioms.values())
    for item in thy.items:
        if isinstance(item, PropRule):
            formulas += [item.lhs, item.rhs]
    return thy, tbl, scope, formulas


def _verdict(tbl, ctx, phi):
    try:
        tff.wf_formula(tbl, ctx, phi)
    except tff.TffError as e:
        return f"{type(e).__name__}: {e}"
    return "ok"


def _pinned_records():
    out = {key: [] for key in PINNED_DIGESTS}
    seen = set()
    for seed in PINNED_SEEDS:
        thy, tbl, scope, formulas = _pinned_formulas(seed)
        other = tff.wf_theory(random_theory(seed + 1))
        cons = {i.name for i in thy.items if isinstance(i, tff.TypeCons)}
        retyped = TffContext(("al",), (("w", tff.TCons("base")),))
        for phi in formulas:
            seen |= {type(sub) for sub in _subformulas(phi)}
            out["sexp"].append(sexp.dumps(tff.formula_to_sexp(phi, cons)))
            out["vars"].append(f"{sorted(tff.formula_vars(phi))} {sorted(tff.formula_tvars(phi))}")
            out["translate"].append(dkparse.print_term(embed.translate(phi, thy.name)))
            for t, ctx in ((tbl, TffContext()), (tbl, scope), (tbl, retyped), (other, TffContext())):
                out["wf"].append(_verdict(t, ctx, phi))
    return out, seen


def test_formula_traversals_pinned():
    records, seen = _pinned_records()
    assert seen == {
        tff.Top, tff.Bottom, tff.Not, tff.And, tff.Or, tff.Implies, tff.Iff,
        tff.Eq, tff.Pred, tff.Forall, tff.Exists, tff.ForallType, tff.ExistsType,
    }
    # every verdict kind is exercised, not only acceptance
    assert any(v != "ok" for v in records["wf"]) and "ok" in records["wf"]
    got = {key: hashlib.sha256("\n".join(lines).encode()).hexdigest() for key, lines in records.items()}
    assert got == PINNED_DIGESTS


# ---------------------------------------------------------------------------
# Properties over random open formulas.  Binder names come from the same
# small pools as the free variables and the substituted values, so
# substitution keeps running into capture.

TERM_NAMES = ("x", "y", "z")
TYPE_NAMES = ("a", "b")
CONS = {"i"}
I = tff.TCons("i")

# a type variable may share its name with the constructor `i`
types = st.one_of(st.just(I), st.sampled_from(TYPE_NAMES + ("i",)).map(TVar))
terms = st.recursive(
    st.one_of(st.sampled_from(TERM_NAMES).map(tff.Var), st.just(tff.Fun("k"))),
    lambda sub: st.one_of(
        st.builds(lambda t: tff.Fun("f", (), (t,)), sub),
        st.builds(lambda ty, t, u: tff.Fun("g", (ty,), (t, u)), types, sub, sub),
    ),
    max_leaves=4,
)
atoms = st.one_of(
    st.just(tff.Top()),
    st.just(tff.Bottom()),
    st.builds(tff.Eq, types, terms, terms),
    st.builds(lambda ty, ts: tff.Pred("P", (ty,), tuple(ts)), types, st.lists(terms, max_size=2)),
)
formulas = st.recursive(
    atoms,
    lambda sub: st.one_of(
        st.builds(tff.Not, sub),
        *(st.builds(cls, sub, sub) for cls in (tff.And, tff.Or, tff.Implies, tff.Iff)),
        *(st.builds(cls, st.sampled_from(TERM_NAMES), types, sub) for cls in (tff.Forall, tff.Exists)),
        *(st.builds(cls, st.sampled_from(TYPE_NAMES + ("i",)), sub) for cls in (tff.ForallType, tff.ExistsType)),
    ),
    max_leaves=8,
)
PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


def _check_round_trip(phi):
    # `.tffx` cannot express a free type variable named like a constructor
    if "i" not in tff.formula_tvars(phi):
        text = sexp.dumps(tff.formula_to_sexp(phi, CONS))
        assert tff.formula_from_sexp(sexp.loads_one(text), tff.Constructors(CONS)) == phi


@PROPERTY_SETTINGS
@given(formulas, st.sampled_from(TERM_NAMES), terms)
def test_term_substitution_properties(phi, x, t):
    _check_round_trip(phi)
    got = tff.subst_formula(phi, {x: t})
    _check_round_trip(got)
    free = tff.formula_vars(phi)
    assert tff.formula_vars(got) == (free - {x}) | (tff.term_vars(t) if x in free else frozenset())
    assert tff.formula_tvars(got) == tff.formula_tvars(phi) | (tff.term_tvars(t) if x in free else frozenset())
    translated = substitute(embed.translate(phi), {x: embed.translate(t)})
    assert embed.translate(got) == translated


@PROPERTY_SETTINGS
@given(formulas, st.sampled_from(TYPE_NAMES), types)
def test_type_substitution_properties(phi, a, ty):
    got = tff.subst_type_in_formula(phi, {a: ty})
    _check_round_trip(got)
    free = tff.formula_tvars(phi)
    assert tff.formula_tvars(got) == (free - {a}) | (tff.type_tvars(ty) if a in free else frozenset())
    assert tff.formula_vars(got) == tff.formula_vars(phi)
    translated = substitute(embed.translate(phi), {a: embed.translate(ty)})
    assert embed.translate(got) == translated


# ---------------------------------------------------------------------------
# Documentation tied to the table


def test_connective_table_is_documented():
    docs = Path(__file__).resolve().parent.parent / "docs"
    tffx = (docs / "format-tffx.md").read_text(encoding="utf-8")
    formulas_block = tffx.split("## Formulas", 1)[1].split("```")[1]
    symbols = (docs / "symbols.md").read_text(encoding="utf-8")
    for row in tff.CONNECTIVES:
        assert f"({row.tag} " in formulas_block or f"({row.tag})" in formulas_block, row.tag
        if row.const is not None:
            assert f"`{row.const}`" in symbols, row.const
