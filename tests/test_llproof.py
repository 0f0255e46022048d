"""Proof trees: rule preludes, elimination, compilation, certificates."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

import forall_gen
from mutations import chain_certificate, chain_leaf_path, enumerate_mutations, reserved_name_certificate
from references import eliminate_pred_fun, signature_fields
from lpm import dkparse, dkprint, embed, examples, kernel, llproof, sexp, signature, terms, tff
from lpm.dkparse import Decl, Def, Rule, parse_term
from lpm.llproof import LLProof, check_certificate, certificate_entries
from lpm.record import Record, values
from lpm.terms import App, Const, FVar, Lam, app


def T(text, delta=()):
    return parse_term(text, delta)


# ---------------------------------------------------------------------------
# rules prelude


def test_deep_prelude_declares_axiom_rule():
    entries = llproof.rules_prelude("deep")
    assert Decl("rules.R_Ax", T("P : logic.Prop -> logic.prf P -> logic.prf (logic.not P) -> logic.prf logic.False")) in entries


def test_deep_prelude_has_the_24_rule_constants():
    entries = llproof.rules_prelude("deep")
    assert len(entries) == 24
    names = [e.name for e in entries]
    assert names[0] == "rules.R_bot" and "rules.R_Subst" in names


def test_shallow_prelude_defines_axiom_rule():
    expected = dkparse.parse_file(
        "[P : logic.Prop] rules.R_Ax P --> "
        "H1 : logic.prf P => H2 : logic.prf (logic.not P) => H2 H1.\n"
    )[0]
    assert expected in llproof.rules_prelude("shallow")


def test_shallow_prelude_sole_axiom_is_excluded_middle():
    from lpm.terms import spine

    entries = llproof.rules_prelude("shallow")
    declared = {e.name for e in entries if isinstance(e, Decl)}
    defined = set()
    for e in entries:
        if isinstance(e, Rule):
            head, _ = spine(e.lhs)
            defined.add(head.name)
        elif isinstance(e, Def):
            defined.add(e.name)
    assert declared - defined == {"rules.ExMid"}


@pytest.mark.parametrize("mode", ["deep", "shallow"])
def test_rules_prelude_declares_exactly_the_schema_constants(mode):
    declared = {e.name for e in llproof.rules_prelude(mode) if isinstance(e, Decl)}
    named = {f"rules.{row.const}" for row in llproof.RULES if row.const is not None}
    assert named <= declared
    assert {n for n in declared if n.startswith("rules.R_")} == named


@pytest.mark.parametrize("mode", ["deep", "shallow"])
@pytest.mark.parametrize("build", [embed.prelude, llproof.rules_prelude])
def test_prelude_calls_return_fresh_lists(build, mode):
    first = build(mode)
    expected = list(first)
    first.reverse()
    first.pop()
    assert build(mode) == expected


@pytest.mark.parametrize("build", [embed.prelude, llproof.rules_prelude])
def test_prelude_rejects_unknown_mode(build):
    with pytest.raises(ValueError, match="unknown mode 'mixed'"):
        build("mixed")


def test_rule_preludes_type_check(logic_deep, logic_shallow):
    signature.install_entries(logic_deep, llproof.rules_prelude("deep"))
    signature.install_entries(logic_shallow, llproof.rules_prelude("shallow"))


def test_shallow_rules_unfold_to_proofs(base_sigs):
    # R_bot applied to a bottom proof reduces to that proof
    sig = base_sigs("bool-commute", "shallow")
    from lpm import kernel

    t = App(Const("rules.R_bot"), FVar("h"))
    got = kernel.whnf(sig, t)
    assert got == FVar("h")


# ---------------------------------------------------------------------------
# eliminate_pred_fun


def _pred_node():
    tau = tff.TCons("tau")
    return llproof.Pred(
        "P", (), (tff.Fun("c1"), tff.Fun("c2")), (tff.Fun("d1"), tff.Fun("d2")), (tau, tau)
    )


def test_eliminate_binary_pred_shape():
    tau = tff.TCons("tau")
    leaves = (
        LLProof(llproof.Neq(tau, tff.Fun("c1")), (), (tff.Not(tff.Eq(tau, tff.Fun("c1"), tff.Fun("d1"))),)),
        LLProof(llproof.Neq(tau, tff.Fun("c2")), (), (tff.Not(tff.Eq(tau, tff.Fun("c2"), tff.Fun("d2"))),)),
    )
    tree = LLProof(_pred_node(), leaves)
    out = eliminate_pred_fun(tree)
    # outer Subst rewrites the first argument
    assert isinstance(out.rule, llproof.Subst)
    assert out.rule.t == tff.Fun("c1") and out.rule.u == tff.Fun("d1")
    assert out.premises[0] is not None and isinstance(out.premises[0].rule, llproof.Neq)
    inner = out.premises[1]
    assert isinstance(inner.rule, llproof.Subst)
    assert inner.rule.t == tff.Fun("c2") and inner.rule.u == tff.Fun("d2")
    # the inner substitution context already carries the rewritten first slot
    assert inner.rule.body == tff.Pred("P", (), (tff.Fun("d1"), tff.Var(inner.rule.var)))
    ax = inner.premises[1]
    assert ax.rule == llproof.Ax(tff.Pred("P", (), (tff.Fun("d1"), tff.Fun("d2"))))
    # consumed hypotheses thread the original conclusions through
    assert llproof._consumed(out) == (tff.Pred("P", (), (tff.Fun("c1"), tff.Fun("c2"))),)
    assert llproof._consumed(ax)[1] == tff.Not(tff.Pred("P", (), (tff.Fun("d1"), tff.Fun("d2"))))


def test_eliminate_nullary_pred_is_single_axiom():
    node = LLProof(llproof.Pred("Q", (), (), (), ()))
    out = eliminate_pred_fun(node)
    assert out.rule == llproof.Ax(tff.Pred("Q", (), ()))
    assert out.premises == ()


def test_eliminate_ternary_fun_ends_in_reflexivity():
    tau = tff.TCons("tau")
    ts = tuple(tff.Fun(c) for c in ("c1", "c2", "c1"))
    us = tuple(tff.Fun(c) for c in ("d1", "d2", "d1"))
    leaves = tuple(
        LLProof(llproof.Neq(tau, t), (), (tff.Not(tff.Eq(tau, t, u)),)) for t, u in zip(ts, us)
    )
    node = LLProof(llproof.Fun("g", (), ts, us, (tau, tau, tau), tau), leaves)
    out = eliminate_pred_fun(node)
    depth = 0
    cur = out
    while isinstance(cur.rule, llproof.Subst):
        depth += 1
        cur = cur.premises[1]
    assert depth == 3
    assert isinstance(cur.rule, llproof.Neq)
    assert cur.rule.t == tff.Fun("g", (), us)


def test_eliminate_arity_mismatch():
    node = LLProof(llproof.Pred("P", (), (tff.Fun("c1"),), (), ()))
    with pytest.raises(llproof.CertificateError):
        eliminate_pred_fun(node)
    # one premise per argument pair; the error names the nested node
    missing = LLProof(llproof.NotNot(tff.Top()), (LLProof(_pred_node(), ()),))
    with pytest.raises(llproof.CertificateError) as e:
        eliminate_pred_fun(missing)
    assert e.value.path == (0,)


def test_eliminate_preserves_other_nodes():
    tree = examples.set_diff_proof()
    assert eliminate_pred_fun(tree) == tree


def test_eliminate_fresh_variable_avoids_clash():
    tau = tff.TCons("tau")
    z = tff.Var("z")  # the default abstraction name occurs in the terms
    node = LLProof(
        llproof.Pred("P", (), (z,), (z,), (tau,)),
        (LLProof(llproof.Neq(tau, z), (), (tff.Not(tff.Eq(tau, z, z)),)),),
    )
    out = eliminate_pred_fun(node)
    assert out.rule.var != "z"


# ---------------------------------------------------------------------------
# proof translation


def _refutation(thy, tree):
    # the term the translator compiles under the negated goal's hypothesis
    entries, _ = certificate_entries(thy, tff.Top(), tree, llproof.base_signature(thy))
    return entries[0].body.body


def test_or_node_translation_shape():
    # the disjunction node applies its rule constant to both operand
    # formulas, one continuation per branch, then the consumed hypothesis
    bot = tff.Bottom()
    tree = LLProof(
        llproof.Or(bot, bot),
        (LLProof(llproof.Bot()), LLProof(llproof.Bot())),
    )
    thy = tff.TffTheory("t", (tff.Axiom("either", tff.Or(bot, bot)),))
    got = _refutation(thy, tree)
    from references import abstract

    f = Const("logic.False")
    prf_f = embed.prf(f)

    def cont(h):
        return Lam(h, prf_f, abstract(App(Const("rules.R_bot"), FVar(h)), h))

    expected = app(Const("rules.R_or"), f, f, cont("h1"), cont("h2"), Const("t.either"))
    assert got == expected


def test_translate_proof_missing_hypothesis_path():
    tree = LLProof(llproof.Bot())
    thy = tff.TffTheory("t", ())
    with pytest.raises(llproof.MissingHypothesis) as e:
        certificate_entries(thy, tff.Top(), tree, llproof.base_signature(thy))
    assert e.value.path == ()


def test_translate_proof_uses_theory_axioms():
    thy = tff.TffTheory(
        "t",
        (
            tff.TypeCons("b", 0),
            tff.FunDecl("c", (), (), tff.TCons("b")),
            tff.Axiom("bad", tff.Bottom()),
        ),
    )
    tree = LLProof(llproof.Bot())  # consumes [bot], provided by the axiom
    got = _refutation(thy, tree)
    assert got == App(Const("rules.R_bot"), Const("t.bad"))


def test_translate_proof_names_the_first_of_equal_axioms():
    # the axiom index keeps the first declared name of each formula, as a
    # scan of the axioms in order finds it
    thy = tff.TffTheory("t", (tff.Axiom("first", tff.Bottom()), tff.Axiom("second", tff.Bottom())))
    assert _refutation(thy, LLProof(llproof.Bot())) == App(Const("rules.R_bot"), Const("t.first"))


def test_translate_proof_finds_an_axiom_by_conversion():
    # no hypothesis in scope converts to the consumed `Q`; the axiom `P`
    # does, through the rule `Q --> P`
    p, q = tff.Pred("P"), tff.Pred("Q")
    thy = tff.TffTheory("t", (tff.PredDecl("P", (), ()), tff.PredDecl("Q", (), ()),
                              tff.PropRule((), (), q, p), tff.Axiom("ax", p)))
    entries, _ = certificate_entries(thy, q, LLProof(llproof.Ax(q)), llproof.base_signature(thy))
    assert entries[0].body.body == app(Const("rules.R_Ax"), Const("t.Q"), Const("t.ax"), terms.Var(0, "h0"))


def test_fig11_certificate_term_matches_reference():
    # the emitted boolean-commutativity certificate equals the reference
    # term built by hand (hypothesis variable names are display-only)
    from references import bool_commute_reference_body

    v = check_certificate(
        examples.bool_theory(), examples.bool_commute_goal(), examples.bool_commute_proof()
    )
    assert v.accepted
    assert v.entries[0].body == bool_commute_reference_body()


# ---------------------------------------------------------------------------
# check_certificate


@pytest.mark.parametrize("name", sorted(examples.BUILTINS))
@pytest.mark.parametrize("mode", ["deep", "shallow"])
def test_corpus_certificates_accepted(base_sigs, name, mode):
    mk_thy, mk_goal, mk_proof = examples.BUILTINS[name]
    v = check_certificate(mk_thy(), mk_goal(), mk_proof(), mode=mode, sig=base_sigs(name, mode))
    assert v.accepted, v.error


def test_dual_mode_stability(base_sigs):
    # deep acceptance implies shallow acceptance across the corpus
    for name, (mk_thy, mk_goal, mk_proof) in examples.BUILTINS.items():
        deep = check_certificate(mk_thy(), mk_goal(), mk_proof(), "deep", sig=base_sigs(name, "deep"))
        shallow = check_certificate(mk_thy(), mk_goal(), mk_proof(), "shallow", sig=base_sigs(name, "shallow"))
        assert not deep.accepted or shallow.accepted


def test_swapped_ax_hypotheses_rejected_at_node(base_sigs):
    # flipping the axiom-node parameter asks for hypotheses that do not exist
    from mutations import _replace_at

    proof = examples.set_diff_proof()
    mutated = _replace_at(
        proof, (0, 0, 0, 1, 0), lambda n: LLProof(llproof.Ax(tff.Not(n.rule.p)), n.premises, n.concls)
    )
    v = check_certificate(examples.set_theory(), examples.set_diff_goal(), mutated,
                          sig=base_sigs("set-diff", "shallow"))
    assert not v.accepted
    assert v.path == (0, 0, 0, 1, 0)


def test_congruence_tolerant_hypotheses(base_sigs):
    # rewriting a consumed-hypothesis annotation by one rule step anywhere
    # keeps the certificate acceptable
    proof = examples.set_diff_proof()
    # the [in tau c2 (minus tau c1 c1)] override is congruent to the
    # conjunction it unfolds to
    unfolded = tff.And(
        tff.Pred("in", (tff.TVar("tau"),), (tff.Var("c2"), tff.Var("c1"))),
        tff.Not(tff.Pred("in", (tff.TVar("tau"),), (tff.Var("c2"), tff.Var("c1")))),
    )
    from mutations import _replace_at

    mutated = _replace_at(
        proof, (0, 0, 0, 1), lambda n: LLProof(n.rule, n.premises, (unfolded,))
    )
    v = check_certificate(examples.set_theory(), examples.set_diff_goal(), mutated,
                          sig=base_sigs("set-diff", "shallow"))
    assert v.accepted, v.error


def test_short_conclusion_override_rejected_at_node(base_sigs):
    # a conclusion override must list as many formulas as the rule consumes
    from mutations import _replace_at

    mutated = _replace_at(
        examples.pred_decomp_proof(), (0,),
        lambda n: LLProof(n.rule, n.premises, llproof._consumed(n)[:1]),
    )
    v = check_certificate(examples.pred_decomp_theory(), examples.pred_decomp_goal(), mutated,
                          sig=base_sigs("pred-decomp", "shallow"))
    assert not v.accepted
    assert v.path == (0,)


def test_rejection_below_pred_reported_at_written_node(base_sigs):
    # elimination turns the Pred node at (0,) into a Subst chain whose
    # premise 1 sits at (0, 1, 0); a rejection there names the written (0, 1)
    from mutations import _replace_at

    thy, goal = examples.pred_decomp_theory(), examples.pred_decomp_goal()
    sig = base_sigs("pred-decomp", "shallow")
    wrong_witness = _replace_at(
        examples.pred_decomp_proof(), (0, 1),
        lambda n: LLProof(llproof.Neq(n.rule.ty, tff.Fun("c1")), n.premises, n.concls),
    )
    v = check_certificate(thy, goal, wrong_witness, sig=sig)
    assert not v.accepted
    assert v.path == (0, 1)
    # the same for an error the translator raises
    absent = tff.Not(tff.Eq(examples._TAU, tff.Fun("c2"), tff.Fun("c1")))
    missing_hyp = _replace_at(
        examples.pred_decomp_proof(), (0, 1), lambda n: LLProof(n.rule, n.premises, (absent,))
    )
    v = check_certificate(thy, goal, missing_hyp, sig=sig)
    assert not v.accepted
    assert v.path == (0, 1), v.error
    # the same past chain step 1: a Fun node and a ternary Pred node whose
    # last premise is bad, once for the kernel and once for the translator
    tau = examples._TAU
    cs, ds = tuple(tff.Fun(f"c{i}") for i in (1, 2, 3)), tuple(tff.Fun(f"d{i}") for i in (1, 2, 3))
    thy3 = tff.TffTheory("ternary", (
        tff.TypeCons("tau", 0), tff.PredDecl("P", (), (tau,) * 3), tff.FunDecl("g", (), (tau,) * 3, tau),
        *(tff.FunDecl(x.name, (), (), tau) for x in cs + ds),
        *(tff.TermRule((), (), d, c) for c, d in zip(cs, ds)),
    ))
    sig3 = llproof.base_signature(thy3)
    leaves = tuple(LLProof(llproof.Neq(tau, c), (), (tff.Not(tff.Eq(tau, c, d)),)) for c, d in zip(cs, ds))
    lhs, rhs = tff.Pred("P", (), cs), tff.Pred("P", (), ds)
    written = [
        (tff.Eq(tau, tff.Fun("g", (), cs), tff.Fun("g", (), ds)), (2,),
         lambda premises: LLProof(llproof.Fun("g", (), cs, ds, (tau,) * 3, tau), premises)),
        (tff.Implies(lhs, rhs), (0, 2),
         lambda premises: LLProof(llproof.NotImp(lhs, rhs), (LLProof(llproof.Pred("P", (), cs, ds, (tau,) * 3), premises),))),
    ]
    wrong_witness = LLProof(llproof.Neq(tau, cs[0]), (), leaves[2].concls)
    missing_hyp = LLProof(llproof.Neq(tau, cs[2]), (), (tff.Not(tff.Eq(tau, cs[2], cs[0])),))
    for goal3, bad, tree in written:
        assert check_certificate(thy3, goal3, tree(leaves), sig=sig3).accepted
        for leaf in (wrong_witness, missing_hyp):
            v = check_certificate(thy3, goal3, tree(leaves[:2] + (leaf,)), sig=sig3)
            assert not v.accepted and bool(v.entries) == (leaf is wrong_witness)
            assert v.path == bad, v.error


def test_translator_rejection_in_a_pred_chain_names_the_written_node(base_sigs):
    # the Pred node at (0,) is compiled as Subst, Subst, Ax: an error from
    # the closing Ax step, or from below the node's premise 1, which chain
    # step 1 compiles, names nodes of the tree as written
    from mutations import _replace_at

    thy, goal, proof = examples.pred_decomp_theory(), examples.pred_decomp_goal(), examples.pred_decomp_proof()
    sig = base_sigs("pred-decomp", "shallow")
    lhs, c1, c2 = goal.lhs, tff.Fun("c1"), tff.Fun("c2")
    absent = tff.Not(tff.Pred("P", (), (c2, c1)))
    last_step = _replace_at(proof, (0,), lambda n: LLProof(n.rule, n.premises, (lhs, absent)))
    v = check_certificate(thy, goal, last_step, sig=sig)
    assert not v.entries and v.path == (0,) and str(absent) in v.error, v.error
    below = _replace_at(proof, (0, 1), lambda n: LLProof(llproof.Cut(tff.Top()), (n, LLProof(llproof.Bot()))))
    v = check_certificate(thy, goal, below, sig=sig)
    assert not v.entries and v.path == (0, 1, 1) and "Bottom() is not available" in v.error, v.error


def test_malformed_pred_reported_in_translator_order(base_sigs):
    # a Pred node with fewer argument pairs than terms at (0, 1), and a
    # missing hypothesis at (0, 0): the translator meets (0, 0) first
    thy, goal = examples.pred_decomp_theory(), examples.pred_decomp_goal()
    notimp = examples.pred_decomp_proof()
    c1, d1, d2 = tff.Fun("c1"), tff.Fun("d1"), tff.Fun("d2")
    bad_pred = LLProof(llproof.Pred("P", (), (c1,), (d1, d2), (examples._TAU,)))
    cut = LLProof(llproof.Cut(tff.Top()), (LLProof(llproof.Bot()), bad_pred))
    tree = LLProof(notimp.rule, (cut,))
    v = check_certificate(thy, goal, tree, sig=base_sigs("pred-decomp", "shallow"))
    assert v.path == (0, 0) and "Bottom() is not available" in v.error
    # with a sound premise 0, the malformed node is the one reported
    tree = LLProof(notimp.rule, (LLProof(cut.rule, (notimp.premises[0], bad_pred)),))
    v = check_certificate(thy, goal, tree, sig=base_sigs("pred-decomp", "shallow"))
    assert v.path == (0, 1) and "term lists of lengths 1/2/1 disagree" in v.error


def test_freshness_violation_rejected(base_sigs):
    from mutations import _replace_at
    from lpm.record import replace

    proof = examples.set_diff_proof()
    # inner NotForall reuses the outer eigenvariable c1
    mutated = _replace_at(
        proof, (0, 0), lambda n: LLProof(replace(n.rule, const="c1"), n.premises, n.concls)
    )
    v = check_certificate(examples.set_theory(), examples.set_diff_goal(), mutated,
                          sig=base_sigs("set-diff", "shallow"))
    assert not v.accepted
    assert "c1" in v.error and v.path is not None


def test_unregistered_ext_rejected(base_sigs):
    proof = examples.bool_commute_proof()
    from lpm.record import replace

    bad = LLProof(replace(proof.rule, name="no-such"), proof.premises, proof.concls)
    v = check_certificate(examples.bool_theory(), examples.bool_commute_goal(), bad,
                          sig=base_sigs("bool-commute", "shallow"))
    assert not v.accepted and "no-such" in v.error


def test_mutation_sample_rejected(base_sigs):
    muts = enumerate_mutations(examples.bool_commute_proof())[:8]
    for label, mutated in muts:
        v = check_certificate(examples.bool_theory(), examples.bool_commute_goal(), mutated,
                              sig=base_sigs("bool-commute", "shallow"))
        assert not v.accepted, label
        assert v.path is not None, label


# Rejection paths recorded before the kernel reported where it failed,
# when every node was re-checked on its own: each mutation of a built-in
# is rejected at the node its label names, except these (same in both
# modes), whose error the translator raises below the mutated node.
_MOVED_PATHS = {
    ("bool-commute", "swap-premises-at-[]"): (0,),
    ("bool-commute", "corrupt-ext-block-at-[]"): (0,),
    ("bool-commute", "corrupt-body-at-[0]"): (0, 0),
    ("bool-commute", "corrupt-body-at-[1]"): (1, 0),
    ("pred-decomp", "swap-premises-at-[0]"): (0, 0),
    ("set-diff", "corrupt-body-at-[]"): (0,),
    ("set-diff", "corrupt-body-at-[0]"): (0, 0),
    ("set-diff", "corrupt-body-at-[0, 0]"): (0, 0, 0),
    ("set-diff", "swap-premises-at-[0, 0, 0]"): (0, 0, 0, 0),
    ("set-diff", "swap-params-at-[0, 0, 0]"): (0, 0, 0, 0),
    ("set-diff", "corrupt-left-param-at-[0, 0, 0]"): (0, 0, 0, 1),
    ("set-diff", "corrupt-left-param-at-[0, 0, 0, 1]"): (0, 0, 0, 1, 0),
}


@pytest.mark.parametrize("mode", ["deep", "shallow"])
def test_mutation_paths_pinned(base_sigs, mode):
    kernel_level = 0
    for name, (mk_thy, mk_goal, mk_proof) in sorted(examples.BUILTINS.items()):
        for label, mutated in enumerate_mutations(mk_proof()):
            v = check_certificate(mk_thy(), mk_goal(), mutated, mode, sig=base_sigs(name, mode))
            written = tuple(int(i) for i in label.rsplit("-at-[", 1)[1][:-1].split(",") if i)
            assert not v.accepted, label
            assert v.path == _MOVED_PATHS.get((name, label), written), (name, label, v.error)
            kernel_level += bool(v.entries)
    assert kernel_level == 9


@pytest.mark.parametrize("n", range(3, 9))
def test_chain_rejection_paths_pinned(n):
    thy, goal, proof = chain_certificate(n)
    sig = llproof.base_signature(thy)
    assert check_certificate(thy, goal, proof, sig=sig).accepted
    for i in range(n - 1):
        thy, goal, proof = chain_certificate(n, {i})
        v = check_certificate(thy, goal, proof, sig=sig)
        assert not v.accepted and v.entries, i
        assert v.path == chain_leaf_path(n, i)


def test_several_faults_report_the_first_in_kernel_order():
    # leaf 1 is in premise 0 of the NotAnd node above leaf 4, which is
    # deeper: the kernel meets leaf 1 first, and that is the path
    thy, goal, proof = chain_certificate(6, {1, 4})
    v = check_certificate(thy, goal, proof)
    assert not v.accepted
    assert v.path == chain_leaf_path(6, 1)


def test_failure_path_only_for_the_certificate_body():
    thy, goal, proof = chain_certificate(4, {2})
    _, tr = llproof.certificate_entries(thy, goal, proof, llproof.base_signature(thy))
    err = signature.IllTypedSide("right", kernel.TypeMismatch(Const("a"), Const("b")))
    assert llproof.failure_path(tr, err) is None  # at the top of the body
    err.cause.trail[:] = [1, 0]  # innermost first: in the binder annotation
    assert err.cause.position == (0, 1)
    assert llproof.failure_path(tr, err) is None
    err.cause.trail[:] = [0, 1]  # the refutation's own application spine
    assert llproof.failure_path(tr, err) == ()
    assert llproof.failure_path(tr, signature.IllTypedSide("left", err.cause)) is None
    assert llproof.failure_path(tr, kernel.SortError("x")) is None


def test_no_translator_table_outlives_the_compile(monkeypatch):
    # the caller keeps the entries and the refutation; the translator, with
    # its intern table and memos, is freed when the compile returns
    translators = []
    init = llproof._Translator.__init__

    def recording_init(self, *args):
        translators.append(weakref.ref(self))
        init(self, *args)

    monkeypatch.setattr(llproof._Translator, "__init__", recording_init)
    thy, goal, proof = chain_certificate(8, {3})
    sig = llproof.base_signature(thy)
    entries, refutation = certificate_entries(thy, goal, proof, sig)
    [translator] = translators
    assert translator() is None
    with pytest.raises(signature.IllTypedBody) as e:
        signature.install_entries(sig, entries)
    assert llproof.failure_path(refutation, e.value) == chain_leaf_path(8, 3)


def _mini_certificates():
    """Small refutations exercising every rule tag the corpus misses."""
    top, bot = tff.Top(), tff.Bottom()
    boolc = tff.TCons("bool")
    t_true, t_false = tff.Fun("true"), tff.Fun("false")
    eq = lambda a, b: tff.Eq(boolc, a, b)
    x = tff.Var("x")

    def leaf(rule, concls=None):
        return LLProof(rule, (), concls)

    nottop = leaf(llproof.NotTop())
    bot_leaf = leaf(llproof.Bot())
    out = []

    out.append(("nottop", top, nottop))
    out.append(("cut-ax", top, LLProof(
        llproof.Cut(top),
        (leaf(llproof.Ax(top)), nottop),
    )))
    out.append(("notnot-bot", tff.Not(bot), LLProof(llproof.NotNot(bot), (bot_leaf,))))
    out.append(("or", tff.Not(tff.Or(bot, bot)), LLProof(
        llproof.NotNot(tff.Or(bot, bot)),
        (LLProof(llproof.Or(bot, bot), (bot_leaf, bot_leaf)),),
    )))
    out.append(("imp", tff.Not(tff.Implies(top, bot)), LLProof(
        llproof.NotNot(tff.Implies(top, bot)),
        (LLProof(llproof.Imp(top, bot), (nottop, bot_leaf)),),
    )))
    out.append(("iff", tff.Not(tff.Iff(top, bot)), LLProof(
        llproof.NotNot(tff.Iff(top, bot)),
        (LLProof(llproof.Iff(top, bot), (nottop, bot_leaf)),),
    )))
    out.append(("notand", tff.And(top, top), LLProof(
        llproof.NotAnd(top, top), (nottop, nottop),
    )))
    out.append(("notor", tff.Or(top, bot), LLProof(
        llproof.NotOr(top, bot), (nottop,),
    )))
    out.append(("notimp", tff.Implies(bot, bot), LLProof(
        llproof.NotImp(bot, bot), (bot_leaf,),
    )))
    out.append(("sym", tff.Implies(eq(t_true, t_false), eq(t_false, t_true)), LLProof(
        llproof.NotImp(eq(t_true, t_false), eq(t_false, t_true)),
        (leaf(llproof.Sym(boolc, t_true, t_false)),),
    )))
    out.append(("forall-witness", tff.Implies(tff.Forall("x", boolc, eq(x, x)), eq(t_true, t_true)), LLProof(
        llproof.NotImp(tff.Forall("x", boolc, eq(x, x)), eq(t_true, t_true)),
        (LLProof(
            llproof.Forall(boolc, "x", eq(x, x), t_true),
            (leaf(llproof.Ax(eq(t_true, t_true))),),
        ),),
    )))
    out.append(("exists-fresh", tff.Not(tff.Exists("x", boolc, bot)), LLProof(
        llproof.NotNot(tff.Exists("x", boolc, bot)),
        (LLProof(llproof.Exists(boolc, "x", bot, "c"), (bot_leaf,)),),
    )))
    out.append(("notexists-witness", tff.Exists("x", boolc, top), LLProof(
        llproof.NotExists(boolc, "x", top, t_true), (nottop,),
    )))
    out.append(("foralltype-witness", tff.Implies(tff.ForallType("al", top), top), LLProof(
        llproof.NotImp(tff.ForallType("al", top), top),
        (LLProof(
            llproof.ForallType("al", top, boolc),
            (leaf(llproof.Ax(top)),),
        ),),
    )))
    out.append(("existstype-fresh", tff.Not(tff.ExistsType("al", bot)), LLProof(
        llproof.NotNot(tff.ExistsType("al", bot)),
        (LLProof(llproof.ExistsType("al", bot, "fresh_ty"), (bot_leaf,)),),
    )))
    out.append(("notexiststype-witness", tff.ExistsType("al", top), LLProof(
        llproof.NotExistsType("al", top, boolc), (nottop,),
    )))
    out.append(("subst-direct", tff.Implies(eq(t_true, t_false), eq(t_false, t_false)), LLProof(
        llproof.NotImp(eq(t_true, t_false), eq(t_false, t_false)),
        (LLProof(
            llproof.Subst(boolc, "z", eq(tff.Var("z"), t_false), t_true, t_false),
            (
                leaf(llproof.Ax(eq(t_true, t_false))),
                leaf(llproof.Ax(eq(t_false, t_false))),
            ),
        ),),
    )))
    # function congruence closed by a rewriting reflexivity step
    notb = lambda e: tff.Fun("notb", (), (e,))
    fun_goal = eq(notb(t_true), notb(notb(t_false)))
    out.append(("fun-node", fun_goal, LLProof(
        llproof.Fun("notb", (), (t_true,), (notb(t_false),), (boolc,), boolc),
        (leaf(llproof.Neq(boolc, t_true), (tff.Not(eq(t_true, notb(t_false))),)),),
        (tff.Not(fun_goal),),
    )))
    return out


@pytest.mark.parametrize("mode", ["deep", "shallow"])
def test_every_rule_tag_end_to_end(base_sigs, mode):
    sig = base_sigs("bool-commute", mode)
    thy = examples.bool_theory()
    for label, goal, tree in _mini_certificates():
        v = check_certificate(thy, goal, tree, mode, sig=sig)
        assert v.accepted, (label, mode, v.error, v.path)


@pytest.mark.parametrize("label, witness, message", [
    ("forall-witness", tff.Var("z"), "witness term mentions unbound variables ['z']"),
    ("foralltype-witness", tff.TVar("b"), "witness type mentions unbound type variables ['b']"),
])
def test_an_open_witness_is_rejected_at_its_node(label, witness, message):
    # the witness is the last field of both rules
    [(goal, tree)] = [(g, t) for name, g, t in _mini_certificates() if name == label]
    node = tree.premises[0]
    opened = LLProof(tree.rule, (LLProof(type(node.rule)(*values(node.rule)[:-1], witness), node.premises),))
    v = check_certificate(examples.bool_theory(), goal, opened)
    assert (v.accepted, v.error, v.path) == (False, f"at node [0]: {message}", (0,))


def _compiled_outputs(mode: str):
    """What compiling and checking each pinned certificate gives in `mode`:
    chain-8/16/32, valid and with a bad first, middle or last leaf, every
    built-in, the mini certificates and the built-ins' mutations."""
    cases = [(f"chain-{n}-{bad}", *chain_certificate(n, bad))
             for n in (8, 16, 32) for bad in ((), (0,), (n // 2,), (n - 2,))]
    for name, (mk_thy, mk_goal, mk_proof) in sorted(examples.BUILTINS.items()):
        cases.append((name, mk_thy(), mk_goal(), mk_proof()))
        cases += [(f"{name}/{label}", mk_thy(), mk_goal(), m) for label, m in enumerate_mutations(mk_proof())]
    cases += [(label, examples.bool_theory(), goal, tree) for label, goal, tree in _mini_certificates()]
    for label, thy, goal, proof in cases:
        sig = llproof.base_signature(thy, mode)
        v = check_certificate(thy, goal, proof, mode, sig=sig)
        try:
            entries, _ = certificate_entries(thy, goal, proof, sig)
            compiled = dkprint.print_file(entries)
        except llproof.CertificateError as e:
            compiled = str(e)
        yield label, compiled, v.accepted, v.path, v.error


# recorded when the compiler stopped keeping a layout tree beside the term;
# the code before that change gives the same digest
_COMPILED_DIGEST = "7d94189a72bdda72b67930e4d9ef2c3076dae48c32811aca56e006f524ad4fd6"


def test_compiled_certificates_are_pinned():
    h = hashlib.sha256()
    for mode in ("shallow", "deep"):
        for out in _compiled_outputs(mode):
            h.update(repr((mode, *out)).encode())
    assert h.hexdigest() == _COMPILED_DIGEST


def test_mini_certificates_cover_all_rule_tags():
    covered = set()

    def walk(p):
        covered.add(type(p.rule).__name__)
        for q in p.premises:
            walk(q)

    for _, _, tree in _mini_certificates():
        walk(tree)
    for name, (_, _, mk_proof) in examples.BUILTINS.items():
        walk(mk_proof())
    walk(eliminate_pred_fun(examples.pred_decomp_proof()))
    all_tags = {
        "Bot", "NotTop", "Ax", "Cut", "Neq", "Sym", "NotNot", "And", "Or", "Imp",
        "Iff", "NotAnd", "NotOr", "NotImp", "NotIff", "Exists", "Forall",
        "NotExists", "NotForall", "ExistsType", "ForallType", "NotExistsType",
        "NotForallType", "Pred", "Fun", "Subst", "Ext",
    }
    assert covered == all_tags


# ---------------------------------------------------------------------------
# .llpx round trip


def _round_trip_cases():
    """The built-ins (pred-decomp un-eliminated) and the mini certificates:
    together they use every rule tag."""
    cases = [
        pytest.param(mk_thy(), mk_goal(), mk_proof(), id=name)
        for name, (mk_thy, mk_goal, mk_proof) in sorted(examples.BUILTINS.items())
    ]
    cases += [
        pytest.param(examples.bool_theory(), goal, tree, id=f"mini-{label}")
        for label, goal, tree in _mini_certificates()
    ]
    return cases


@pytest.mark.parametrize("thy, goal, proof", _round_trip_cases())
def test_proof_file_round_trip(thy, goal, proof):
    text = llproof.print_proof(thy, goal, proof)
    goal2, proof2 = llproof.parse_proof(text, thy)
    assert goal2 == goal
    assert proof2 == proof


def test_parse_proof_validates_structure():
    thy = examples.bool_theory()
    with pytest.raises(tff.FormatError):
        llproof.parse_proof("(proof (theory wrong) (goal (top)) (bot))", thy)
    with pytest.raises(tff.FormatError):
        llproof.parse_proof("(proof (theory bool) (goal (top)) (frob))", thy)
    with pytest.raises(tff.FormatError):
        llproof.parse_proof("(proof (theory bool) (goal (top)) (ext bool-case-exists ((abs x)) () ()))", thy)


def _formulas(x):
    """Every formula reachable from `x` through record fields and tuples."""
    connectives = {row.cls for row in tff.CONNECTIVES}
    stack = [x]
    while stack:
        x = stack.pop()
        if isinstance(x, tuple):
            stack.extend(x)
        elif isinstance(x, Record):
            if type(x) in connectives:
                yield x
            stack.extend(values(x))


def test_equal_formulas_read_from_one_proof_are_one_object():
    # the reader builds each distinct formula once per read, so the
    # translator's hypothesis table and embedding memo hit by identity
    thy, goal, proof = chain_certificate(16)
    goal2, proof2 = llproof.parse_proof(llproof.print_proof(thy, goal, proof), thy)
    assert (goal2, proof2) == (goal, proof)
    seen = {}
    formulas = list(_formulas((goal2, proof2)))
    for phi in formulas:
        assert seen.setdefault(phi, phi) is phi
    assert len(formulas) > 10 * len(seen)


def test_reads_after_a_proof_read_are_their_own():
    # the reader's memo keys by `id` and goes with its read: lists read
    # later, at the addresses of freed ones, are read afresh
    thy, goal, proof = chain_certificate(16)
    text = llproof.print_proof(thy, goal, proof)
    for _ in range(3):
        llproof.parse_proof(text, thy)
        small = "(and (pred P1 ()) (not (pred P0 ())))"
        assert tff.formula_from_sexp(sexp.loads_one(small), tff.Constructors()) == tff.And(
            tff.Pred("P1"), tff.Not(tff.Pred("P0")))
        assert tff.parse_theory(tff.print_theory(examples.set_theory())) == examples.set_theory()


# ---------------------------------------------------------------------------
# base signatures: each mode's preludes are checked once per process


@pytest.mark.parametrize("mode", ["shallow", "deep"])
@pytest.mark.parametrize("name", sorted(examples.BUILTINS))
def test_reused_base_signature_equals_a_full_install(name, mode):
    thy = examples.BUILTINS[name][0]()
    entries = embed.prelude(mode) + llproof.rules_prelude(mode) + embed.theory_entries(thy)
    fresh = signature.install_entries(signature.EMPTY, entries)
    llproof.base_signature(thy, mode)
    assert signature_fields(llproof.base_signature(thy, mode)) == signature_fields(fresh)


@pytest.mark.parametrize("mode, steps", [("shallow", 82), ("deep", 0)])
def test_base_signature_charges_the_prelude_check(mode, steps):
    # a caller's budget pays for the preludes' check whether this process
    # has run it already or not, so the steps left are those of a full
    # check; the bool theory's own entries take no rewrite step
    thy = examples.bool_theory()
    llproof._preludes.cache_clear()
    for _ in range(2):
        fuel = kernel.Fuel()
        llproof.base_signature(thy, mode, fuel)
        assert fuel.max_rewrite_steps - fuel.steps_left == steps
    if steps:
        with pytest.raises(kernel.FuelExhausted):
            llproof.base_signature(thy, mode, kernel.Fuel(steps - 1))
    assert llproof.base_signature(thy, mode, kernel.Fuel()) is not None


# ---------------------------------------------------------------------------
# checking cost: no binder is opened or closed, and work grows linearly


def _kernel_calls(monkeypatch, n: int) -> dict[str, int]:
    """Calls of the kernel's typing, reduction and conversion workers, and
    of each node the instantiation walk visits, while `check_certificate`
    accepts chain-n; fails on any call of `abstract`."""
    thy, goal, proof = chain_certificate(n)
    sig = llproof.base_signature(thy)
    counts = dict.fromkeys(("_infer", "whnf", "_conv", "instantiate_many"), 0)
    with monkeypatch.context() as m:
        for name in counts:
            def counted(*args, _fn=getattr(kernel, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            m.setattr(kernel, name, counted)
            if hasattr(terms, name):  # the walk recurses through its own module's name
                m.setattr(terms, name, counted)

        def no_abstract(*args, **kwargs):
            raise AssertionError("terms.abstract called while checking a certificate")

        for module in (terms, kernel, signature, embed, llproof, dkparse):
            if hasattr(module, "abstract"):
                m.setattr(module, "abstract", no_abstract)
        assert check_certificate(thy, goal, proof, sig=sig).accepted
    return counts


def test_chain_checking_work_grows_linearly(monkeypatch):
    small, large = _kernel_calls(monkeypatch, 32), _kernel_calls(monkeypatch, 64)
    for name in small:
        assert large[name] <= 2.1 * small[name], (name, small[name], large[name])


def _compile_peak(depth: int) -> int:
    """The traced peak of `certificate_entries` on a refutation of `depth`
    NotNot nodes, one below the other, closed by a Bot leaf."""
    thy, phi, proof = tff.TffTheory("t", ()), tff.Bottom(), LLProof(llproof.Bot())
    for _ in range(depth):
        proof = LLProof(llproof.NotNot(phi), (proof,))
        phi = tff.Not(tff.Not(phi))
    sig = llproof.base_signature(thy)
    tracemalloc.start()
    try:
        certificate_entries(thy, phi.body, proof, sig)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_compiling_a_deep_proof_takes_linear_memory():
    # a node's path is built only when an error leaves through it or the
    # kernel's position is mapped; a path tuple kept per frame and per
    # layout would hold about depth^2/2 entries, 8 times the peak here
    small, large = _compile_peak(250), _compile_peak(1000)
    assert large < 5.5 * small, (small, large)


def _check_chain_at_the_default_recursion_limit(n: int) -> None:
    # a fresh interpreter keeps the default limit of 1000 frames
    here = Path(__file__).resolve().parent
    code = (
        "import sys; from lpm import llproof; from mutations import chain_certificate; "
        "assert sys.getrecursionlimit() == 1000; "
        f"v = llproof.check_certificate(*chain_certificate({n})); print(v.accepted, v.error)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "True None"


def test_chain_64_checks_at_the_default_recursion_limit():
    _check_chain_at_the_default_recursion_limit(64)


def test_chain_160_checks_at_the_default_recursion_limit():
    # an application spine is typed in one `_infer` frame, whatever its length
    _check_chain_at_the_default_recursion_limit(160)


@pytest.mark.parametrize("name", ["cert", "logic", "rules"])
def test_theory_named_like_an_lpm_module_is_rejected(name):
    # the valid certificate was rejected for "duplicate declaration:
    # cert.goal", and a theory `logic` or `rules` for the name it collides
    # on in the prelude (logic.Prop, rules.R_Ax); under another theory name
    # it is accepted.  `base_signature` checks the name before installing
    thy, goal, proof = reserved_name_certificate(name)
    message = f"theory name {name!r} is reserved: lpm's own modules are cert, logic and rules"
    for check in (tff.wf_theory, llproof.base_signature):
        with pytest.raises(tff.TffError) as caught:
            check(thy)
        assert str(caught.value) == message
    verdict = check_certificate(thy, goal, proof)
    assert (verdict.accepted, verdict.error, verdict.path) == (False, message, None)
    assert check_certificate(*reserved_name_certificate(name, rename=f"{name}2")).accepted


# ---------------------------------------------------------------------------
# first-order certificates, checked theories and deep proof files


@pytest.mark.parametrize("mode", ["shallow", "deep"])
def test_notforall_chain_is_accepted(mode):
    thy, goal, proof, _ = forall_gen.certificate(12)
    assert check_certificate(thy, goal, proof, mode).accepted


@pytest.mark.parametrize("mode", ["shallow", "deep"])
@pytest.mark.parametrize("clash, at, message", [
    ("reused", 5, "constant c0 was already introduced"),
    ("in_sequent", 0, "constant d occurs in the conclusion sequent"),
    ("in_sequent", 7, "constant d occurs in the conclusion sequent"),
])
def test_notforall_chain_clash_is_rejected_at_its_node(mode, clash, at, message):
    thy, goal, proof, path = forall_gen.certificate(12, clash, at)
    v = check_certificate(thy, goal, proof, mode)
    assert (v.accepted, v.error, v.path) == (False, f"at node {list(path)}: {message}", path)


def test_freshness_reads_each_hypothesis_once(monkeypatch):
    # eigenvariable k of the NotForall chain was checked against all k + 1
    # hypotheses in scope, n(n + 1)/2 `formula_vars` calls (5,050 at
    # n = 100); counts of the free variables in scope are now updated when
    # a hypothesis is bound and unbound: once when the first eigenvariable
    # is checked, then at each of the n + 3 later binds and unbinds
    calls = {"n": 0}
    original = tff.formula_vars

    def counted(*args):
        calls["n"] += 1
        return original(*args)

    monkeypatch.setattr(tff, "formula_vars", counted)
    for n in (25, 50, 100):
        thy, goal, proof, _ = forall_gen.certificate(n)
        calls["n"] = 0
        certificate_entries(thy, goal, proof, llproof.base_signature(thy))
        assert calls["n"] == 2 * n + 7, (n, calls["n"])


def _table_state(tbl: tff.Table) -> tuple:
    return dict(tbl.type_cons), dict(tbl.funs), dict(tbl.preds), dict(tbl.axioms), list(tbl.exts)


def test_a_theory_is_checked_once_for_many_certificates(monkeypatch):
    calls = []
    original = tff.wf_theory

    def counted(thy):
        calls.append(thy.name)
        return original(thy)

    monkeypatch.setattr(tff, "wf_theory", counted)
    llproof.checked_theory.cache_clear()
    thy = examples.set_theory()
    sig = llproof.base_signature(thy)
    assert calls == []  # building the signature checks only the theory's name
    goal, proof = examples.set_diff_goal(), examples.set_diff_proof()
    verdicts = [check_certificate(thy, goal, proof, sig=sig)]
    tbl, axioms = llproof.checked_theory(thy)
    before = _table_state(tbl), dict(axioms)
    mutated = [m for _, m in enumerate_mutations(proof)][:4]
    verdicts += [check_certificate(thy, goal, m, sig=sig) for m in mutated]
    assert calls == ["set"]  # one `wf_theory` for five certificates (five at the parent)
    assert verdicts[0].accepted and not any(v.accepted for v in verdicts[1:])
    assert (_table_state(tbl), dict(axioms)) == before


def test_a_deep_proof_file_round_trips_at_the_default_recursion_limit():
    # `proof_to_sexp` and `proof_from_sexp` recursed once per proof level:
    # at the default limit of 1,000 frames `print_proof` of chain-320 raised
    # `RecursionError`; a chain of 1,500 Cut nodes on one atom restates one
    # short formula per node (18 MB of text, nearly all indentation)
    here = Path(__file__).resolve().parent
    code = (
        "import sys; from lpm import llproof, tff; from lpm.llproof import LLProof, Ax, Cut\n"
        "assert sys.getrecursionlimit() == 1000\n"
        "thy = tff.TffTheory('t', (tff.PredDecl('P', (), ()),)); p = tff.Pred('P')\n"
        "tree = LLProof(Ax(p))\n"
        "for _ in range(1500): tree = LLProof(Cut(p), (tree, LLProof(Ax(p))))\n"
        "text = llproof.print_proof(thy, p, tree)\n"
        "goal, back = llproof.parse_proof(text, thy)\n"
        "depth = 0\n"
        "while back.premises: back, depth = back.premises[0], depth + 1\n"
        "print(depth, llproof.print_proof(thy, goal, llproof.parse_proof(text, thy)[1]) == text, len(text))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split()[:2] == ["1500", "True"]


# ---------------------------------------------------------------------------
# rule rows and the intern table


def test_a_rule_row_whose_kinds_do_not_match_its_class_is_refused():
    # `zip` over a row's kinds and its class's fields dropped the extra ones
    consumes = blocks = lambda r, f: []
    with pytest.raises(TypeError, match="^And has 2 fields, 1 kinds given$"):
        llproof._rule(llproof.And, "and", "R_and", (tff.FORMULA,), consumes, blocks)
    with pytest.raises(TypeError, match="^Ax has 1 fields, 2 kinds given$"):
        llproof._rule(llproof.Ax, "ax", "R_Ax", (tff.FORMULA, tff.FORMULA), consumes, blocks)


def _restated(x):
    """`x` with every record in it, each formula included, a separate copy."""
    if isinstance(x, tuple):
        return tuple(_restated(y) for y in x)
    if isinstance(x, Record):
        return type(x)(*(_restated(v) for v in values(x)))
    return x


def _records(x):
    """Every record in `x`."""
    if isinstance(x, Record):
        yield x
        x = values(x)
    if isinstance(x, tuple):
        for y in x:
            yield from _records(y)


@pytest.mark.parametrize("make, accepted", [
    (lambda: forall_gen.certificate(12)[:3], True),
    (lambda: forall_gen.certificate(12, "reused", 5)[:3], False),
    (lambda: chain_certificate(8, {3}), False),
], ids=["notforall-12", "notforall-12-reused-5", "chain-8-bad-3"])
def test_a_restated_proof_compiles_as_the_shared_one(make, accepted):
    # a proof whose equal formulas are separate objects meets the intern
    # table only by value: same verdict, path and cert.dk as the original
    thy, goal, proof = make()
    copy = _restated(proof)
    assert copy == proof and not {id(r) for r in _records(copy)} & {id(r) for r in _records(proof)}
    verdicts = [check_certificate(thy, goal, tree) for tree in (proof, copy)]
    shown = [(v.accepted, v.error, v.path, dkprint.print_file(list(v.entries))) for v in verdicts]
    assert shown[0] == shown[1] and shown[0][0] is accepted
