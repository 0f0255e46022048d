"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and progress.  Criterion 7 sweeps every ground boolean term up to
size 12 (about 3.2 million terms) and takes a few minutes on one core;
everything else finishes in seconds.
"""

import random
import time

import bool_oracle
from mutations import enumerate_mutations
from references import SET_DIFF_TREE_SHAPE, bool_commute_reference_body, corpus_dk_files, eliminate_pred_fun, tree_shape
from theory_gen import check_translation_bullets, random_theory
from lpm import dkparse, dkprint, embed, examples, kernel, llproof, signature, tff
from lpm.llproof import LLProof, check_certificate
from lpm.terms import Const, app


def report(n: int, message: str) -> None:
    print(f"criterion {n}: PASS: {message}")


def test_criterion_1_prelude_soundness():
    t0 = time.perf_counter()
    sig = signature.install_entries(signature.EMPTY, embed.prelude("shallow"))
    signature.install_entries(sig, llproof.rules_prelude("shallow"))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"prelude check took {elapsed:.2f}s"
    report(1, f"logic and shallow rules preludes check from empty in {elapsed*1000:.0f}ms")


def test_criterion_2_bool_commute_replay():
    t0 = time.perf_counter()
    thy, goal, proof = examples.bool_theory(), examples.bool_commute_goal(), examples.bool_commute_proof()
    verdicts = {}
    for mode in ("deep", "shallow"):
        verdicts[mode] = check_certificate(thy, goal, proof, mode)
        assert verdicts[mode].accepted, verdicts[mode].error
    assert verdicts["shallow"].entries[0].body == bool_commute_reference_body()
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"replay took {elapsed:.2f}s"
    report(2, f"commutativity certificate accepted in both modes, term matches the reference ({elapsed*1000:.0f}ms)")


def test_criterion_3_set_diff_replay():
    t0 = time.perf_counter()
    thy, goal, proof = examples.set_theory(), examples.set_diff_goal(), examples.set_diff_proof()
    for mode in ("deep", "shallow"):
        v = check_certificate(thy, goal, proof, mode)
        assert v.accepted, v.error
    assert tree_shape(proof) == SET_DIFF_TREE_SHAPE
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"replay took {elapsed:.2f}s"
    report(3, f"set-difference certificate accepted in both modes, tree matches node for node ({elapsed*1000:.0f}ms)")


def test_criterion_4_projection_collapse(base_sigs):
    sig = base_sigs("pair-fst-snd", "shallow")
    thy, goal, proof = examples.pair_theory(), examples.pair_goal(), examples.pair_proof()
    t0 = time.perf_counter()
    lhs = embed.translate(goal, "pairs")
    rhs = app(Const("logic.eq"), Const("pairs.elem"), Const("pairs.a"), Const("pairs.a"))
    assert kernel.convertible(sig, lhs, rhs)
    v = check_certificate(thy, goal, proof, "shallow", sig=sig)
    assert v.accepted, v.error
    assert proof.premises == () and isinstance(proof.rule, llproof.Neq)
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.1, f"took {elapsed*1000:.1f}ms"
    report(4, f"projection equation convertible to reflexivity, one-node certificate accepted ({elapsed*1000:.1f}ms)")


def _decomp_theory() -> tff.TffTheory:
    tau = tff.TCons("tau")
    items = [tff.TypeCons("tau", 0)]
    for k in range(5):
        items.append(tff.PredDecl(f"P{k}", (), (tau,) * k))
        items.append(tff.FunDecl(f"g{k}", (), (tau,) * k, tau))
    for i in range(1, 5):
        items.append(tff.FunDecl(f"c{i}", (), (), tau))
        items.append(tff.FunDecl(f"d{i}", (), (), tau))
        items.append(tff.TermRule((), (), tff.Fun(f"d{i}"), tff.Fun(f"c{i}")))
    items.append(tff.FunDecl("e", (), (), tau))
    return tff.TffTheory("decomp", tuple(items))


def _decomp_instance(rng: random.Random):
    """One randomized Pred or Fun refutation; returns (goal, tree)."""
    tau = tff.TCons("tau")
    arity = rng.randint(0, 4)
    ts = tuple(tff.Fun(f"c{rng.randint(1, 4)}") for _ in range(arity))
    sabotage = rng.random() < 0.4
    us = []
    for i, t in enumerate(ts):
        if sabotage and i == arity - 1:
            us.append(tff.Fun("e"))
        else:
            us.append(tff.Fun("d" + t.name[1:]))
    us = tuple(us)
    eq_tys = (tau,) * arity
    leaves = tuple(
        LLProof(llproof.Neq(tau, t), (), (tff.Not(tff.Eq(tau, t, u)),)) for t, u in zip(ts, us)
    )
    if rng.random() < 0.5:
        name = f"P{arity}"
        lhs, rhs = tff.Pred(name, (), ts), tff.Pred(name, (), us)
        goal = tff.Implies(lhs, rhs)
        node = LLProof(llproof.Pred(name, (), ts, us, eq_tys), leaves)
        tree = LLProof(llproof.NotImp(lhs, rhs), (node,))
    else:
        name = f"g{arity}"
        goal = tff.Eq(tau, tff.Fun(name, (), ts), tff.Fun(name, (), us))
        tree = LLProof(
            llproof.Fun(name, (), ts, us, eq_tys, tau), leaves, (tff.Not(goal),)
        )
    return goal, tree


def test_criterion_5_pred_fun_decomposition():
    thy = _decomp_theory()
    sig = llproof.base_signature(thy, "shallow")

    # the fixed binary demo and its eliminated image both check
    demo_thy = examples.pred_decomp_theory()
    demo_sig = llproof.base_signature(demo_thy, "shallow")
    goal, proof = examples.pred_decomp_goal(), examples.pred_decomp_proof()
    v1 = check_certificate(demo_thy, goal, proof, sig=demo_sig)
    v2 = check_certificate(demo_thy, goal, eliminate_pred_fun(proof), sig=demo_sig)
    assert v1.accepted and v2.accepted

    rng = random.Random(2024)
    accepted = rejected = 0
    for i in range(100):
        goal, tree = _decomp_instance(rng)
        a = check_certificate(thy, goal, tree, sig=sig)
        b = check_certificate(thy, goal, eliminate_pred_fun(tree), sig=sig)
        assert a.accepted == b.accepted, (i, a.error, b.error)
        if a.accepted:
            accepted += 1
        else:
            rejected += 1
    assert accepted and rejected
    report(5, f"verdicts agree on 100 randomized instances ({accepted} accepted, {rejected} rejected)")


def test_criterion_6_translation_correctness(logic_shallow):
    t0 = time.perf_counter()
    for thy in (examples.bool_theory(), examples.set_theory()):
        sig = signature.install_entries(logic_shallow, embed.theory_entries(thy))
        check_translation_bullets(thy, sig, seed=0)
    for seed in range(200):
        thy = random_theory(seed)
        sig = signature.install_entries(logic_shallow, embed.theory_entries(thy))
        check_translation_bullets(thy, sig, seed, samples=4)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    report(6, f"four correctness properties hold on the corpus plus 200 random theories ({elapsed:.1f}s)")


def test_criterion_7_normalization_oracle(bool_sig, capsys):
    """normalize agrees with independent rewriters on every ground boolean
    term of size <= 12.

    The all-rewrite-sequences oracle confirms unique normal forms exhaustively
    for every term it can exhaust at desk scale (size <= 6; the reachable-set
    closure explodes combinatorially beyond that); the full domain up to
    size 12 is swept against two independent fixed-strategy rewriters, plus
    randomly sampled reduction sequences.  Zero disagreements anywhere.
    """
    t0 = time.perf_counter()
    fuel = kernel.Fuel(10**9)
    by_size = bool_oracle.enumerate_terms(12)

    # tier 1: exhaustive all-sequences oracle on everything it can exhaust
    for size in range(1, 7):
        for t in by_size[size]:
            nf = bool_oracle.exhaustive_nf(t)
            assert bool_oracle.from_kterm(kernel.normalize(bool_sig, bool_oracle.to_kterm(t), fuel)) == nf
            assert bool_oracle.innermost_nf(t) == nf
            assert bool_oracle.outermost_nf(t) == nf

    # tier 2: random reduction sequences confirm order independence deeper in
    rng = random.Random(5)
    for size in range(7, 13):
        for t in rng.sample(by_size[size], 40):
            expect = bool_oracle.innermost_nf(t)
            for _ in range(3):
                assert bool_oracle.random_sequence_nf(t, rng) == expect

    # tier 3: the full sweep against both fixed-strategy rewriters
    count = 0
    for size in range(1, 13):
        for t in by_size[size]:
            eng = bool_oracle.from_kterm(kernel.normalize(bool_sig, bool_oracle.to_kterm(t), fuel))
            if eng != bool_oracle.innermost_nf(t) or eng != bool_oracle.outermost_nf(t):
                raise AssertionError(f"disagreement at {t}")
            count += 1
        with capsys.disabled():
            print(f"  criterion 7: size {size} done ({count} terms, {time.perf_counter()-t0:.0f}s)")
    elapsed = time.perf_counter() - t0
    report(7, f"zero disagreements on {count} terms up to size 12 ({elapsed:.0f}s)")


def test_criterion_8_mutation_rejection(base_sigs):
    cases = []
    for name in ("bool-commute", "set-diff"):
        mk_thy, mk_goal, mk_proof = examples.BUILTINS[name]
        for label, mutated in enumerate_mutations(mk_proof()):
            cases.append((name, label, mk_thy(), mk_goal(), mutated))
    assert len(cases) >= 50, f"only {len(cases)} mutations generated"
    cases = cases[:50] if len(cases) > 50 else cases
    false_accepts = []
    for name, label, thy, goal, mutated in cases:
        v = check_certificate(thy, goal, mutated, sig=base_sigs(name, "shallow"))
        if v.accepted:
            false_accepts.append(f"{name}/{label}")
        else:
            assert v.path is not None, f"{name}/{label} rejected without a node path: {v.error}"
    assert not false_accepts, false_accepts
    report(8, f"{len(cases)} single-node mutations all rejected with localized errors")


def test_criterion_9_round_trip():
    files = corpus_dk_files()
    for label, entries in files:
        text = dkprint.print_file(entries)
        assert dkparse.parse_file(text) == list(entries), label
        assert dkprint.print_file(dkparse.parse_file(text)) == text, label
    report(9, f"parse/print identity and printer fixed point on {len(files)} emitted files")
