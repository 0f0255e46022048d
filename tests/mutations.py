"""Systematic single-node corruptions of proof trees.

Each mutation flips exactly one aspect of one node (swapped premises,
a wrong witness or rule parameter, a stale eigenvariable, a corrupted
consumed-hypothesis annotation, a dropped premise) and must make the
certificate fail with an error localized to a proof node.  Chain
certificates with chosen bad leaves give rejections of any size whose
failing paths are known from the tree's shape.
"""

from __future__ import annotations

from lpm import llproof, tff
from lpm.record import replace


def _with_premises(p: llproof.LLProof, premises) -> llproof.LLProof:
    return llproof.LLProof(p.rule, tuple(premises), p.concls)


def _replace_at(p: llproof.LLProof, path: tuple[int, ...], fn) -> llproof.LLProof:
    if not path:
        return fn(p)
    i = path[0]
    premises = list(p.premises)
    premises[i] = _replace_at(premises[i], path[1:], fn)
    return _with_premises(p, premises)


def _all_paths(p: llproof.LLProof, prefix: tuple[int, ...] = ()):
    yield prefix, p
    for i, q in enumerate(p.premises):
        yield from _all_paths(q, prefix + (i,))


_WRONG = tff.Top()


def _node_mutations(node: llproof.LLProof):
    """(label, replacement) pairs corrupting this one node."""
    rule = node.rule
    out = []
    if len(node.premises) == 2:
        out.append(("swap-premises", _with_premises(node, (node.premises[1], node.premises[0]))))
    if node.premises:
        out.append(("drop-premise", _with_premises(node, node.premises[:-1])))
    if node.concls is not None:
        out.append(
            ("corrupt-conclusion", llproof.LLProof(rule, node.premises, (_WRONG,) + node.concls[1:]))
        )
    if node.premises:
        out.append(("duplicate-premise", _with_premises(node, node.premises + node.premises[-1:])))
    if node.concls is None and not isinstance(rule, llproof.Ext):
        out.append(("force-wrong-conclusion", llproof.LLProof(rule, node.premises, (_WRONG,))))
    match rule:
        case llproof.Neq(ty=ty, t=t):
            wrong = tff.Fun("true") if t != tff.Fun("true") else tff.Fun("false")
            out.append(("wrong-witness", llproof.LLProof(llproof.Neq(ty, wrong), node.premises, node.concls)))
            out.append(("neq-to-bot", llproof.LLProof(llproof.Bot(), node.premises, node.concls)))
        case llproof.Ax(p=p):
            out.append(("negate-param", llproof.LLProof(llproof.Ax(tff.Not(p)), node.premises, node.concls)))
            out.append(("weaken-param", llproof.LLProof(llproof.Ax(_WRONG), node.premises, node.concls)))
        case llproof.Bot():
            out.append(("bot-to-nottop", llproof.LLProof(llproof.NotTop(), node.premises, node.concls)))
        case llproof.NotForall():
            # renaming the fresh constant to another fresh name is a mere
            # alpha-variant and must stay accepted, so corrupt the body
            out.append(("corrupt-body", llproof.LLProof(replace(rule, body=_WRONG), node.premises, node.concls)))
        case llproof.NotForallType():
            out.append(("corrupt-body", llproof.LLProof(replace(rule, body=_WRONG), node.premises, node.concls)))
        case llproof.And(p=p, q=q) | llproof.NotIff(p=p, q=q):
            if p != q:
                out.append(("swap-params", llproof.LLProof(type(rule)(q, p), node.premises, node.concls)))
            out.append(("corrupt-left-param", llproof.LLProof(type(rule)(_WRONG, q), node.premises, node.concls)))
        case llproof.Ext(args=args, hyp_blocks=blocks):
            if blocks:
                corrupted = ((_WRONG,),) + blocks[1:]
                out.append(("corrupt-ext-block", llproof.LLProof(replace(rule, hyp_blocks=corrupted), node.premises, node.concls)))
            out.append(("rename-ext", llproof.LLProof(replace(rule, name="no-such-ext"), node.premises, node.concls)))
            if args and isinstance(args[0], llproof.AbsArg):
                bad = (replace(args[0], body=_WRONG),) + args[1:]
                out.append(("corrupt-ext-abs", llproof.LLProof(replace(rule, args=bad), node.premises, node.concls)))
        case llproof.Subst(t=t, u=u):
            out.append(("swap-subst-terms", llproof.LLProof(replace(rule, t=u, u=t), node.premises, node.concls)))
        case _:
            pass
    return out


def _nonfresh_mutations(proof: llproof.LLProof):
    """Rename an inner eigenvariable to one already introduced above it."""
    out = []

    def walk(p: llproof.LLProof, path, in_scope: tuple[str, ...]):
        rule = p.rule
        intro = None
        if isinstance(rule, (llproof.Exists, llproof.NotForall)):
            intro = rule.const
            if in_scope:
                clash = replace(rule, const=in_scope[-1])
                out.append((f"nonfresh-const-at-{list(path)}", path, llproof.LLProof(clash, p.premises, p.concls)))
        elif isinstance(rule, (llproof.ExistsType, llproof.NotForallType)):
            intro = rule.fresh_type
            if in_scope:
                clash = replace(rule, fresh_type=in_scope[-1])
                out.append((f"nonfresh-type-at-{list(path)}", path, llproof.LLProof(clash, p.premises, p.concls)))
        scope = in_scope + ((intro,) if intro else ())
        for i, q in enumerate(p.premises):
            walk(q, path + (i,), scope)

    walk(proof, (), ())
    return [(label, _replace_at(proof, path, lambda _n, repl=repl: repl)) for label, path, repl in out]


def enumerate_mutations(proof: llproof.LLProof) -> list[tuple[str, llproof.LLProof]]:
    """Deterministic list of single-node mutations of `proof`."""
    out: list[tuple[str, llproof.LLProof]] = []
    for path, node in _all_paths(proof):
        for label, mutated in _node_mutations(node):
            out.append(
                (f"{label}-at-{list(path)}", _replace_at(proof, path, lambda _n, m=mutated: m))
            )
    out.extend(_nonfresh_mutations(proof))
    return out


def chain_certificate(n: int, bad=()) -> tuple[tff.TffTheory, tff.TffFormula, llproof.LLProof]:
    """The chain-n refutation of `A => A`, A = P0 /\\ (P1 /\\ ...): NotImp,
    an And chain, a NotAnd chain and Ax leaves; each leaf in `bad` names
    hypotheses (P_{i+1}, ~P_i) that are in scope but do not close it."""
    preds = [tff.Pred(f"P{i}") for i in range(n)]
    thy = tff.TffTheory(f"chain{n}", tuple(tff.PredDecl(p.name, (), ()) for p in preds))
    conj = [preds[-1]] * n
    for i in range(n - 2, -1, -1):
        conj[i] = tff.And(preds[i], conj[i + 1])

    def leaf(i):
        return llproof.LLProof(llproof.Ax(preds[i]), (), (preds[i + 1], tff.Not(preds[i])) if i in bad else None)

    tree = llproof.LLProof(llproof.NotAnd(preds[n - 2], conj[n - 1]), (leaf(n - 2), leaf(n - 1)))
    for i in range(n - 3, -1, -1):
        tree = llproof.LLProof(llproof.NotAnd(preds[i], conj[i + 1]), (leaf(i), tree))
    for i in range(n - 2, -1, -1):
        tree = llproof.LLProof(llproof.And(preds[i], conj[i + 1]), (tree,))
    tree = llproof.LLProof(llproof.NotImp(conj[0], conj[0]), (tree,))
    return thy, tff.Implies(conj[0], conj[0]), tree


# an item that collides, under the theory name, with one of lpm's own modules:
# `cert.goal` with the certificate, `logic.Prop` and `rules.R_Ax` with the preludes
_RESERVED = {
    "cert": tff.Axiom("goal", tff.Pred("P0")),
    "logic": tff.PredDecl("Prop", (), ()),
    "rules": tff.PredDecl("R_Ax", (), ()),
}


def reserved_name_certificate(name: str, rename: str = "") -> tuple[tff.TffTheory, tff.TffFormula, llproof.LLProof]:
    """The valid chain-2 certificate against its theory, named `rename or
    name` and extended by the item that collides with lpm's module `name`."""
    thy, goal, proof = chain_certificate(2)
    return tff.TffTheory(rename or name, thy.items + (_RESERVED[name],)), goal, proof


def chain_leaf_path(n: int, i: int) -> tuple[int, ...]:
    # NotImp, n - 1 And nodes, then leaf i is premise 0 of the i-th NotAnd
    return (0,) * n + (1,) * i + (0,)
