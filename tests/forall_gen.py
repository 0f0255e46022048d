"""The NotForall chain: first-order certificates with n eigenvariables.

The chain-n certificate refutes `forall x0 ... x(n-1). P(x0) \\/ ~P(x0)`
over one sort `i` and one predicate `P : i`: n NotForall nodes, each
introducing its eigenvariable `c_k`, then NotOr, NotNot and Ax on
`P(c0)`.  Every hypothesis in scope mentions `c0`, so a compiler that
rescans the sequent for each eigenvariable does work cubic in n.

The clash variants break one freshness side condition at NotForall node
`at`: `reused` takes `c0`, already introduced above it, as that node's
eigenvariable; `in_sequent` first cuts on `P(d)`, a formula whose free
name `d` is no eigenvariable, and then introduces `d` in the cut's first
branch.
"""

from __future__ import annotations

from typing import Optional

from lpm import llproof, tff
from lpm.llproof import LLProof

SORT = tff.TCons("i")


def theory() -> tff.TffTheory:
    return tff.TffTheory("fo", (tff.TypeCons("i", 0), tff.PredDecl("P", (), (SORT,))))


def _p(x: str) -> tff.Pred:
    return tff.Pred("P", (), (tff.Var(x),))


def certificate(n: int, clash: Optional[str] = None, at: int = 0
                ) -> tuple[tff.TffTheory, tff.TffFormula, LLProof, Optional[tuple[int, ...]]]:
    """Theory, goal and refutation of the chain-n, and the path of the
    node a clash variant is rejected at (None for the valid chain)."""
    if clash not in (None, "reused", "in_sequent") or not 0 <= at < n or (clash == "reused" and at == 0):
        raise ValueError(f"no clash {clash!r} at NotForall node {at} of {n}")
    consts = [f"c{k}" for k in range(n)]
    if clash == "reused":
        consts[at] = "c0"
    elif clash == "in_sequent":
        consts[at] = "d"
    c0 = _p(consts[0])
    # bodies[k]: what NotForall node k's hypothesis quantifies, x0 already
    # instantiated for k > 0; equal subformulas are one object, as read
    bodies: list[tff.TffFormula] = [tff.Or(c0, tff.Not(c0))]
    for k in range(n - 1, 1, -1):
        bodies.append(tff.Forall(f"x{k}", SORT, bodies[-1]))
    body = tff.Or(_p("x0"), tff.Not(_p("x0")))
    for k in range(n - 1, 0, -1):
        body = tff.Forall(f"x{k}", SORT, body)
    goal = tff.Forall("x0", SORT, body)
    bodies = [body] + bodies[::-1] if n > 1 else [body]
    tree = LLProof(llproof.Ax(c0))
    tree = LLProof(llproof.NotNot(c0), (tree,))
    tree = LLProof(llproof.NotOr(c0, tff.Not(c0)), (tree,))
    for k in range(n - 1, -1, -1):
        tree = LLProof(llproof.NotForall(SORT, f"x{k}", bodies[k], consts[k]), (tree,))
    path = None if clash is None else (0,) * at
    if clash == "in_sequent":
        cut = _p("d")
        tree = LLProof(llproof.Cut(cut), (tree, LLProof(llproof.Ax(cut))))
        path = (0,) + path
    return theory(), goal, tree, path
