"""Seeded input generators with known answers.

Everything here is a pure function of its arguments (and of a
`random.Random` the caller seeds), so one seed always yields the same
inputs.  The known answers are fixed by construction or computed by an
oracle that does not use `lpm.kernel`:

* chain-n certificates (ROADMAP "chain-n"): n nullary predicates, the goal
  `A => A` with `A = P0 /\\ (P1 /\\ ...)`, refuted by NotImp, an And chain,
  a NotAnd chain and Ax leaves.  A rejected variant corrupts one Ax leaf's
  consumed-hypothesis annotation to `(P_{i+1}, ~P_i)`: both hypotheses are
  in scope, so translation succeeds and the kernel rejects the leaf, whose
  path is known from the tree shape.
* ground boolean terms over true/false/notb/andb/orb (the domain of
  acceptance criterion 7), drawn uniformly by size, with the normal form
  from an innermost rewriter written here from the theory's rules.
"""

from __future__ import annotations

import random

from lpm import llproof, tff
from lpm.llproof import LLProof

# ---------------------------------------------------------------------------
# chain-n certificates


def chain_theory(n: int, rng: random.Random) -> tuple[tff.TffTheory, list[tff.Pred]]:
    """A theory of n nullary predicates, declared in a seeded order under
    seeded names; returns the theory and the predicates in chain order."""
    tag = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(3))
    names = [f"P{tag}{i}" for i in range(n)]
    decl_order = list(names)
    rng.shuffle(decl_order)
    thy = tff.TffTheory(f"chain{n}", tuple(tff.PredDecl(name, (), ()) for name in decl_order))
    return thy, [tff.Pred(name) for name in names]


def chain_certificate(
    preds: list[tff.Pred], bad: int | None = None
) -> tuple[tff.TffFormula, LLProof, tuple[int, ...] | None, int]:
    """Goal, refutation tree, expected failing path (None when valid) and
    node count of the chain certificate over `preds`.

    `bad` names the Ax leaf (0 <= bad <= n-2) whose annotation is corrupted.
    """
    n = len(preds)
    if n < 2:
        raise ValueError("chain-n needs n >= 2")
    if bad is not None and not 0 <= bad <= n - 2:
        raise ValueError(f"bad leaf {bad} out of range for n={n}")
    # conj[i] = P_i /\ conj[i+1], conj[n-1] = P_{n-1}
    conj: list[tff.TffFormula] = [preds[-1]] * n
    for i in range(n - 2, -1, -1):
        conj[i] = tff.And(preds[i], conj[i + 1])

    def leaf(i: int) -> LLProof:
        if i == bad:
            return LLProof(llproof.Ax(preds[i]), (), (preds[i + 1], tff.Not(preds[i])))
        return LLProof(llproof.Ax(preds[i]))

    # NotAnd chain on ~conj[0]: premise 0 closes P_i, premise 1 continues
    tree = LLProof(llproof.NotAnd(preds[n - 2], conj[n - 1]), (leaf(n - 2), leaf(n - 1)))
    for i in range(n - 3, -1, -1):
        tree = LLProof(llproof.NotAnd(preds[i], conj[i + 1]), (leaf(i), tree))
    # And chain on conj[0] opens every P_i
    for i in range(n - 2, -1, -1):
        tree = LLProof(llproof.And(preds[i], conj[i + 1]), (tree,))
    goal = tff.Implies(conj[0], conj[0])
    tree = LLProof(llproof.NotImp(conj[0], conj[0]), (tree,))

    path = None
    if bad is not None:
        # NotImp at (), And_k at (0,)*(k+1), NotAnd_j at (0,)*n + (1,)*j,
        # and leaf i < n-1 is premise 0 of NotAnd_i
        path = (0,) * n + (1,) * bad + (0,)
    nodes = 1 + (n - 1) + (n - 1) + n
    return goal, tree, path, nodes


# ---------------------------------------------------------------------------
# ground boolean terms
#
# Terms are nested tuples ("T",), ("F",), ("n", x), ("a", x, y), ("o", x, y).

T = ("T",)
F = ("F",)


def count_terms(max_size: int) -> list[int]:
    """counts[s] = number of ground terms with s nodes (index 0 unused)."""
    counts = [0, 2]
    for s in range(2, max_size + 1):
        total = counts[s - 1]
        for i in range(1, s - 1):
            total += 2 * counts[i] * counts[s - 1 - i]
        counts.append(total)
    return counts


def unrank(size: int, r: int, counts: list[int]) -> tuple:
    """The r-th term of the given size, 0 <= r < counts[size]."""
    if size == 1:
        return (T, F)[r]
    if r < counts[size - 1]:
        return ("n", unrank(size - 1, r, counts))
    r -= counts[size - 1]
    for i in range(1, size - 1):
        j = size - 1 - i
        block = counts[i] * counts[j]
        for op in ("a", "o"):
            if r < block:
                return (op, unrank(i, r // counts[j], counts), unrank(j, r % counts[j], counts))
            r -= block
    raise ValueError("rank out of range")


def all_terms(max_size: int) -> list[tuple]:
    counts = count_terms(max_size)
    return [unrank(s, r, counts) for s in range(1, max_size + 1) for r in range(counts[s])]


def random_term(size: int, rng: random.Random, counts: list[int]) -> tuple:
    return unrank(size, rng.randrange(counts[size]), counts)


def _head_step(t: tuple) -> tuple | None:
    """One head rewrite of the boolean theory, rules tried in declaration
    order (see `lpm.examples.bool_theory`), or None when none applies."""
    op = t[0]
    if op == "a":
        x, y = t[1], t[2]
        if x == T:
            return y
        if y == T:
            return x
        if x == F or y == F:
            return F
        if x == y:
            return x
        if y[0] == "a":
            return ("a", ("a", x, y[1]), y[2])
        if y[0] == "o":
            return ("o", ("a", x, y[1]), ("a", x, y[2]))
        if x[0] == "o":
            return ("o", ("a", x[1], y), ("a", x[2], y))
        return None
    if op == "o":
        x, y = t[1], t[2]
        if x == T or y == T:
            return T
        if x == F:
            return y
        if y == F:
            return x
        if x == y:
            return x
        if y[0] == "o":
            return ("o", ("o", x, y[1]), y[2])
        return None
    if op == "n":
        x = t[1]
        if x == T:
            return F
        if x == F:
            return T
        if x[0] == "n":
            return x[1]
        if x[0] == "o":
            return ("a", ("n", x[1]), ("n", x[2]))
        if x[0] == "a":
            return ("o", ("n", x[1]), ("n", x[2]))
    return None


def normal_form(t: tuple, memo: dict[tuple, tuple] | None = None) -> tuple:
    """Innermost normal form: arguments first, then head steps to a fixpoint."""
    memo = {} if memo is None else memo
    done = memo.get(t)
    if done is not None:
        return done
    if t[0] == "n":
        u = ("n", normal_form(t[1], memo))
    elif t[0] in ("a", "o"):
        u = (t[0], normal_form(t[1], memo), normal_form(t[2], memo))
    else:
        u = t
    step = _head_step(u)
    while step is not None:
        u = normal_form(step, memo)
        step = _head_step(u)
    memo[t] = u
    return u


def term_size(t: tuple) -> int:
    return 1 + sum(term_size(x) for x in t[1:])


# ---------------------------------------------------------------------------
# small certificate files for the command line


def write_example_inputs(directory, thy: tff.TffTheory, goal: tff.TffFormula, proof: LLProof, stem: str):
    """Write `<stem>.tffx` and `<stem>.llpx`; returns both paths."""
    tffx = directory / f"{stem}.tffx"
    llpx = directory / f"{stem}.llpx"
    tffx.write_text(tff.print_theory(thy), encoding="utf-8")
    llpx.write_text(llproof.print_proof(thy, goal, proof), encoding="utf-8")
    return tffx, llpx
