"""Reduction modulo rewriting, conversion, and type checking.

The trusted core: weak-head and full normalization under beta plus the
signature's rewrite rules, the conversion test, and the bidirectional
typing judgment.  All operations are pure functions of a signature and a
term; a shared fuel budget makes divergent user rewrite systems fail
loudly instead of hanging.  An error keeps the terms it names, and the
untrusted `lpm.dkprint` words it only when it is read.

`whnf` is the one reduction entry point and the head it returns is final,
so typing reads products and sorts off it, and conversion compares final
heads before the parts below them.  No binder is opened (see `terms`):
typing carries the enclosing binders' types as a de Bruijn context, and
conversion and `normalize` work on binder bodies in place.  An application
spine is typed in one frame, and the arguments passed are put into its
type at once (`terms.instantiate_many`), only where the type is read.
That frame's loop types a constant head or argument, and a locally closed
one already in the memo, itself; any other opens a frame.

A head's rules are compiled on first use into one decision tree per
argument count, which fires the first matching rule in install order.  It
tests head constants and spine lengths, of subjects made final by whnf
first (so an argument is reduced only as far as a pattern needed), and a
repeated variable's occurrences.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional

from .terms import (
    KIND,
    TYPE,
    App,
    Const,
    FVar,
    KTerm,
    Lam,
    Pi,
    Sort,
    Var,
    app,
    instantiate,
    instantiate_many,
    shift,
    spine,
    substitute,
)

if TYPE_CHECKING:
    from .signature import Signature


DEFAULT_REWRITE_STEPS = 100_000


class KernelError(Exception):
    """Base class for kernel failures.  One that names terms holds its text,
    the terms that fill its `{}` slots and last the enclosing binders, for
    `lpm.dkprint.describe` to word.

    `trail` locates the failure in the term handed to `infer` or `check`:
    each `_infer` frame the error leaves through appends the child it came
    from (0: function or binder domain, 1: argument or binder body), so it
    runs innermost first.  No verdict depends on it.
    """

    def __init__(self, *args: object):
        super().__init__(*args)
        self.trail: list[int] = []

    def __str__(self) -> str:
        from .dkprint import describe
        return describe(self)

    @property
    def position(self) -> tuple[int, ...]:
        """Child indices from the checked term down to the failing subterm."""
        return tuple(reversed(self.trail))


class FuelExhausted(KernelError):
    pass


class UnboundIdentifier(KernelError):
    pass


class NotAFunction(KernelError):
    pass


class SortError(KernelError):
    pass


class UntypableKind(KernelError):
    pass


class TypeMismatch(KernelError):
    """Failed conversion check: `expected` and `actual` are the types as compared, not their
    normal forms, which the message shows as far as `sig` and the `steps` then left reach."""

    def __init__(self, expected: KTerm, actual: KTerm, binders: Binders = (), sig: Signature | None = None, steps=0):
        super().__init__("type mismatch: expected {}, found {}", expected, actual, binders)
        self.expected = expected
        self.actual = actual
        self.sig, self.steps = sig, steps


class Fuel:
    """A budget of rewrite steps, shared by every kernel call given it.

    The counter only decreases; running out raises `FuelExhausted` rather
    than silently accepting or rejecting anything.
    """

    __slots__ = ("max_rewrite_steps", "steps_left")

    def __init__(self, max_rewrite_steps: int = DEFAULT_REWRITE_STEPS):
        if max_rewrite_steps < 0:
            raise ValueError("the fuel budget must be nonnegative")
        self.max_rewrite_steps = max_rewrite_steps
        self.steps_left = max_rewrite_steps

    def step(self) -> None:
        if self.steps_left <= 0:
            raise FuelExhausted(f"rewrite budget of {self.max_rewrite_steps} steps exhausted")
        self.steps_left -= 1


class RewriteRule:
    """An installed rule `lhs --> rhs`: `lhs` is the constant `head` applied
    to the first-order patterns `lhs_args`, as `Signature.add_rewrite`
    checks before it builds one."""

    __slots__ = ("rhs", "head", "lhs_args", "arity")

    def __init__(self, lhs: KTerm, rhs: KTerm):
        head, args = spine(lhs)
        self.rhs = rhs
        self.head = head.name
        self.lhs_args = tuple(args)
        self.arity = len(args)


class Rules:
    """A head's rules in install order, and the decision tree that matches
    them against n arguments, built for each n on first use.  A signature
    that gains a rule for the head gets a new `Rules`, so no tree goes stale."""

    __slots__ = ("rules", "arity", "trees")

    def __init__(self, rules: tuple[RewriteRule, ...]):
        self.rules = rules
        self.arity = max(r.arity for r in rules)
        self.trees: list[object] = [None] * (self.arity + 1)


class _Switch:
    """A decision-tree node: the subject at position `pos` selects a child
    from `cases` by its head constant and spine length, else `default`.  A
    leaf is (), for no match, or a rule with the position of each of its
    variables, the pairs of positions that must hold equal terms, and the
    node to go on with when they do not."""

    __slots__ = ("pos", "cases", "default")

    def __init__(self, pos: int):
        self.pos = pos
        self.cases: dict[tuple[str, int], object] = {}


def _compile(rules: tuple[RewriteRule, ...], n: int) -> object:
    """The decision tree of the rules of arity at most n against n arguments
    (Maranget, "Compiling pattern matching to good decision trees", 2008).
    Argument j is at position n - 1 - j, as on the spine, innermost last;
    a switch that selects `c a1 ... am` puts `ai` at position P + m - i,
    P being the number of positions so far."""
    rows = (_row(rule, (), (), [(n - 1 - j, p, (j,)) for j, p in enumerate(rule.lhs_args)])
            for rule in rules if rule.arity <= n)
    return _tree(tuple(rows), n, {})


def _row(rule: RewriteRule, tests: tuple, occs: tuple, placed: list) -> tuple:
    """A row of the matrix: a rule, its patterns still to test as (position,
    pattern, scan key), in key order, and its variables' occurrences as (scan
    key, name, position), extended by the `placed` patterns.  Scan keys order
    patterns left to right by argument, right to left in a spine and each
    after the one it is an argument of: a variable is bound at its first,
    and a subject tested, so reduced, as a walk of the patterns reaches it."""
    for pos, pat, key in placed:
        if type(pat) is FVar:
            occs += ((key, pat.name, pos),)
        else:
            tests += ((pos, pat, key),)
    return rule, tuple(sorted(tests, key=lambda test: test[2])), occs


def _tree(rows: tuple, npos: int, memo: dict) -> object:
    """The tree for `rows`, in install order.  Equal rows over as many
    positions share one subtree, so the rows after a rule whose repeated
    variables may differ are compiled once, not once per branch."""
    if not rows:
        return ()
    if (rows, npos) in memo:
        return memo[rows, npos]
    rule, tests, occs = rows[0]
    if not tests:  # the first row fires unless its repeated variables differ
        first: dict[str, int] = {}
        equal = []
        for _, name, pos in sorted(occs):
            if name in first:
                equal.append((first[name], pos))
            else:
                first[name] = pos
        node = rule, tuple(first.items()), tuple(equal), _tree(rows[1:], npos, memo) if equal else ()
    else:
        node = _Switch(tests[0][0])  # settle the first row's first pattern, as a scan of the rows would
        at = [next((t for t in tests if t[0] == node.pos), None) for _, tests, _ in rows]
        cases: dict[tuple[str, int], list] = {}
        for test in filter(None, at):
            head, args = spine(test[1])
            cases.setdefault((head.name, len(args)), [])
        for (rule, tests, occs), test in zip(rows, at):
            if test is None:  # a variable there: the row goes every way
                for sub in cases.values():
                    sub.append((rule, tests, occs))
                continue
            _, pat, key = test
            head, args = spine(pat)
            m = len(args)
            placed = [(npos + m - i, a, key + (-i,)) for i, a in enumerate(args, 1)]
            cases[head.name, m].append(_row(rule, tuple(t for t in tests if t is not test), occs, placed))
        for (name, m), sub in cases.items():
            node.cases[name, m] = _tree(tuple(sub), npos + m, memo)
        node.default = _tree(tuple(row for row, test in zip(rows, at) if test is None), npos, memo)
    memo[rows, npos] = node
    return node


def whnf(sig: Signature, t: KTerm, fuel: Fuel | None = None, memo: dict | None = None) -> KTerm:
    """Weak-head normal form under beta plus the signature's rules.

    The head of the result is final: a binder, sort, variable, or a
    constant at which no rule fires, however far its arguments reduce; they
    are reduced only as far as a pattern needed.  `memo`, one per top-level
    call, maps the id of each subject matching reduced, and of its whnf, to both.
    """
    fuel = fuel or Fuel()
    head = t
    rev: list[KTerm] = []  # argument spine, innermost application last
    while True:
        while type(head) is App:
            rev.append(head.arg)
            head = head.fn
        if type(head) is Lam and rev:
            fuel.step()
            head = instantiate(head.body, rev.pop())
            continue
        if type(head) is Const and (rules := sig.matcher(head.name)):
            memo = {} if memo is None else memo
            if (fired := _fire(sig, rules, rev, fuel, memo)) is not None:
                head = fired
                continue
        break
    for a in reversed(rev):
        head = App(head, a)
    return head


def _fire(sig: Signature, rules: Rules, rev: list[KTerm], fuel: Fuel, memo: dict) -> Optional[KTerm]:
    """The first matching rule's instantiated right-hand side, its arguments
    popped from `rev`, else None; an argument it reduces is replaced in `rev`."""
    nargs = len(rev)
    n = nargs if nargs < rules.arity else rules.arity
    node = rules.trees[n]
    if node is None:
        node = rules.trees[n] = _compile(rules.rules, n)
    terms = rev[nargs - n :]  # the subject at each position
    while node:
        if type(node) is _Switch:
            s = h = terms[pos := node.pos]
            while type(h) is App:
                h = h.fn
            if type(h) is Const and sig.matcher(h.name) or type(h) is Lam and h is not s:  # not final
                w = hit[1] if (hit := memo.get(id(s))) else whnf(sig, s, fuel, memo)
                memo[id(s)] = memo[id(w)] = s, w
                s = terms[pos] = w
                if pos < n:
                    rev[nargs - n + pos] = s
            base = len(terms)
            while type(s) is App:
                terms.append(s.arg)
                s = s.fn
            if type(s) is Const and (child := node.cases.get((s.name, len(terms) - base))) is not None:
                node = child
            else:
                del terms[base:]
                node = node.default
            continue
        rule, binds, equal, node = node
        if not equal or all(terms[a] == terms[b] or normalize(sig, terms[a], fuel, memo)
                            == normalize(sig, terms[b], fuel, memo) for a, b in equal):
            fuel.step()
            del rev[nargs - rule.arity :]
            bindings = {}
            for name, pos in binds:
                bindings[name] = terms[pos]
            return substitute(rule.rhs, bindings)
    return None


def normalize(sig: Signature, t: KTerm, fuel: Fuel | None = None, memo: dict | None = None) -> KTerm:
    """Full beta/rewrite normal form, reducing under binders and in arguments.

    After `whnf`, binder parts and arguments are normalized.  `memo` is
    `whnf`'s, and maps ~id(t) to `t` and its normal form too.
    """
    fuel = fuel or Fuel()
    memo = {} if memo is None else memo
    if hit := memo.get(~id(t)):
        return hit[1]
    nf = w = hit[1] if (hit := memo.get(id(t))) else whnf(sig, t, fuel, memo)
    match w:
        case App():
            head, args = spine(w)
            nf = app(head, *[normalize(sig, a, fuel, memo) for a in args])
        case Lam(name=n, annot=d, body=b) | Pi(name=n, domain=d, codomain=b):
            nf = w.__class__(n, normalize(sig, d, fuel, memo), normalize(sig, b, fuel, memo))
    memo[~id(t)] = t, nf
    return nf


def convertible(sig: Signature, a: KTerm, b: KTerm, fuel: Fuel | None = None) -> bool:
    """Decide `a` and `b` equal modulo beta and the signature's rules.

    Final heads (`whnf`) are compared, then the parts below them: this
    holds exactly when the normal forms are equal (up to eta, if on).
    """
    return _conv(sig, a, b, fuel or Fuel())


def _conv(sig: Signature, a: KTerm, b: KTerm, fuel: Fuel) -> bool:
    """`convertible` as one loop over the pairs left to compare, leftmost on
    top: parts are compared depth first, left to right, and no depth recurses."""
    if a == b:
        return True
    pairs = [(a, b)]
    while pairs:
        a, b = pairs.pop()
        if a == b:
            continue
        wa = whnf(sig, a, fuel)
        wb = whnf(sig, b, fuel)
        if wa == wb:
            continue
        match wa, wb:
            case (App(), App()):
                ha, argsa = spine(wa)
                hb, argsb = spine(wb)
                if ha != hb or len(argsa) != len(argsb):
                    return False
                pairs += zip(reversed(argsa), reversed(argsb))
            case (Lam(annot=x, body=u), Lam(annot=y, body=v)) | (Pi(domain=x, codomain=u), Pi(domain=y, codomain=v)):
                pairs += ((u, v), (x, y))
            case (Lam(body=ba), _) if sig.eta:
                pairs.append((ba, App(shift(wb, 1), Var(0))))
            case (_, Lam(body=bb)) if sig.eta:
                pairs.append((App(shift(wa, 1), Var(0)), bb))
            case _:
                return False
    return True


Context = Mapping[str, KTerm]
Binders = list[tuple[str, KTerm]]
Memo = dict[KTerm, KTerm]


def infer(sig: Signature, ctx: Context, t: KTerm, fuel: Fuel | None = None) -> KTerm:
    """Infer the type of `t` in the signature and local context."""
    return _infer(sig, [], t, fuel or Fuel(), {FVar(n): ty for n, ty in ctx.items()})


def _infer(sig: Signature, bound: Binders, t: KTerm, fuel: Fuel, memo: Memo, child: int | None = None) -> KTerm:
    """The type of `t` under `bound`, the (name, type) of each enclosing
    binder, innermost last, grown and shrunk in place.  `memo`, one per
    `infer`, maps the local context's variables and each locally closed
    term typed so far to its type (a spine's, not its prefixes'); `child`
    is `t`'s index in its parent."""
    closed = t.lbr == 0
    if closed and (ty := memo.get(t)) is not None:
        return ty
    cls = t.__class__
    k = 0  # applications of t's spine above the one being typed: a child 0 each
    try:
        if cls is App:
            f, args = spine(t)
            k = len(args)  # f is child 0 of each application
            # a constant, or a locally closed term typed before, needs no frame
            ty = sig.type_of(f.name) if f.__class__ is Const else memo.get(f) if f.lbr == 0 else None
            if ty is None:
                ty = _infer(sig, bound, f, fuel, memo)
            pending: list[KTerm] = []  # arguments passed, outermost first, not yet put into `ty`
            for j, a in enumerate(args):
                k -= 1
                if type(ty) is not Pi:
                    ty = whnf(sig, instantiate_many(ty, pending), fuel)
                    pending = []
                    if type(ty) is not Pi:
                        raise NotAFunction("term {} of type {} is applied but is not a function",
                                           app(f, *args[:j]), ty, bound[:])
                arg_ty = sig.type_of(a.name) if a.__class__ is Const else memo.get(a) if a.lbr == 0 else None
                if arg_ty is None:
                    arg_ty = _infer(sig, bound, a, fuel, memo, 1)
                dom = instantiate_many(ty.domain, pending)
                if not _conv(sig, arg_ty, dom, fuel):
                    raise TypeMismatch(dom, arg_ty, bound[:], sig, fuel.steps_left)
                pending.append(a)
                ty = ty.codomain
            ty = instantiate_many(ty, pending)
        elif cls is Const or cls is FVar:
            ty = sig.type_of(t.name) if cls is Const else None  # the context's are in `memo`
            if ty is None:
                raise UnboundIdentifier(f"unbound identifier: {t.name}")
            return ty
        elif cls is Var:
            i = t.index
            if i >= len(bound):
                raise UnboundIdentifier(f"unbound identifier: #{i}")
            return shift(bound[-1 - i][1], i + 1)
        elif cls is Lam:
            _check_domain(sig, bound, t.annot, fuel, memo)
            bound.append((t.name, t.annot))
            body_ty = _infer(sig, bound, t.body, fuel, memo, 1)
            try:
                s = whnf(sig, _infer(sig, bound, body_ty, fuel, memo), fuel)
            except KernelError as e:
                e.trail.clear()  # body_ty is not a subterm: the failure is here
                raise
            if not isinstance(s, Sort):
                raise SortError("lambda body type {} does not live in a sort", body_ty, bound[:])
            bound.pop()
            ty = Pi(t.name, t.annot, body_ty)
        elif cls is Pi:
            _check_domain(sig, bound, t.domain, fuel, memo)
            bound.append((t.name, t.domain))
            ty = whnf(sig, _infer(sig, bound, t.codomain, fuel, memo, 1), fuel)
            bound.pop()
            if not isinstance(ty, Sort):
                raise SortError("product codomain in {} is not a sort", t, bound[:])
        elif cls is Sort:
            if t.name == "Type":
                return KIND
            raise UntypableKind("Kind has no type")
    except KernelError as e:
        e.trail += [0] * k
        if child is not None:
            e.trail.append(child)
        raise
    if closed:
        memo[t] = ty
    return ty


def _check_domain(sig: Signature, bound: Binders, ty: KTerm, fuel: Fuel, memo: Memo) -> None:
    """`ty`, child 0 of a binder, must have sort Type."""
    s = whnf(sig, _infer(sig, bound, ty, fuel, memo, 0), fuel)
    if s != TYPE:
        raise SortError("binder domain {} must have sort Type, has {}", ty, s, bound[:])


def check(sig: Signature, ctx: Context, t: KTerm, expected: KTerm, fuel: Fuel | None = None) -> None:
    """Check `t` against `expected`; raises `TypeMismatch` on failure."""
    fuel = fuel or Fuel()
    actual = infer(sig, ctx, t, fuel)
    if not _conv(sig, actual, expected, fuel):
        raise TypeMismatch(expected, actual, (), sig, fuel.steps_left)
