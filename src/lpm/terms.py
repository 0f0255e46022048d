"""Core term syntax for the lambda-Pi kernel.

Terms use a locally nameless representation: bound variables are de
Bruijn indices (`Var`), free variables are named (`FVar`), and global
constants are `Const`.  Binder display names are kept for printing but
excluded from equality, so structural equality coincides with
alpha-equivalence.

Binders are never opened: the kernel works on a binder's body in place,
where `Var(i)` is the i-th enclosing binder.  A term moved under `k` more
binders is `shift`ed by `k`, as `instantiate_many` (which puts several
binders' values into a body in one walk; `instantiate` is its one-value
case) and `substitute` do to a value and `arrow` to each component; a
locally closed term needs none.

Every node caches four values, derived from its children once, at
construction (the Lean 4 kernel keeps `looseBVarRange` the same way):

* `lbr`, the loose-bound-variable range: one more than the largest de
  Bruijn index that escapes the node, 0 when it is locally closed;
* `has_fvar`: an `FVar` occurs in the node;
* `has_bare_const`: a `Const` without a module prefix occurs in the node
  (a name that a printed binder must not capture);
* the structural hash, which ignores display names, so alpha-equal terms
  hash alike and `hash` never recurses.  `==` settles a pair of subterms
  at once when they are one object or their hashes differ, and walks the
  rest with an explicit stack.

Terms are immutable, which is what keeps the cached data valid: nothing
in `lpm` assigns to a term's fields after construction.  It also lets
terms be shared: the `.dk` parser builds each term of a file once, so
`==` on parsed terms usually settles by identity.  The walks below use
the cache to return a subtree they cannot change at once: `shift` and
`instantiate_many` skip one whose indices do not reach the binder,
`substitute` and `free_fvars` one without `FVar`.
"""

from __future__ import annotations


class KTerm:
    """Base class for kernel terms.

    The class attributes are the cached data of a leaf; a node class
    that derives them per instance declares them as slots.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    lbr = 0
    has_fvar = False
    has_bare_const = False

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        # pieces still to write, last first, so depth costs no recursion
        out: list[str] = []
        stack: list[object] = [self]
        while stack:
            t = stack.pop()
            if not isinstance(t, KTerm):
                out.append(t)
                continue
            stack.append(")")
            for i, f in reversed(tuple(enumerate(t.__match_args__))):
                v = getattr(t, f)
                stack += (v if isinstance(v, KTerm) else repr(v), f"{', ' if i else ''}{f}=")
            stack.append(f"{type(t).__name__}(")
        return "".join(out)


class _Named(KTerm):
    """A leaf identified by its class and its name."""

    __slots__ = ("name", "_hash")
    __match_args__ = ("name",)
    __hash__ = KTerm.__hash__

    def __init__(self, name: str):
        self.name = name
        self._hash = hash((type(self).__name__, name))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name == other.name


class Sort(_Named):
    """`Type` or `Kind`."""

    __slots__ = ()


TYPE = Sort("Type")
KIND = Sort("Kind")


class Var(KTerm):
    """Bound variable as a de Bruijn index; the name is display-only."""

    __slots__ = ("index", "name", "lbr", "_hash")
    __match_args__ = ("index", "name")
    __hash__ = KTerm.__hash__

    def __init__(self, index: int, name: str = ""):
        self.index = index
        self.name = name
        self.lbr = index + 1
        self._hash = hash(("Var", index))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Var:
            return NotImplemented
        return self.index == other.index


class FVar(_Named):
    """Free variable: a local-context entry or rewrite pattern variable."""

    __slots__ = ()
    has_fvar = True


class Const(_Named):
    """Global constant, usually carrying a module prefix (`logic.prf`)."""

    __slots__ = ("has_bare_const",)

    def __init__(self, name: str):
        self.name = name
        self.has_bare_const = "." not in name
        self._hash = hash(("Const", name))


class App(KTerm):
    __slots__ = ("fn", "arg", "lbr", "has_fvar", "has_bare_const", "_hash")
    __match_args__ = ("fn", "arg")
    __hash__ = KTerm.__hash__

    def __init__(self, fn: KTerm, arg: KTerm):
        self.fn = fn
        self.arg = arg
        self.lbr = fn.lbr if fn.lbr > arg.lbr else arg.lbr
        self.has_fvar = fn.has_fvar or arg.has_fvar
        self.has_bare_const = fn.has_bare_const or arg.has_bare_const
        self._hash = hash(("App", fn._hash, arg._hash))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not App:
            return NotImplemented
        return self._hash == other._hash and _alpha_eq(self, other)


class Lam(KTerm):
    __slots__ = ("name", "annot", "body", "lbr", "has_fvar", "has_bare_const", "_hash")
    __match_args__ = ("name", "annot", "body")
    __hash__ = KTerm.__hash__

    def __init__(self, name: str, annot: KTerm, body: KTerm):
        self.name = name
        self.annot = annot
        self.body = body
        inner = body.lbr - 1  # the body sits under this binder
        self.lbr = annot.lbr if annot.lbr > inner else inner
        self.has_fvar = annot.has_fvar or body.has_fvar
        self.has_bare_const = annot.has_bare_const or body.has_bare_const
        self._hash = hash(("Lam", annot._hash, body._hash))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Lam:
            return NotImplemented
        return self._hash == other._hash and _alpha_eq(self, other)


class Pi(KTerm):
    __slots__ = ("name", "domain", "codomain", "lbr", "has_fvar", "has_bare_const", "_hash")
    __match_args__ = ("name", "domain", "codomain")
    __hash__ = KTerm.__hash__

    def __init__(self, name: str, domain: KTerm, codomain: KTerm):
        self.name = name
        self.domain = domain
        self.codomain = codomain
        inner = codomain.lbr - 1
        self.lbr = domain.lbr if domain.lbr > inner else inner
        self.has_fvar = domain.has_fvar or codomain.has_fvar
        self.has_bare_const = domain.has_bare_const or codomain.has_bare_const
        self._hash = hash(("Pi", domain._hash, codomain._hash))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Pi:
            return NotImplemented
        return self._hash == other._hash and _alpha_eq(self, other)


def _alpha_eq(a: KTerm, b: KTerm) -> bool:
    """Alpha-equality of two distinct nodes of one class with equal hashes.

    Every pair of children is settled at once when it is one object or
    its classes or hashes differ; the left child is walked next and the
    right one stacked, so depth costs no recursion.
    """
    stack = []
    while True:
        cls = a.__class__
        if cls is App:
            x, y, u, v = a.fn, b.fn, a.arg, b.arg
        elif cls is Lam:
            x, y, u, v = a.annot, b.annot, a.body, b.body
        elif cls is Pi:
            x, y, u, v = a.domain, b.domain, a.codomain, b.codomain
        else:
            if not a == b:
                return False
            x = y = u = v = None
        if u is not v:
            if u.__class__ is not v.__class__ or u._hash != v._hash:
                return False
            stack.append((u, v))
        if x is not y:
            if x.__class__ is not y.__class__ or x._hash != y._hash:
                return False
            a, b = x, y
        elif stack:
            a, b = stack.pop()
        else:
            return True


def app(fn: KTerm, *args: KTerm) -> KTerm:
    """Left-nested application `fn a1 ... an`."""
    for a in args:
        fn = App(fn, a)
    return fn


def arrow(*tys: KTerm) -> KTerm:
    """Right-nested non-dependent product `t1 -> ... -> tn` of types in its own context."""
    result = shift(tys[-1], len(tys) - 1)
    for j in range(len(tys) - 2, -1, -1):
        result = Pi("", shift(tys[j], j), result)
    return result


def spine(t: KTerm) -> tuple[KTerm, list[KTerm]]:
    """Split `f a1 ... an` into the head `f` and argument list."""
    args: list[KTerm] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


def shift(t: KTerm, by: int, cutoff: int = 0) -> KTerm:
    """`t` with `by` added to each index that escapes `cutoff` binders."""
    if t.lbr <= cutoff or not by:
        return t
    match t:
        case Var(index=i, name=n):
            return Var(i + by, n)
        case App(fn=f, arg=a):
            return App(shift(f, by, cutoff), shift(a, by, cutoff))
        case Lam(name=n, annot=d, body=b) | Pi(name=n, domain=d, codomain=b):
            return t.__class__(n, shift(d, by, cutoff), shift(b, by, cutoff + 1))


def instantiate(body: KTerm, value: KTerm, depth: int = 0) -> KTerm:
    """Replace index `depth` in `body` by `value`, given at that binder, and lower the indices past it."""
    return instantiate_many(body, (value,), depth)


def instantiate_many(body: KTerm, values: tuple[KTerm, ...] | list[KTerm], depth: int = 0) -> KTerm:
    """Replace indices `depth` to `depth + m - 1` in `body` by the m `values`, given outside
    those binders, outermost first, and lower the indices past them by m, all in one walk."""
    if body.lbr <= depth or not values:
        return body
    match body:
        case Var(index=i, name=n):
            if i >= depth + len(values):
                return Var(i - len(values), n)
            value = values[depth - 1 - i]
            return shift(value, depth) if depth and value.lbr else value
        case App(fn=f, arg=a):
            return App(instantiate_many(f, values, depth), instantiate_many(a, values, depth))
        case Lam(name=n, annot=d, body=b) | Pi(name=n, domain=d, codomain=b):
            return body.__class__(n, instantiate_many(d, values, depth), instantiate_many(b, values, depth + 1))


def substitute(t: KTerm, bindings: dict[str, KTerm], depth: int = 0) -> KTerm:
    """Simultaneous, capture-avoiding substitution of free variables by
    terms given in the context of `t`, shifted past the `depth` binders passed."""
    if not bindings or not t.has_fvar:
        return t
    match t:
        case FVar(name=n):
            v = bindings.get(n, t)
            return shift(v, depth) if depth and v.lbr else v
        case App(fn=f, arg=a):
            return App(substitute(f, bindings, depth), substitute(a, bindings, depth))
        case Lam(name=n, annot=d, body=b) | Pi(name=n, domain=d, codomain=b):
            return t.__class__(n, substitute(d, bindings, depth), substitute(b, bindings, depth + 1))


def free_fvars(t: KTerm) -> frozenset[str]:
    """Names of the free variables occurring in `t`."""
    out: set[str] = set()
    stack = [t]
    while stack:
        s = stack.pop()
        if not s.has_fvar:
            continue
        match s:
            case FVar(name=n):
                out.add(n)
            case App(fn=f, arg=a):
                stack += (f, a)
            case Lam(annot=ty, body=b) | Pi(domain=ty, codomain=b):
                stack += (ty, b)
    return frozenset(out)
