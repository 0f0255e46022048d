"""Global context management: declarations and rewrite-rule installation.

A `Signature` is the global context the kernel checks against: the type
of each declared constant and the rewrite rules of each head, in the
order they were installed.  Extension is persistent: `install_entries`
copies the tables once, checks each entry's well-formedness side
conditions and extends the copy in place, so an install is linear in its
entries and returns a new signature, leaving the original untouched.
A rule's left side is a constant-headed pattern, and FV(rhs) <= FV(lhs) <= ctx.
An error keeps the terms it names; `lpm.dkprint` words it when it is read.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from . import dkparse, kernel
from .terms import Const, FVar, KTerm, Sort, free_fvars, spine


class SignatureError(Exception):
    """Base class for signature construction failures, worded as a `kernel.KernelError`."""

    __str__ = kernel.KernelError.__str__


class DuplicateName(SignatureError):
    def __init__(self, name: str):
        super().__init__(f"duplicate declaration: {name}")
        self.name = name


class NotASort(SignatureError):
    pass


class IllTypedSide(SignatureError):
    def __init__(self, side: str, cause: Exception):
        super().__init__(f"ill-typed rewrite rule {side}-hand side: {{}}", cause, ())
        self.side = side
        self.cause = cause


class IllTypedBody(IllTypedSide):
    """A definition whose body does not have its declared type: the
    right-hand side of the rule a `def` installs, named as the definition."""

    def __init__(self, name: str, cause: Exception):
        SignatureError.__init__(self, "ill-typed body of definition {}: {}", name, cause, ())
        self.side = "right"
        self.cause = cause
        self.name = name


class FVViolation(SignatureError):
    def __init__(self, names: Iterable[str], where: str):
        names = sorted(names)
        super().__init__(f"variables {names} violate the free-variable inclusion ({where})")
        self.names = names


class NonPatternLhs(SignatureError):
    pass


class Signature:
    """Declared constants' types and each head's rewrite rules, in order;
    never changed once returned, so callers may share one freely."""

    __slots__ = ("_types", "_rules", "eta", "type_of", "matcher")

    def __init__(
        self,
        types: dict[str, KTerm] | None = None,
        rules: dict[str, kernel.Rules] | None = None,
        eta: bool = False,
    ):
        self._types = types or {}
        self._rules = rules or {}
        self.eta = eta
        # the kernel's lookups, bound once: a constant's type and a head's `kernel.Rules`, or None
        self.type_of = self._types.get
        self.matcher = self._rules.get

    def rules_for(self, head: str) -> tuple[kernel.RewriteRule, ...]:
        rules = self._rules.get(head)
        return rules.rules if rules else ()

    def __contains__(self, name: str) -> bool:
        return name in self._types

    def with_eta(self, eta: bool = True) -> "Signature":
        return Signature(self._types, self._rules, eta)


EMPTY = Signature()


def _add_rewrite(sig: Signature, ctx: Sequence[tuple[str, KTerm]], lhs: KTerm, rhs: KTerm,
                 fuel: kernel.Fuel | None, rule_type: KTerm | None = None) -> None:
    delta: dict[str, KTerm] = {}
    for name, ty in ctx:
        if name in delta:
            raise DuplicateName(name)
        _check_sort(sig, delta, name, ty, fuel)
        delta[name] = ty
    _check_pattern(lhs, set(delta))
    lhs_vars = free_fvars(lhs)
    rhs_vars = free_fvars(rhs)
    if not rhs_vars <= lhs_vars:
        raise FVViolation(rhs_vars - lhs_vars, "right-hand side not covered by the left")
    side = "left"
    try:
        rule_type = kernel.infer(sig, delta, lhs, fuel) if rule_type is None else rule_type
        side = "right"
        kernel.check(sig, delta, rhs, rule_type, fuel)
    except kernel.FuelExhausted:
        raise
    except kernel.KernelError as e:
        raise IllTypedSide(side, e) from e
    rule = kernel.RewriteRule(lhs, rhs)
    sig._rules[rule.head] = kernel.Rules(sig.rules_for(rule.head) + (rule,))


def _check_sort(sig: Signature, ctx: dict[str, KTerm], name: str, ty: KTerm, fuel: kernel.Fuel | None) -> None:
    """The type `ty` given to `name` must have a sort."""
    sort = kernel.whnf(sig, kernel.infer(sig, ctx, ty, fuel), fuel)
    if not isinstance(sort, Sort):
        raise NotASort("type of {} must be a sort, found {}", name, sort, ())


def _check_pattern(lhs: KTerm, delta: set[str]) -> None:
    """`lhs` must be a constant applied to patterns: each one a variable of
    `delta` or, again, a constant applied to patterns."""
    stack = [lhs]
    while stack:
        sub = stack.pop()
        head, args = spine(sub)
        match head:
            case FVar(name=n) if sub is not lhs and not args:
                if n not in delta:
                    raise FVViolation({n}, "left-hand side outside the pattern context")
            case Const():
                stack += args
            case _ if sub is lhs:
                raise NonPatternLhs("rule left-hand side must be headed by a constant, found {}", head, ())
            case _:
                raise NonPatternLhs("subterm {} is not first-order pattern syntax", sub, ())


def install_entries(sig: Signature, entries: Iterable, fuel: kernel.Fuel | None = None,
                    budget: int | None = None) -> Signature:
    """Install parsed or generated entries in order, checking each one, and
    return the extended signature.  The tables of `sig` are copied once and
    the copy is extended in place, so the time is linear in the entries
    and `sig` is left unchanged, also when an entry is rejected.  The
    entries share `fuel`, or each gets a fresh `Fuel(budget)` if given.

    A definition's body is checked before its name is declared, with a
    rule to the body; `#ASSERT` entries run a check and extend nothing.
    """
    sig = Signature(dict(sig._types), dict(sig._rules), sig.eta)
    for e in entries:
        if budget is not None:
            fuel = kernel.Fuel(budget)
        match e:
            case dkparse.Decl(name=n, type=ty) | dkparse.Def(name=n, type=ty):
                if n in sig._types:
                    raise DuplicateName(n)
                _check_sort(sig, {}, n, ty, fuel)
                if e.__class__ is dkparse.Def:  # the body is checked before `n` exists, so it cannot name `n`
                    try:
                        _add_rewrite(sig, (), Const(n), e.body, fuel, ty)
                    except IllTypedSide as err:
                        raise IllTypedBody(n, err.cause) from err.cause
                sig._types[n] = ty
            case dkparse.Rule(ctx=ctx, lhs=lhs, rhs=rhs):
                _add_rewrite(sig, ctx, lhs, rhs, fuel)
            case dkparse.AssertType(term=t, type=ty):
                _check_sort(sig, {}, "#ASSERT", ty, fuel)
                kernel.check(sig, {}, t, ty, fuel)
            case dkparse.Comment():
                pass
            case _:
                raise SignatureError(f"cannot install entry {e!r}")
    return sig
