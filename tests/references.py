"""Hand-built reference artifacts the generated ones are compared against,
and the term, matching and proof-tree helpers only the tests use."""

from __future__ import annotations

import re
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Optional

from lpm import embed, examples, kernel, llproof, sexp
from lpm.dkparse import Comment, DkSyntaxError, _Parser
from lpm.dkprint import _PREC_APP, _PREC_ARROW, _PREC_ATOM, _PREC_TERM, _binder_name, print_entry, uses_binder
from lpm.terms import App, Const, FVar, KTerm, Lam, Pi, Sort, Var, app, shift, spine, substitute


# Term helpers the kernel does without: it never opens a binder, so it
# never closes one, and it reads `lbr` and matches argument by argument.


def abstract(t: KTerm, name: str, depth: int = 0) -> KTerm:
    """Turn free occurrences of `FVar(name)` into the binder index `depth`."""
    if not t.has_fvar:
        return t
    match t:
        case FVar(name=n) if n == name:
            return Var(depth, name)
        case App(fn=f, arg=a):
            return App(abstract(f, name, depth), abstract(a, name, depth))
        case Lam(name=n, annot=d, body=b) | Pi(name=n, domain=d, codomain=b):
            return t.__class__(n, abstract(d, name, depth), abstract(b, name, depth + 1))
        case _:
            return t


def reference_instantiate(body: KTerm, value: KTerm, depth: int = 0) -> KTerm:
    """`terms.instantiate` by a walk of its own, one value at a time: the
    reference that `terms.instantiate_many` is checked against."""
    if body.lbr <= depth:
        return body
    match body:
        case Var(index=i, name=n):
            if i > depth:
                return Var(i - 1, n)
            return shift(value, depth) if depth and value.lbr else value
        case App(fn=f, arg=a):
            return App(reference_instantiate(f, value, depth), reference_instantiate(a, value, depth))
        case Lam(name=n, annot=d, body=b) | Pi(name=n, domain=d, codomain=b):
            return body.__class__(n, reference_instantiate(d, value, depth), reference_instantiate(b, value, depth + 1))
        case _:
            return body


def is_locally_closed(t: KTerm, depth: int = 0) -> bool:
    """True when every de Bruijn index resolves to an enclosing binder."""
    return t.lbr <= depth


# Rule matching without decision trees: the rules are tried one by one.
# `_match` is first-order syntactic matching; `reference_fire`, a scan
# modulo whnf, is the oracle the differential matching tests compare
# `kernel._fire` against.

Substitution = dict[str, KTerm]


def _match(pat: KTerm, subj: KTerm, delta: frozenset[str], out: Substitution) -> bool:
    """First-order matching of a rule pattern against a term, binding in
    `out`: a variable of `delta` matches any subterm, equal ones at each
    of its occurrences; anything else matches only itself."""
    stack = [(pat, subj)]
    while stack:
        p, s = stack.pop()
        tp = type(p)
        if tp is FVar:
            n = p.name
            if n in delta:
                prev = out.get(n)
                if prev is None:
                    out[n] = s
                elif prev != s:
                    return False
                continue
            if type(s) is not FVar or s.name != n:
                return False
        elif tp is App:
            if type(s) is not App:
                return False
            stack.append((p.fn, s.fn))
            stack.append((p.arg, s.arg))
        elif tp is Const:
            if type(s) is not Const or s.name != p.name:
                return False
        elif p != s:
            return False
    return True


def _walk(rule: kernel.RewriteRule) -> Iterator[tuple[tuple[int, ...], KTerm]]:
    """Each pattern of the rule with its scan key: argument j has key (j,)
    and the i-th argument of a pattern with key k has key k + (-i,), so
    they come left to right by argument, right to left in a spine."""
    stack = [((j,), p) for j, p in reversed(tuple(enumerate(rule.lhs_args)))]
    while stack:
        key, p = stack.pop()
        yield key, p
        if type(p) is not FVar:
            stack += [(key + (-i,), a) for i, a in enumerate(spine(p)[1], 1)]


def _shape(t: KTerm) -> tuple[object, int]:
    """A term's head constant's name, or None, and its spine length."""
    head, args = spine(t)
    return (head.name if type(head) is Const else None), len(args)


def reference_fire(sig, rules: kernel.Rules, rev: list[KTerm], fuel: kernel.Fuel,
                   memo: dict) -> Optional[KTerm]:
    """`kernel._fire` by trying the rules in install order: the first
    matching rule's instantiated right-hand side, its arguments popped from
    `rev`; None when no rule matches.

    Each rule's patterns are walked in scan-key order.  A subject that a
    constant pattern meets first is put in whnf, unless its head is final,
    through `memo` as the kernel keeps it, and kept by key: an argument's
    in `rev` too.  A rule that a subject
    already reduced refutes is skipped unwalked.  A repeated variable's
    occurrences, once every pattern matched, must be equal or have equal
    normal forms; each is compared with the first."""
    nargs = len(rev)
    known: dict[tuple[int, ...], KTerm] = {}

    def subject(key: tuple[int, ...]) -> KTerm:
        if key in known:
            return known[key]
        if len(key) == 1:
            return rev[-1 - key[0]]
        return spine(known[key[:-1]])[1][-key[-1] - 1]

    for rule in rules.rules:
        if rule.arity > nargs or any(key in known and _shape(known[key]) != _shape(p)
                                     for key, p in _walk(rule) if type(p) is not FVar):
            continue
        occurrences = []
        for key, p in _walk(rule):
            if type(p) is FVar:
                occurrences.append((p.name, subject(key)))
                continue
            if key not in known:
                s = subject(key)
                head, args = spine(s)
                if type(head) is Const and sig.matcher(head.name) or type(head) is Lam and args:
                    hit = memo.get(id(s))
                    w = hit[1] if hit else kernel.whnf(sig, s, fuel, memo)
                    memo[id(s)] = memo[id(w)] = s, w
                    s = w
                known[key] = s
                if len(key) == 1:
                    rev[-1 - key[0]] = s
            if _shape(known[key]) != _shape(p):
                break
        else:
            bindings: Substitution = {}
            for name, s in occurrences:
                if name not in bindings:
                    bindings[name] = s
                elif bindings[name] != s and (kernel.normalize(sig, bindings[name], fuel, memo)
                                              != kernel.normalize(sig, s, fuel, memo)):
                    break
            else:
                fuel.step()
                del rev[nargs - rule.arity :]
                return substitute(rule.rhs, bindings)
    return None


def match_pattern(lhs: KTerm, delta: Iterable[str], subject: KTerm) -> Optional[Substitution]:
    """First-order syntactic matching of a whole rule pattern against a
    term: the bindings, or None."""
    bindings: Substitution = {}
    if _match(lhs, subject, frozenset(delta), bindings):
        return bindings
    return None


def signature_fields(sig) -> tuple[list, list]:
    """The types of a signature in order, and each head's rules, in order,
    as the fields matching reads: head, pattern arguments and right-hand
    side."""
    rules = [(head, [(r.head, r.lhs_args, r.rhs) for r in sig.rules_for(head)])
             for head in sig._rules]
    return list(sig._types.items()), rules


def eliminate_pred_fun(p: llproof.LLProof) -> llproof.LLProof:
    """Decompose every Pred/Fun node of the tree into its Subst chain.

    The translator decomposes each node where it reaches it instead; this
    whole-tree form is the reference it is checked against.  An error
    collects its node's path in its trail, as the translator's do.
    """
    premises = []
    for i, q in enumerate(p.premises):
        try:
            premises.append(eliminate_pred_fun(q))
        except llproof.CertificateError as e:
            e.trail.append(i)
            raise
    return llproof._decompose(llproof.LLProof(p.rule, tuple(premises), p.concls))


def _lam(name: str, annot: KTerm, body: KTerm) -> KTerm:
    return Lam(name, annot, abstract(body, name))


def bool_commute_reference_body() -> KTerm:
    """The boolean-commutativity certificate body, written out node by node.

    Case split on the outer variable, each branch eliminating the
    rewritten universal with a fresh constant and closing by reflexivity.
    Hypothesis variable names are display-only, so comparisons against
    generated terms hold regardless of the naming scheme.
    """
    bool_t, true_t, false_t = Const("bool.bool"), Const("bool.true"), Const("bool.false")
    andb = Const("bool.andb")
    eq, fa, nt = Const("logic.eq"), Const("logic.forall"), Const("logic.not")
    term_b = app(Const("logic.term"), bool_t)
    prf = embed.prf

    def inner(x: KTerm) -> KTerm:
        return app(fa, bool_t, _lam("y", term_b, app(eq, bool_t, app(andb, x, FVar("y")), app(andb, FVar("y"), x))))

    goal_term = app(fa, bool_t, _lam("x", term_b, inner(FVar("x"))))

    def branch(quantified_eq, at) -> KTerm:
        # at(a) is the equated term once the boolean rules have fired
        return _lam(
            "h",
            prf(App(nt, quantified_eq)),
            app(
                Const("rules.R_notforall"),
                bool_t,
                _lam("y", term_b, app(eq, bool_t, at(FVar("y")), at(FVar("y")))),
                _lam(
                    "a",
                    term_b,
                    _lam(
                        "k",
                        prf(App(nt, app(eq, bool_t, at(FVar("a")), at(FVar("a"))))),
                        app(Const("rules.R_neq"), bool_t, at(FVar("a")), FVar("k")),
                    ),
                ),
                FVar("h"),
            ),
        )

    refl_eq = app(fa, bool_t, _lam("y", term_b, app(eq, bool_t, FVar("y"), FVar("y"))))
    ff_eq = app(fa, bool_t, _lam("y", term_b, app(eq, bool_t, false_t, false_t)))
    return _lam(
        "h0",
        prf(App(nt, goal_term)),
        app(
            Const("bool.R_bool_case_nf"),
            _lam("x", term_b, inner(FVar("x"))),
            branch(refl_eq, lambda a: a),
            branch(ff_eq, lambda a: false_t),
            FVar("h0"),
        ),
    )


# the set-theory refutation tree, node for node: rule tag, eigenvariable
# introduced (if any), and number of premises, in preorder
SET_DIFF_TREE_SHAPE = [
    ("NotForallType", "tau", 1),
    ("NotForall", "c1", 1),
    ("NotForall", "c2", 1),
    ("NotIff", None, 2),
    ("Bot", None, 0),
    ("And", None, 1),
    ("Ax", None, 0),
]


def tree_shape(p: llproof.LLProof) -> list[tuple[str, object, int]]:
    eigen = None
    rule = p.rule
    if isinstance(rule, (llproof.Exists, llproof.NotForall)):
        eigen = rule.const
    elif isinstance(rule, (llproof.ExistsType, llproof.NotForallType)):
        eigen = rule.fresh_type
    out = [(type(rule).__name__, eigen, len(p.premises))]
    for q in p.premises:
        out.extend(tree_shape(q))
    return out


def corpus_dk_files() -> list[tuple[str, list]]:
    """Every `.dk` file the built-in pipelines emit, as entry lists."""
    out = []
    for mode in ("deep", "shallow"):
        out.append((f"logic-{mode}.dk", embed.prelude(mode)))
        out.append((f"rules-{mode}.dk", llproof.rules_prelude(mode)))
    for name, (mk_thy, mk_goal, mk_proof) in sorted(examples.BUILTINS.items()):
        thy = mk_thy()
        out.append((f"{name}-theory.dk", embed.theory_entries(thy)))
        cert, _ = llproof.certificate_entries(thy, mk_goal(), mk_proof(), llproof.base_signature(thy))
        out.append((f"{name}-cert.dk", cert))
    return out


# The `.dk` lexer as it was before tokens became plain strings: one
# `match` per token, positions counted as it goes.  It is the oracle the
# differential lexer test compares `dkparse` against.

_IDENT = r"[A-Za-z_][A-Za-z0-9_']*"
_KEYWORDS = ("Type", "Kind", "def")
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:"
    rf"(?P<keyword>(?:{'|'.join(_KEYWORDS)})(?![A-Za-z0-9_']))"
    rf"|(?P<IDENT>{_IDENT}(?:\.{_IDENT})?)"
    r"|(?P<comment>\(;)"
    r"|(?P<symbol>-->|->|=>|:=|[:.()\[\],])"
    rf"|(?P<command>#(?:{_IDENT})?)"
    r"|(?P<EOF>\Z)"
    r"|(?P<stray>.))"
)
_COMMENT_DELIM_RE = re.compile(r"\(;|;\)")


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def reference_tokenize(text: str) -> tuple[list[Token], dict[int, list[Comment]]]:
    """The tokens of `text`, ending with `EOF`, and its comments keyed by
    the index of the token each one comes before."""
    tokens: list[Token] = []
    comments: dict[int, list[Comment]] = {}
    match = _TOKEN_RE.match
    pos = last = line_start = 0
    line = 1
    while True:
        m = match(text, pos)
        kind = m.lastgroup
        start = m.start(kind)
        # only whitespace and comments span lines, and both lie between
        # the previous token's start and this one's
        newlines = text.count("\n", last, start)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", last, start) + 1
        last = start
        col = start - line_start + 1
        word = m.group(kind)
        pos = m.end()
        if kind == "IDENT":
            tokens.append(Token("IDENT", word, line, col))
        elif kind == "comment":
            depth = 1
            while depth:
                d = _COMMENT_DELIM_RE.search(text, pos)
                if d is None:
                    raise DkSyntaxError("unterminated comment", line, col)
                depth += 1 if d.group() == "(;" else -1
                pos = d.end()
            comments.setdefault(len(tokens), []).append(Comment(text[start + 2 : pos - 2].strip(), line, col))
        elif kind == "EOF":
            tokens.append(Token("EOF", "", line, col))
            return tokens, comments
        elif kind == "stray":
            raise DkSyntaxError(f"stray character {word!r}", line, col)
        elif kind == "command" and word != "#ASSERT":
            raise DkSyntaxError(f"unknown command {word}", line, col)
        else:  # a symbol, a keyword or `#ASSERT` is its own kind
            tokens.append(Token(word, word, line, col))


# The `.dk` printer as it was before it emitted pieces: one string per
# subterm, built by recursion.  It is the oracle the differential printer
# test compares `dkprint.print_file` against.


def reference_print_term(t: KTerm, scope: tuple[str, ...] = (), prec: int = _PREC_TERM) -> str:
    match t:
        case Sort(name=n):
            return n
        case Const(name=n):
            return n
        case FVar(name=n):
            return n
        case Var(index=i):
            if i < len(scope):
                return scope[-1 - i]
            return f"#{i}"
        case App(fn=f, arg=a):
            s = f"{reference_print_term(f, scope, _PREC_APP)} {reference_print_term(a, scope, _PREC_ATOM)}"
            return f"({s})" if prec > _PREC_APP else s
        case Lam(name=n, annot=ty, body=b):
            name = _binder_name(n, b, scope)
            s = (f"{name} : {reference_print_term(ty, scope, _PREC_APP)} => "
                 f"{reference_print_term(b, scope + (name,), _PREC_TERM)}")
            return f"({s})" if prec > _PREC_TERM else s
        case Pi(name=n, domain=d, codomain=c):
            if uses_binder(c):
                name = _binder_name(n, c, scope)
                s = (f"{name} : {reference_print_term(d, scope, _PREC_APP)} -> "
                     f"{reference_print_term(c, scope + (name,), _PREC_TERM)}")
                return f"({s})" if prec > _PREC_TERM else s
            s = f"{reference_print_term(d, scope, _PREC_APP)} -> {reference_print_term(c, scope + ('',), _PREC_TERM)}"
            return f"({s})" if prec > _PREC_ARROW else s
    raise TypeError(f"not a printable term: {t!r}")


def reference_print_file(entries: list) -> str:
    return "".join(print_entry(e, reference_print_term) + "\n" for e in entries)


# The `.dk` reader as it was before it reused the term of a repeated span:
# every parenthesised term is read token by token.  It is the oracle the
# differential reader test compares `dkparse.parse_file` against.


class _ReferenceParser(_Parser):
    def atom(self, delta: tuple[str, ...]) -> KTerm:
        if self.tokens[self.pos] != "(":
            return super().atom(delta)
        self.pos += 1
        t = self.term(delta)
        self.expect(")")
        return t


def reference_parse_file(text: str) -> list:
    return _ReferenceParser(text).entries()


# The S-expression reader and pretty-printer as they were before the reader
# replayed repeated lines and the printer computed each list's flat width
# once.  The reader reads token by token; the printer writes each level's
# flat text again (Θ(n³) on chain-n).  They are the oracles the
# differential tests compare `sexp.loads` and `sexp.dumps_pretty` against.


_SEXP_TOKEN_RE = re.compile(r"(?:[ \t\r\n]+|;[^\n]*)*([()]|[^ \t\r\n();]+|\Z)")
_SEXP_INT_RE = re.compile(r"-?[0-9]+")


def reference_loads(text: str) -> list:
    items: list = []
    open_lists: list[tuple[list, int]] = []  # enclosing list, index of its "("
    atoms: dict[str, object] = {}
    lists: dict[tuple[int, ...], list] = {}
    for i, tok in enumerate(_SEXP_TOKEN_RE.findall(text)):
        if tok == "(":
            open_lists.append((items, i))
            items = []
        elif tok == ")":
            if not open_lists:
                raise _reference_sexp_error("unexpected ')'", text, i)
            outer, _ = open_lists.pop()
            outer.append(lists.setdefault(tuple(map(id, items)), items))
            items = outer
        elif tok:
            atom = atoms.get(tok)
            if atom is None:
                atom = atoms[tok] = int(tok) if _SEXP_INT_RE.fullmatch(tok) else tok
            items.append(atom)
    if open_lists:
        raise _reference_sexp_error("unterminated list", text, open_lists[-1][1])
    return items


def _reference_sexp_error(message: str, text: str, index: int) -> sexp.SexpError:
    """The error at the `index`-th match of the token pattern."""
    offset = next(islice(_SEXP_TOKEN_RE.finditer(text), index, None)).start(1)
    return sexp.SexpError(message, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))


def reference_dumps_pretty(x: object, indent: int = 0) -> str:
    if not isinstance(x, list):
        return str(x)
    flat = _reference_dumps(x)
    if len(flat) <= 76 - indent:
        return flat
    pad = " " * (indent + 2)
    head = _reference_dumps(x[0]) if x else ""
    lines = [reference_dumps_pretty(e, indent + 2) for e in x[1:]]
    return "(" + head + "\n" + "\n".join(pad + s for s in lines) + ")"


def _reference_dumps(x: object) -> str:
    if isinstance(x, list):
        return "(" + " ".join(_reference_dumps(e) for e in x) + ")"
    return str(x)
