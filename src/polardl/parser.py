"""Surface syntax for knowledge bases: parser and serializer.

Grammar (EBNF; `#` starts a line comment, statements end with `.`):

    doc      := (decl | axiom | assertion)*
    decl     := "obj" name+ "." | "feat" name+ "." | "roles" "box" INT "dia" INT "."
    concept  := name | concept "and" concept | concept "or" concept
              | "box"INT concept | "dia"INT concept | "(" concept ")"
    axiom    := concept ("equiv" | "sub") concept "."
    assertion:= ["not"] atom "."
    atom     := name ":" concept | name "::" concept | name "I" name
              | name "Rbox"INT name | name "Rdia"INT name

Modal operators spell their index directly (`box1`, `dia2`, `Rbox1`,
`Rdia2`) and bind tighter than `and`, which binds tighter than `or`;
`and`/`or` chains associate to the right.  Names are ASCII words
(`[A-Za-z_][A-Za-z0-9_]*`); individual names must be declared with their
sort before use, role indices covered by a `roles` declaration, and the
left-hand side of an axiom is a concept name.
Synthetic names, which saturation makes, cannot be written or printed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

from .errors import ParseError, SerializationError, UndeclaredRoleError
from . import syntax as S

KEYWORDS = {"obj", "feat", "roles", "and", "or", "not", "equiv", "sub",
            "I", "box", "dia"}

# one named group per token kind; a modal is a whole word, `box1a` a name
_TOKEN_RE = re.compile(r"""
    (?P<MODAL>(?P<op>box|dia|Rbox|Rdia)(?P<index>[0-9]+)(?![A-Za-z0-9_]))
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<INT>[0-9]+)
  | (?P<SYM>::|[:.()])
  | (?P<BAD>\S)""", re.VERBOSE)


@dataclass(frozen=True)
class TBoxAxiom:
    kind: str       # "equiv" | "sub"
    lhs: S.Concept
    rhs: S.Concept

    def __str__(self):
        return f"{self.lhs} {self.kind} {self.rhs}"


@dataclass
class KnowledgeBase:
    """Parsed knowledge base: declarations, terminological axioms, ABox."""

    obj_names: tuple = ()
    feat_names: tuple = ()
    box_roles: int = 0
    dia_roles: int = 0
    tbox: tuple = ()           # of TBoxAxiom
    abox: frozenset = field(default_factory=frozenset)  # of S.Assertion

    @cached_property
    def declared(self) -> tuple:
        """(object names, feature names) as sets, built once per KB."""
        return frozenset(self.obj_names), frozenset(self.feat_names)

    def atom_names(self) -> set:
        names = set()
        for ax in self.tbox:
            for c in (ax.lhs, ax.rhs):
                names |= {s.name for s in S.subconcepts(c) if s.kind == S.ATOM}
        for c in S.occurring_concepts(self.abox):
            if c.kind == S.ATOM:
                names.add(c.name)
        return names


@dataclass
class _Tok:
    kind: str    # NAME, MODAL, INT, SYM, EOF
    text: str
    line: int
    col: int
    mod: tuple | None = None   # (op, index) for MODAL


def _tokenize(text: str):
    # the kind is decided here, so a keyword or symbol is known by its text
    toks = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in _TOKEN_RE.finditer(line.split("#", 1)[0]):
            if m.lastgroup == "BAD":
                raise ParseError(f"unexpected character {m[0]!r}",
                                 lineno, m.start() + 1)
            toks.append(_Tok(m.lastgroup, m[0], lineno, m.start() + 1,
                             m["op"] and (m["op"], int(m["index"]))))
    toks.append(_Tok("EOF", "", len(text.splitlines()) + 1, 1))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.objs: dict[str, int] = {}
        self.feats: dict[str, int] = {}
        self.box_roles = 0
        self.dia_roles = 0
        self.tbox: list[TBoxAxiom] = []
        self.abox: set[S.Assertion] = set()

    # -- token helpers -----------------------------------------------------

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect_sym(self, sym: str) -> _Tok:
        t = self.next()
        if t.text != sym:
            self.fail(t, f"expected {sym!r}, found {t.text or 'end of input'!r}")
        return t

    def name(self) -> _Tok:
        t = self.next()
        if t.kind != "NAME" or t.text in KEYWORDS:
            self.fail(t, "expected individual name, found "
                         f"{t.text or 'end of input'!r}")
        return t

    def fail(self, tok: _Tok, msg: str):
        raise ParseError(msg, tok.line, tok.col)

    # -- declarations ------------------------------------------------------

    def parse(self) -> KnowledgeBase:
        while self.peek().kind != "EOF":
            t = self.peek()
            if t.text in ("obj", "feat"):
                self.decl_individuals()
            elif t.text == "roles":
                self.decl_roles()
            elif t.text == "not" or self.is_assertion_start():
                self.assertion()
            else:
                self.axiom()
        return KnowledgeBase(
            obj_names=tuple(self.objs),
            feat_names=tuple(self.feats),
            box_roles=self.box_roles,
            dia_roles=self.dia_roles,
            tbox=tuple(self.tbox),
            abox=frozenset(self.abox),
        )

    def is_assertion_start(self) -> bool:
        t, after = self.toks[self.pos:self.pos + 2]
        return (t.kind == "NAME" and t.text not in KEYWORDS
                and _separator(after) is not None)

    def decl_individuals(self):
        table, other = ((self.objs, self.feats) if self.next().text == "obj"
                        else (self.feats, self.objs))
        count = 0
        while self.peek().text != ".":
            t = self.name()
            if t.text in other:
                self.fail(t, f"{t.text!r} already declared with the other sort")
            table.setdefault(t.text, 0)
            count += 1
        self.next()
        if count == 0:
            self.fail(self.peek(), "empty declaration")

    def decl_roles(self):
        self.next()
        counts = []
        for kw in ("box", "dia"):
            t = self.next()
            if t.text != kw:
                self.fail(t, f"expected {kw!r} in roles declaration")
            n = self.next()
            if n.kind != "INT":
                self.fail(n, "expected a role count")
            counts.append(int(n.text))
        self.box_roles, self.dia_roles = counts
        self.expect_sym(".")

    # -- concepts ----------------------------------------------------------

    def concept(self) -> S.Concept:
        """unary (("and" | "or") unary)*, read in one loop and grouped
        from the right, so a chain of any length parses."""
        operands, ops = [self.concept_unary()], []
        while (t := self.peek()).text in ("and", "or"):
            self.next()
            ops.append(t.text)
            operands.append(self.concept_unary())
        # conj is the meet chain being read, disj the joins right of it
        conj, disj = operands.pop(), None
        for op, left in zip(reversed(ops), reversed(operands)):
            if op == "and":
                conj = S.meet(left, conj)
            else:
                conj, disj = left, conj if disj is None else S.join(conj, disj)
        return conj if disj is None else S.join(conj, disj)

    def concept_unary(self) -> S.Concept:
        t = self.next()
        if t.mod and t.mod[0] in ("box", "dia"):
            op, idx = t.mod
            self.check_role(op, idx, t)
            child = self.concept_unary()
            return S.box(idx, child) if op == "box" else S.dia(idx, child)
        if t.text == "(":
            c = self.concept()
            self.expect_sym(")")
            return c
        if t.kind == "NAME" and t.text not in KEYWORDS:
            if t.text in self.objs or t.text in self.feats:
                self.fail(t, f"individual name {t.text!r} used as a concept")
            return S.atom(t.text)
        self.fail(t, f"expected a concept, found {t.text or 'end of input'!r}")

    def check_role(self, op: str, idx: int, tok: _Tok | None = None):
        limit = self.box_roles if op in ("box", "Rbox") else self.dia_roles
        if idx < 1 or idx > limit:
            raise UndeclaredRoleError(
                f"role index {idx} not covered by the roles declaration",
                *((tok.line, tok.col) if tok else ()))

    # -- statements ----------------------------------------------------------

    def axiom(self):
        head = self.peek()
        lhs = self.concept()
        t = self.next()
        if t.text not in ("equiv", "sub"):
            self.fail(t, f"expected 'equiv' or 'sub', found {t.text!r}")
        if lhs.kind != S.ATOM:
            self.fail(head, f"expected a concept name before {t.text!r}")
        rhs = self.concept()
        self.expect_sym(".")
        self.tbox.append(TBoxAxiom(t.text, lhs, rhs))

    def individual(self, want_sort: str, t: _Tok | None = None) -> S.Individual:
        """The name t, else the next token, declared with the sort."""
        t = t or self.name()
        if want_sort == S.OBJ:
            if t.text in self.feats:
                self.fail(t, f"feature name {t.text!r} used as an object")
            if t.text not in self.objs:
                self.fail(t, f"undeclared object {t.text!r}")
            return S.named_obj(t.text)
        if t.text in self.objs:
            self.fail(t, f"object name {t.text!r} used as a feature")
        if t.text not in self.feats:
            self.fail(t, f"undeclared feature {t.text!r}")
        return S.named_feat(t.text)

    def assertion(self):
        term = self.term()
        self.expect_sym(".")
        self.abox.add(term)

    def term(self) -> S.Assertion:
        """An assertion without its final '.'."""
        negated = self.peek().text == "not"
        if negated:
            self.next()
        head = self.name()
        sep = self.next()
        kind = _separator(sep)
        if kind is None:
            self.fail(sep, f"expected ':', '::' or a role after {head.text!r}")
        if kind in (":", "::"):
            ind = self.individual(S.OBJ if kind == ":" else S.FEAT, head)
            term = S.member(ind, self.concept())
        elif kind == "I":
            term = S.rel_i(self.individual(S.OBJ, head),
                           self.individual(S.FEAT))
        else:
            box = kind == "Rbox"
            left = self.individual(S.OBJ if box else S.FEAT, head)
            self.check_role(kind, sep.mod[1], sep)
            term = (S.rel_box if box else S.rel_dia)(
                sep.mod[1], left, self.individual(S.FEAT if box else S.OBJ))
        return S.neg(term) if negated else term


def _separator(t: _Tok) -> str | None:
    """':', '::', 'I', 'Rbox' or 'Rdia' when t may follow the name that
    heads an assertion, else None."""
    if t.mod:
        return t.mod[0] if t.mod[0] in ("Rbox", "Rdia") else None
    return t.text if t.text in (":", "::", "I") else None


def parse_kb(text: str) -> KnowledgeBase:
    """Parse a knowledge-base document. Raises ParseError with position."""
    return _Parser(text).parse()


def _context_parser(text: str, kb: KnowledgeBase) -> _Parser:
    # reads the KB's name sets and declares nothing, so they are shared
    p = _Parser(text)
    p.objs, p.feats = kb.declared
    p.box_roles = kb.box_roles
    p.dia_roles = kb.dia_roles
    return p


def parse_concept(text: str, kb: KnowledgeBase) -> S.Concept:
    """Parse a standalone concept expression in the context of a KB."""
    p = _context_parser(text, kb)
    c = p.concept()
    t = p.peek()
    if t.kind != "EOF":
        p.fail(t, f"trailing input after concept: {t.text!r}")
    return c


def parse_term(text: str, kb: KnowledgeBase) -> S.Assertion:
    """Parse a standalone (possibly negated) ABox term for a KB; its final
    '.' may be left out."""
    p = _context_parser(text, kb)
    term = p.term()
    if p.peek().text == ".":
        p.next()
    t = p.peek()
    if t.kind != "EOF":
        p.fail(t, f"trailing input after term: {t.text!r}")
    return term


def parse_role(text: str, kb: KnowledgeBase) -> S.Role:
    """The role a name spells (see `Role.parse`), its index covered by
    the KB's roles declaration."""
    role = S.Role.parse(text)
    if role.index is not None:
        _context_parser("", kb).check_role(role.kind, role.index)
    return role


def parse_individual(name: str, kb: KnowledgeBase) -> S.Individual:
    """Resolve a declared individual name to its sorted form."""
    objs, feats = kb.declared
    if name in objs:
        return S.named_obj(name)
    if name in feats:
        return S.named_feat(name)
    raise ParseError(f"undeclared individual {name!r}")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def serialize_kb(kb: KnowledgeBase) -> str:
    """Render a knowledge base so that parse_kb(serialize_kb(kb)) is
    structurally equal to kb. Synthetic individuals are rejected."""
    for a in kb.abox:
        for ind in a.individuals():
            if ind.kind != S.NAMED:
                raise SerializationError(
                    f"synthetic name {ind} has no surface spelling")
    lines = ["# knowledge base"]
    if kb.box_roles or kb.dia_roles:
        lines.append(f"roles box {kb.box_roles} dia {kb.dia_roles}.")
    if kb.obj_names:
        lines.append("obj " + " ".join(kb.obj_names) + ".")
    if kb.feat_names:
        lines.append("feat " + " ".join(kb.feat_names) + ".")
    for ax in kb.tbox:
        lines.append(f"{ax}.")
    for a in sorted(kb.abox, key=str):
        if a.kind == S.NEG:
            lines.append(f"not {a.inner}.")
        else:
            lines.append(f"{a}.")
    return "\n".join(lines) + "\n"
