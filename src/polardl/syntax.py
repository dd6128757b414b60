"""Concept and assertion terms for the two-sorted lattice description logic.

The language has two sorts of individuals (objects and features), one
incidence role ``I`` between them, and indexed families of box roles
(object-to-feature) and diamond roles (feature-to-object).  Concepts are
built from atomic names with binary meet/join and the indexed modal
operators; there is no top or bottom concept.

Everything here is hash-consed, keyed by a term's parts: building the
same term twice returns the same object, so equality is identity and
sets/dicts over terms are cheap.  Values are immutable and thread-safe.

Synthetic individuals follow the tableaux conventions:

* ``classifier`` names ``a_C`` / ``x_C`` carve out a concept's extent and
  intent in the saturated model;
* adjoint names ``bdia(b)`` (black diamond), ``dia(b)``, ``box(y)`` and
  ``bsq(y)`` (black square) are introduced by the adjunction rules.

Two spellings are identified at construction time: ``dia_i(a_C)`` is the
same value as ``a_{dia_i C}`` and ``box_i(x_C)`` the same as
``x_{box_i C}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .errors import ParseError

# ---------------------------------------------------------------------------
# Concepts
# ---------------------------------------------------------------------------

ATOM = "atom"
MEET = "meet"
JOIN = "join"
BOX = "box"
DIA = "dia"

_concepts: dict = {}


class Concept:
    """A hash-consed concept term. Construct via atom/meet/join/box/dia.

    It holds its parts and its cached text; `fold` computes the rest."""

    __slots__ = ("kind", "name", "left", "right", "index", "child", "_str")

    def __init__(self, kind, name=None, left=None, right=None,
                 index=None, child=None):
        self.kind = kind
        self.name = name
        self.left = left
        self.right = right
        self.index = index
        self.child = child
        self._str = None

    def __repr__(self):
        return f"Concept({self})"

    def __str__(self):
        if self._str is None:
            texts = _Texts()
            self._str = fold(self, texts, partial(_spell, texts))
        return self._str


def fold(c: Concept, memo: dict, combine):
    """combine's value for c from its parts' values, parts first:
    combine(atom), combine(t, left, right) for a meet or join, combine(t,
    child) for a box or dia.  Walks with a stack, not recursion.  memo
    maps each concept walked to its value, and one in it is not walked
    again (a memo shared across calls walks shared parts once).  A part
    is looked up right before its value is used, so combine may drop
    values from memo; the walk computes them again where needed."""
    stack = [c]
    while stack:
        t = stack[-1]
        if t in memo:
            stack.pop()
        elif t.kind == ATOM:
            memo[stack.pop()] = combine(t)
        elif t.child is not None:
            if t.child in memo:
                memo[stack.pop()] = combine(t, memo[t.child])
            else:
                stack.append(t.child)
        elif t.left in memo and t.right in memo:
            memo[stack.pop()] = combine(t, memo[t.left], memo[t.right])
        else:
            stack += (t.right, t.left)   # the left part is walked first
    return memo[c]


class _Texts(dict):
    """A render's memo: a part whose text is cached counts as walked."""

    def __contains__(self, c):
        return c._str is not None or dict.__contains__(self, c)

    def __missing__(self, c):
        return c._str


def by_text(concepts: frozenset) -> list:
    """The concepts sorted by text.  A walk renders them parts first and
    stops at cached texts, so each render reads the cached texts of those
    among its parts."""
    walked = _Texts()
    for c in concepts:
        fold(c, walked, lambda t, *_: str(t) if t in concepts else None)
    return sorted(concepts, key=str)


def _spell(texts: dict, c: Concept, *parts) -> str:
    # c's text from its parts' texts, which texts then drops: a deep term
    # renders in linear space; a shared part is spelled again unless its
    # text is cached.  join binds looser than meet, meet than box and dia.
    if c.kind == ATOM:
        return c.name
    for part in (c.left, c.right, c.child):
        texts.pop(part, None)
    if c.kind == JOIN:
        return f"{_group(c.left, parts[0], JOIN)} or {parts[1]}"
    if c.kind == MEET:
        return (f"{_group(c.left, parts[0], MEET, JOIN)} and "
                f"{_group(c.right, parts[1], JOIN)}")
    return f"{c.kind}{c.index} {_group(c.child, parts[0], MEET, JOIN)}"


def _group(part: Concept, text: str, *loose) -> str:
    return f"({text})" if part.kind in loose else text


# terms are always truthy; setdefault keeps the first of racing builds
def atom(name: str) -> Concept:
    if not name:
        raise ValueError("atomic concept name must be nonempty")
    return _concepts.get(key := (ATOM, name)) or _concepts.setdefault(
        key, Concept(ATOM, name=name))


def meet(left: Concept, right: Concept) -> Concept:
    return _concepts.get(key := (MEET, left, right)) or _concepts.setdefault(
        key, Concept(MEET, left=left, right=right))


def join(left: Concept, right: Concept) -> Concept:
    return _concepts.get(key := (JOIN, left, right)) or _concepts.setdefault(
        key, Concept(JOIN, left=left, right=right))


def box(index: int, child: Concept) -> Concept:
    return _concepts.get(key := (BOX, index, child)) or _concepts.setdefault(
        key, Concept(BOX, index=index, child=child))


def dia(index: int, child: Concept) -> Concept:
    return _concepts.get(key := (DIA, index, child)) or _concepts.setdefault(
        key, Concept(DIA, index=index, child=child))


def subconcepts(c: Concept) -> frozenset:
    """All subterms of c, including c itself."""
    return _closure((c,))


def _closure(concepts) -> frozenset:
    walked: dict = {}
    for c in concepts:
        fold(c, walked, lambda *_: None)
    return frozenset(walked)


# ---------------------------------------------------------------------------
# Individuals
# ---------------------------------------------------------------------------

OBJ = "obj"
FEAT = "feat"

NAMED = "named"
CLASSIFIER = "classifier"
BLACK_DIA = "bdia"   # left adjoint of box, applied to an object
ADJ_DIA = "dia"      # diamond image of an object
ADJ_BOX = "box"      # box image of a feature
BLACK_SQ = "bsq"     # right adjoint of diamond, applied to a feature
PAD = "pad"          # isolated carrier element keeping empty sections stable

_names: dict = {}


class Individual:
    """A hash-consed individual name (object or feature)."""

    __slots__ = ("kind", "sort", "name", "concept", "index", "base", "_str")

    def __init__(self, kind, sort, name=None, concept=None,
                 index=None, base=None):
        self.kind = kind
        self.sort = sort
        self.name = name
        self.concept = concept
        self.index = index
        self.base = base
        self._str = None

    @property
    def is_synthetic(self) -> bool:
        return self.kind != NAMED

    def __repr__(self):
        return f"Individual({self})"

    def __str__(self):
        if self._str is None:
            if self.kind == NAMED:
                self._str = self.name
            elif self.kind == CLASSIFIER:
                tag = "a" if self.sort == OBJ else "x"
                self._str = f"{tag}[{self.concept}]"
            elif self.kind == PAD:
                self._str = "a[top]" if self.sort == OBJ else "x[bot]"
            else:
                self._str = f"{self.kind}{self.index}({self.base})"
        return self._str


def named(sort: str, name: str) -> Individual:
    if not name:
        raise ValueError("individual name must be nonempty")
    return _names.get(key := (NAMED, sort, name)) or _names.setdefault(
        key, Individual(NAMED, sort, name=name))


def named_obj(name: str) -> Individual:
    return named(OBJ, name)


def named_feat(name: str) -> Individual:
    return named(FEAT, name)


def classifier_obj(c: Concept) -> Individual:
    """The classifying object a_C."""
    return _names.get(key := (CLASSIFIER, OBJ, c)) or _names.setdefault(
        key, Individual(CLASSIFIER, OBJ, concept=c))


def classifier_feat(c: Concept) -> Individual:
    """The classifying feature x_C."""
    return _names.get(key := (CLASSIFIER, FEAT, c)) or _names.setdefault(
        key, Individual(CLASSIFIER, FEAT, concept=c))


def pad_obj() -> Individual:
    """The isolated padding object (the bottom row of incidence tables)."""
    return _names.get(key := (PAD, OBJ)) or _names.setdefault(
        key, Individual(PAD, OBJ))


def pad_feat() -> Individual:
    """The isolated padding feature."""
    return _names.get(key := (PAD, FEAT)) or _names.setdefault(
        key, Individual(PAD, FEAT))


def black_diamond(b: Individual, index: int) -> Individual:
    if b.sort != OBJ:
        raise ParseError("black diamond applies to objects")
    return _names.get(key := (BLACK_DIA, index, b)) or _names.setdefault(
        key, Individual(BLACK_DIA, OBJ, index=index, base=b))


def adj_diamond(b: Individual, index: int) -> Individual:
    """dia_i(b); collapses to the classifier of dia_i C when b is a_C."""
    if b.sort != OBJ:
        raise ParseError("diamond image applies to objects")
    if b.kind == CLASSIFIER:
        return classifier_obj(dia(index, b.concept))
    return _names.get(key := (ADJ_DIA, index, b)) or _names.setdefault(
        key, Individual(ADJ_DIA, OBJ, index=index, base=b))


def adj_box(y: Individual, index: int) -> Individual:
    """box_i(y); collapses to the classifier of box_i C when y is x_C."""
    if y.sort != FEAT:
        raise ParseError("box image applies to features")
    if y.kind == CLASSIFIER:
        return classifier_feat(box(index, y.concept))
    return _names.get(key := (ADJ_BOX, index, y)) or _names.setdefault(
        key, Individual(ADJ_BOX, FEAT, index=index, base=y))


def black_square(y: Individual, index: int) -> Individual:
    if y.sort != FEAT:
        raise ParseError("black square applies to features")
    return _names.get(key := (BLACK_SQ, index, y)) or _names.setdefault(
        key, Individual(BLACK_SQ, FEAT, index=index, base=y))


def dia_adjoint_view(b: Individual):
    """(index, base) when the object b is a diamond image, else None.

    Covers both the explicit dia_i(b) spelling and the identified
    classifier spelling a_{dia_i C} = dia_i(a_C).
    """
    if b.kind == ADJ_DIA:
        return b.index, b.base
    if b.kind == CLASSIFIER and b.concept.kind == DIA:
        return b.concept.index, classifier_obj(b.concept.child)
    return None


def box_adjoint_view(y: Individual):
    """(index, base) when the feature y is a box image, else None."""
    if y.kind == ADJ_BOX:
        return y.index, y.base
    if y.kind == CLASSIFIER and y.concept.kind == BOX:
        return y.concept.index, classifier_feat(y.concept.child)
    return None


# ---------------------------------------------------------------------------
# Roles (query-level handle on a relation family)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Role:
    """A relation name: the incidence relation I, or an indexed box/dia role."""

    kind: str           # its facts' kind: "I" | "box" | "dia"
    index: int | None = None

    def __post_init__(self):
        if self.kind == "I":
            if self.index is not None:
                raise ValueError("the incidence role carries no index")
        elif self.kind in ("box", "dia"):
            if not isinstance(self.index, int) or self.index < 1:
                raise ValueError("role indices are integers starting at 1")
        else:
            raise ValueError(f"unknown role kind {self.kind!r}")

    def __str__(self):
        if self.kind == "I":
            return "I"
        return ("Rbox" if self.kind == "box" else "Rdia") + str(self.index)

    @property
    def sorts(self) -> tuple:
        """(left sort, right sort) of the role's facts: I and box roles
        relate an object to a feature, dia roles a feature to an object."""
        return (FEAT, OBJ) if self.kind == "dia" else (OBJ, FEAT)

    @classmethod
    def of(cls, a: "Assertion") -> "Role":
        """The role of a relational assertion."""
        return cls(a.kind, a.index)

    @classmethod
    def parse(cls, text: str) -> "Role":
        """The role a name spells: I, Rbox<i> or Rdia<i>, i >= 1 in ASCII
        digits; anything else raises ParseError."""
        if text == "I":
            return cls("I")
        for prefix, kind in (("Rbox", "box"), ("Rdia", "dia")):
            digits = text.removeprefix(prefix)
            if (digits != text and digits.isascii() and digits.isdigit()
                    and int(digits) >= 1):
                return cls(kind, int(digits))
        raise ParseError(f"not a role name: {text!r}")


# ---------------------------------------------------------------------------
# Assertions
# ---------------------------------------------------------------------------

# a relational fact's kind is its role's (see notes/decisions.md)
REL_I = "I"
REL_BOX = BOX
REL_DIA = DIA
MEM_OBJ = "mobj"
MEM_FEAT = "mfeat"
NEG = "neg"

RELATIONAL_KINDS = (REL_I, REL_BOX, REL_DIA)

# Each table is nested part by part, its outer key the first individual
# (the inner fact for a negation), so no key tuple is kept per term.
# setdefault at each level keeps the first of racing builds; an empty
# inner table reads as missing, and setdefault then returns it.
_rel_i: dict = {}     # b -> {y: b I y}
_rel_box: dict = {}   # b -> {i: {y: b Rboxi y}}
_rel_dia: dict = {}   # y -> {i: {b: y Rdiai b}}
_members: dict = {}   # b -> {C: b : C};  y -> {C: y :: C}
_negs: dict = {}      # a -> not (a)


class Assertion:
    """A hash-consed ABox term.

    Positive kinds: ``b I y``, ``b Rbox_i y``, ``y Rdia_i b``, ``b : C``,
    ``y :: C``.  ``neg`` wraps exactly one positive term.
    """

    __slots__ = ("kind", "left", "right", "index", "ind", "concept",
                 "inner", "_str")

    def __init__(self, kind, left=None, right=None, index=None,
                 ind=None, concept=None, inner=None):
        self.kind = kind
        self.left = left
        self.right = right
        self.index = index
        self.ind = ind
        self.concept = concept
        self.inner = inner
        self._str = None

    @property
    def is_relational(self) -> bool:
        return self.kind in RELATIONAL_KINDS

    def individuals(self):
        if self.kind == NEG:
            return self.inner.individuals()
        if self.kind in RELATIONAL_KINDS:
            return (self.left, self.right)
        return (self.ind,)

    def __repr__(self):
        return f"Assertion({self})"

    def __str__(self):
        if self._str is None:
            if self.kind == REL_I:
                self._str = f"{self.left} I {self.right}"
            elif self.kind == REL_BOX:
                self._str = f"{self.left} Rbox{self.index} {self.right}"
            elif self.kind == REL_DIA:
                self._str = f"{self.left} Rdia{self.index} {self.right}"
            elif self.kind == MEM_OBJ:
                self._str = f"{self.ind} : {self.concept}"
            elif self.kind == MEM_FEAT:
                self._str = f"{self.ind} :: {self.concept}"
            else:
                self._str = f"not ({self.inner})"
        return self._str


def rel_i(b: Individual, y: Individual) -> Assertion:
    if b.sort != OBJ or y.sort != FEAT:
        raise ParseError(f"incidence terms relate an object to a feature: {b} I {y}")
    row = _rel_i.get(b) or _rel_i.setdefault(b, {})
    return row.get(y) or row.setdefault(y, Assertion(REL_I, left=b, right=y))


def rel_box(index: int, b: Individual, y: Individual) -> Assertion:
    if b.sort != OBJ or y.sort != FEAT:
        raise ParseError("box-role terms relate an object to a feature")
    row = _rel_box.get(b) or _rel_box.setdefault(b, {})
    row = row.get(index) or row.setdefault(index, {})
    return row.get(y) or row.setdefault(
        y, Assertion(REL_BOX, left=b, right=y, index=index))


def rel_dia(index: int, y: Individual, b: Individual) -> Assertion:
    if y.sort != FEAT or b.sort != OBJ:
        raise ParseError("dia-role terms relate a feature to an object")
    row = _rel_dia.get(y) or _rel_dia.setdefault(y, {})
    row = row.get(index) or row.setdefault(index, {})
    return row.get(b) or row.setdefault(
        b, Assertion(REL_DIA, left=y, right=b, index=index))


def member(ind: Individual, c: Concept) -> Assertion:
    """b : C for objects, y :: C for features."""
    row = _members.get(ind) or _members.setdefault(ind, {})
    return row.get(c) or row.setdefault(c, Assertion(
        MEM_OBJ if ind.sort == OBJ else MEM_FEAT, ind=ind, concept=c))


def creation_terms(c: Concept) -> tuple:
    """The creation pair of a concept: ``a_C : C`` and ``x_C :: C``."""
    return member(classifier_obj(c), c), member(classifier_feat(c), c)


def neg(a: Assertion) -> Assertion:
    if a.kind == NEG:
        raise ValueError("negation applies only to positive terms")
    return _negs.get(a) or _negs.setdefault(a, Assertion(NEG, inner=a))


def rel(role: Role, left: Individual, right: Individual) -> Assertion:
    """Relational term for a role handle; argument order is (left, right)
    in the role's own reading direction."""
    if role.kind == "I":
        return rel_i(left, right)
    if role.kind == "box":
        return rel_box(role.index, left, right)
    return rel_dia(role.index, left, right)


def map_assertion(a: Assertion, on_individual, on_concept) -> Assertion:
    """The same assertion over on_individual(i) for each individual i and
    on_concept(c) for its concept c; kind, role and negation are kept."""
    if a.kind == NEG:
        return neg(map_assertion(a.inner, on_individual, on_concept))
    if a.kind in (MEM_OBJ, MEM_FEAT):
        return member(on_individual(a.ind), on_concept(a.concept))
    return rel(Role.of(a), on_individual(a.left), on_individual(a.right))


# ---------------------------------------------------------------------------
# Depth profiles and ABox-level measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DepthProfile:
    box_depth: int
    dia_depth: int


def depth_profile(e) -> DepthProfile:
    """Depth bookkeeping of a concept or individual, used by the
    termination bounds, computed when asked.  A concept's depths are its
    maximal box and dia nesting.  Named and padding individuals sit at
    (0, 0); the classifier of C at (0, -k) on the object side, k the length
    of C's leading chain of dia operators, and at (-k, 0) on the feature
    side, k that of its leading box operators; each adjoint constructor
    shifts one counter by one in the direction of its rule (bdia box +1,
    dia dia -1, box box -1, bsq dia +1).  Prefix counts (rather than full
    nesting depths) are the offsets under which the membership-depth
    bounds survive meet/join decomposition while the classifier
    identifications stay depth-consistent."""
    if isinstance(e, Concept):
        return DepthProfile(*fold(e, {}, _nesting))
    box_depth = dia_depth = 0
    while e.base is not None:   # an adjoint name
        box_depth += (e.kind == BLACK_DIA) - (e.kind == ADJ_BOX)
        dia_depth += (e.kind == BLACK_SQ) - (e.kind == ADJ_DIA)
        e = e.base
    c = e.concept   # a classifier's; None for named and padding names
    while c is not None and c.kind == (DIA if e.sort == OBJ else BOX):
        box_depth -= c.kind == BOX
        dia_depth -= c.kind == DIA
        c = c.child
    return DepthProfile(box_depth, dia_depth)


def _nesting(c: Concept, *parts) -> tuple:
    return (max((p[0] for p in parts), default=0) + (c.kind == BOX),
            max((p[1] for p in parts), default=0) + (c.kind == DIA))


def occurring_concepts(assertions) -> frozenset:
    """Every concept occurring in the assertion set: subterm closure of
    the concepts in membership terms, positive or negated."""
    terms = (a.inner if a.kind == NEG else a for a in assertions)
    return _closure({t.concept for t in terms
                     if t.kind in (MEM_OBJ, MEM_FEAT)})


def role_indices(assertions, concepts) -> tuple:
    """The sorted box and dia role indices of the relational assertions,
    negated ones included, and of the concepts."""
    terms = [a.inner if a.kind == NEG else a for a in assertions]
    return tuple(sorted({t.index for t in (*terms, *concepts)
                         if t.kind == kind})
                 for kind in (BOX, DIA))


def individuals_in(assertions) -> set:
    out = set()
    for a in assertions:
        out.update(a.individuals())
    return out
