"""Query answering over a knowledge base.

One saturation of the unraveled ABox is cached and answers every
positive relationship, membership and subsumption query by lookup: the
saturated set is a universal model for those, so ``b : C`` is entailed
exactly when ``b I x_C`` was derived, and ``C1 sub C2`` exactly when
``a_C1 I x_C2`` was derived.  Negative relational queries are answered
by scanning the input ABox, which is complete for them.  Membership of
concepts absent from the ABox, negative membership, separation,
differentiation and identity add creation terms, a membership or extra
rules, so each resumes from the cached completion and derives only what
that delta enables.  Negative subsumption adds the creation pairs of
its two concepts and the subsumption as an extra rule, and resumes too.
Separation, differentiation and identity take declared names only, as
the CLI does.

Queries may run concurrently: the cached completion is built once and
shared read-only; a resumed run keeps its own facts apart from it and
never writes it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .errors import (ClashPresentError, UnknownNameError,
                     UnsupportedQueryError)
from .parser import KnowledgeBase
from .tbox import definition_map, expand_abox, substitute_concept
from . import syntax as S
from . import tableaux as T
from .syntax import Role


@dataclass
class Answer:
    """A query result: a boolean or a sorted name list, plus an optional
    certificate (clash trace or witnessing facts)."""
    value: object
    certificate: dict | None = None


def _steps_payload(steps):
    return [{"rule": rule, "premises": [str(p) for p in premises],
             "added": str(conclusion)}
            for rule, premises, conclusion in steps]


def _clash_answer(run) -> Answer:
    """True with the clash derivation when the run clashed, else False."""
    if run.is_consistent:
        return Answer(False, {"kind": "no-clash"})
    return Answer(True, {"kind": "clash",
                         "steps": _steps_payload(run.clash_certificate())})


def _fact_answer(fact, present) -> Answer:
    return Answer(present, {"kind": "facts",
                            "facts": [str(fact)] if present else [],
                            "absent": None if present else str(fact)})


def _listing(run, role: Role, anchor: S.Individual,
             include_synthetic: bool) -> Answer:
    """The names related to the anchor in the run (see
    `Completion.related`), with the facts that relate them."""
    found = run.related(role, anchor)
    if not include_synthetic:
        found = [i for i in found if not i.is_synthetic]
    heads = anchor.sort == role.sorts[0]   # the anchor is the left end
    facts = [S.rel(role, anchor, i) if heads else S.rel(role, i, anchor)
             for i in found]
    return Answer(sorted({str(i) for i in found}),
                  {"kind": "facts", "facts": sorted(map(str, facts))})


class QueryEngine:
    """Answers queries against one knowledge base (or raw assertion set)."""

    def __init__(self, source, *, max_steps: int | None = None):
        if isinstance(source, KnowledgeBase):
            self._defs = definition_map(source)
            self.abox = expand_abox(source.abox, self._defs)
            self.box_roles = source.box_roles
            self.dia_roles = source.dia_roles
        else:
            self.abox = frozenset(source)
            self.box_roles = None
            self.dia_roles = None
            self._defs = {}
        self._expanded: dict = {}   # query concept -> its expansion
        self.max_steps = max_steps
        self.saturation_runs = 0
        self._base: T.Completion | None = None
        self._lock = threading.Lock()   # guards _base and saturation_runs

    def _expand(self, c: S.Concept) -> S.Concept:
        """The query concept with every defined name expanded, memoized."""
        if self._defs and c not in self._expanded:
            self._expanded[c] = substitute_concept(c, self._defs)
        return self._expanded.get(c, c)

    # -- plumbing ------------------------------------------------------------

    def _extend(self, assertions=(), rules=T.BASE_RULES) -> T.Completion:
        """The ABox plus `assertions` under `rules`, resumed from the
        cached completion, which must be consistent."""
        start = self.completion
        with self._lock:
            self.saturation_runs += 1
        return T.saturate(self.abox.union(assertions), rules,
                          max_steps=self.max_steps, start=start)

    @property
    def completion(self) -> T.Completion:
        if self._base is None:
            with self._lock:
                if self._base is None:
                    self.saturation_runs += 1
                    self._base = T.saturate(self.abox,
                                            max_steps=self.max_steps)
        return self._base

    @property
    def is_consistent(self) -> bool:
        return self.completion.is_consistent

    def _require_consistent(self):
        if not self.completion.is_consistent:
            raise ClashPresentError(
                "queries are defined over a consistent knowledge base")

    def _known(self, ind: S.Individual):
        if ind not in self.completion.individuals:
            raise UnknownNameError(f"{ind} does not occur in the ABox")

    def _declared(self, *inds):
        """Names of the ABox as written: an extra rule that copies onto a
        synthetic name can grow without bound."""
        for ind in inds:
            self._known(ind)
            if ind.is_synthetic:
                raise UnknownNameError(
                    f"{ind} is synthetic; the query takes declared names")

    def _role_indices(self):
        if self.box_roles is not None:
            return (list(range(1, self.box_roles + 1)),
                    list(range(1, self.dia_roles + 1)))
        return S.role_indices(self.abox, self.completion.occurring)

    def _completion_with_concepts(self, concepts) -> T.Completion:
        """The cached completion when every concept already occurs; else
        a run resumed from it with the missing creation pairs."""
        self._require_consistent()
        missing = [c for c in concepts if c not in self.completion.occurring]
        if not missing:
            return self.completion
        run = self._extend(t for c in missing for t in S.creation_terms(c))
        if not run.is_consistent:
            raise ClashPresentError(
                "creation terms clashed on a consistent ABox; "
                "this indicates an engine defect")
        return run

    # -- relationship queries --------------------------------------------------

    def ask_relational(self, lhs: S.Individual, role: Role,
                       rhs: S.Individual) -> Answer:
        """Is the relational fact entailed? Lookup in the completion."""
        self._require_consistent()
        self._known(lhs)
        self._known(rhs)
        fact = S.rel(role, lhs, rhs)
        return _fact_answer(fact, fact in self.completion)

    def list_related(self, anchor: S.Individual, role: Role,
                     side: str = "right", *,
                     include_synthetic: bool = False) -> Answer:
        """All individuals related to the anchor under the role, on the
        given side; original names only unless include_synthetic.  I and
        box roles relate an object to a feature, dia roles a feature to
        an object: an anchor of the other sort is rejected."""
        if side not in ("right", "left"):
            raise UnsupportedQueryError(
                f"side must be 'right' or 'left', not {side!r}")
        self._require_consistent()
        self._known(anchor)
        left, right = role.sorts
        if (anchor.sort == left) != (side == "right"):
            names = {S.OBJ: "an object", S.FEAT: "a feature"}
            raise UnsupportedQueryError(
                f"{role} relates {names[left]} to {names[right]}: {anchor} "
                f"cannot stand on its {'left' if side == 'right' else 'right'}")
        return _listing(self.completion, role, anchor, include_synthetic)

    # -- membership / subsumption ----------------------------------------------

    def ask_membership(self, ind: S.Individual, c: S.Concept) -> Answer:
        """Is the individual in the extent (intent) of the concept?
        Defined names in the concept are expanded first."""
        self._known(ind)
        c = self._expand(c)
        run = self._completion_with_concepts([c])
        fact = (S.rel_i(ind, S.classifier_feat(c)) if ind.sort == S.OBJ
                else S.rel_i(S.classifier_obj(c), ind))
        return _fact_answer(fact, fact in run)

    def list_members(self, c: S.Concept, side: str = "extent", *,
                     include_synthetic: bool = False) -> Answer:
        if side not in ("extent", "intent"):
            raise UnsupportedQueryError(
                f"side must be 'extent' or 'intent', not {side!r}")
        c = self._expand(c)
        run = self._completion_with_concepts([c])
        anchor = (S.classifier_feat(c) if side == "extent"
                  else S.classifier_obj(c))
        return _listing(run, Role("I"), anchor, include_synthetic)

    def ask_subsumption(self, c1: S.Concept, c2: S.Concept) -> Answer:
        """Is every instance of c1 an instance of c2?"""
        c1, c2 = self._expand(c1), self._expand(c2)
        run = self._completion_with_concepts([c1, c2])
        fact = S.rel_i(S.classifier_obj(c1), S.classifier_feat(c2))
        return _fact_answer(fact, fact in run)

    def _ask_positive(self, t: S.Assertion) -> Answer:
        if t.kind in (S.MEM_OBJ, S.MEM_FEAT):
            return self.ask_membership(t.ind, t.concept)
        return self.ask_relational(t.left, Role.of(t), t.right)

    def ask_disjunctive(self, terms) -> Answer:
        """Disjunction of positive queries: true iff some disjunct is
        individually entailed."""
        answers = []
        for t in terms:
            if t.kind == S.NEG:
                raise UnsupportedQueryError(
                    "disjunctive queries take negation-free terms")
            sub = self._ask_positive(t)
            answers.append((t, sub))
            if sub.value:
                return Answer(True, {"kind": "disjunct", "witness": str(t),
                                     "facts": sub.certificate["facts"]})
        return Answer(False, {"kind": "disjunct", "witness": None,
                              "failed": [str(t) for t, _ in answers]})

    # -- negative queries --------------------------------------------------------

    def ask_negative_relational(self, t: S.Assertion) -> Answer:
        """Entailment of the negation of a relational fact: a scan of the
        input ABox, no saturation."""
        self._require_consistent()
        if t.kind == S.NEG:
            t = t.inner
        if not t.is_relational:
            raise UnsupportedQueryError("expected a relational term")
        for ind in t.individuals():
            self._known(ind)
        return _fact_answer(S.neg(t), S.neg(t) in self.abox)

    def ask_negative_membership(self, ind: S.Individual,
                                c: S.Concept) -> Answer:
        """Entailed non-membership: add the membership and test
        consistency of the extension."""
        self._require_consistent()
        self._known(ind)
        return _clash_answer(
            self._extend([S.member(ind, self._expand(c))]))

    def ask_negative_subsumption(self, c1: S.Concept,
                                 c2: S.Concept) -> Answer:
        """Entailed non-subsumption: add the creation pairs of c1 and c2
        and the extra rule for c1 sub c2, then test consistency.  Each
        conclusion of the rule holds under the axiom, so a clash proves
        that no model of the ABox satisfies it.

        Supported only when no subformula of c1 appears in c2.
        """
        self._require_consistent()
        c1, c2 = self._expand(c1), self._expand(c2)
        if S.subconcepts(c1) & S.subconcepts(c2):
            raise UnsupportedQueryError(
                "negative subsumption needs c1 and c2 subformula-disjoint")
        return _clash_answer(self._extend(
            S.creation_terms(c1) + S.creation_terms(c2),
            (T.SubsumptionRule(c1, c2),)))

    # -- separation / differentiation / identity ---------------------------------

    def ask_separation(self, first: S.Individual, second: S.Individual,
                       role: Role = Role("I")) -> Answer:
        """Does the ABox entail some fact of `first` under the role that
        `second` provably lacks?  Decided by saturating with the rule
        that copies first's facts to second: entailed iff that clashes."""
        self._require_consistent()
        self._declared(first, second)
        if first.sort != second.sort:
            raise UnsupportedQueryError("separation compares same-sort names")
        return _clash_answer(self._extend(
            rules=(T.CopyRule(role, first, second),)))

    def ask_relation_separation(self, lhs: Role, rhs: Role,
                                pivot: S.Individual) -> Answer:
        """Does the ABox entail that the pivot has an lhs-role fact whose
        rhs-role counterpart provably fails?"""
        self._require_consistent()
        self._declared(pivot)
        return _clash_answer(self._extend(
            rules=(T.RelationInclusionRule(lhs, rhs, pivot),)))

    def ask_differentiation(self, first: S.Individual, second: S.Individual,
                            role: Role = Role("I")) -> Answer:
        """Are the two names provably distinguishable under the role?
        One saturation with both copy directions: distinguishable iff
        forcing their rows equal is inconsistent."""
        self._require_consistent()
        self._declared(first, second)
        if first is second:
            return Answer(False, {"kind": "no-clash"})
        if first.sort != second.sort:
            raise UnsupportedQueryError(
                "differentiation compares same-sort names")
        return _clash_answer(self._extend(
            rules=(T.CopyRule(role, first, second),
                   T.CopyRule(role, second, first))))

    def ask_identity(self, first: S.Individual,
                     second: S.Individual) -> Answer:
        """Provably-not-identical: some relation (I or any box/dia role)
        differentiates the two names."""
        self._require_consistent()
        box_is, dia_is = self._role_indices()
        roles = [Role("I")] + [Role("box", i) for i in box_is] + \
                [Role("dia", i) for i in dia_is]
        for role in roles:
            sub = self.ask_differentiation(first, second, role)
            if sub.value:
                cert = dict(sub.certificate)
                cert["role"] = str(role)
                return Answer(True, cert)
        return Answer(False, {"kind": "no-clash",
                              "roles": [str(r) for r in roles]})

    # -- equivalence ---------------------------------------------------------------

    def _entails(self, t: S.Assertion) -> bool:
        if t.kind == S.NEG:
            inner = t.inner
            if inner.is_relational:
                return S.neg(inner) in self.abox
            return not self._extend(
                [S.member(inner.ind, self._expand(inner.concept))]
            ).is_consistent
        if any(i not in self.completion.individuals
               for i in t.individuals()):
            return False
        return self._ask_positive(t).value

    def ask_equivalence(self, other) -> Answer:
        """Are the two ABoxes equivalent: every term of each entailed by
        the other?"""
        self._require_consistent()
        if isinstance(other, QueryEngine):
            peer = other
        else:
            peer = QueryEngine(other, max_steps=self.max_steps)
        peer._require_consistent()
        failures = []
        for t in sorted(peer.abox, key=str):
            if not self._entails(t):
                failures.append(f"first does not entail: {t}")
        for t in sorted(self.abox, key=str):
            if not peer._entails(t):
                failures.append(f"second does not entail: {t}")
        return Answer(not failures,
                      {"kind": "equivalence", "failures": failures})
