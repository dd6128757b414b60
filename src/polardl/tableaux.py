"""Saturation engine: expansion rules, clash detection, completions.

An assertion set is saturated under the expansion rules below until no
rule adds anything new.  A *clash* is the co-presence of a relational
term and its negation; the input is inconsistent exactly when the
saturated set contains a clash.  Rules never branch and never retract,
so the fixpoint is unique regardless of scheduling.

Base rules (one line per rule; premises left of =>):

    create:   C occurring in the input        =>  a_C : C,  x_C :: C
    I:        b : C,  y :: C                  =>  b I y
    and_A:    b : C1 and C2                   =>  b : C1,  b : C2
    or_X:     y :: C1 or C2                   =>  y :: C1,  y :: C2
    box:      b : boxi C,  y :: C             =>  b Rboxi y
    dia:      y :: diai C,  b : C             =>  y Rdiai b
    box_y:    b I boxi(y)                     =>  b Rboxi y
    bsq_y:    b I bsqi(y)                     =>  y Rdiai b
    dia_b:    diai(b) I y                     =>  y Rdiai b
    bdia_b:   bdiai(b) I y                    =>  b Rboxi y
    and_inv:  b : C1,  b : C2   [C1 and C2 occurs in the input]
                                              =>  b : C1 and C2
    or_inv:   y :: C1,  y :: C2 [C1 or C2 occurs in the input]
                                              =>  y :: C1 or C2
    adj_box:  b Rboxi y                       =>  bdiai(b) I y,  b I boxi(y)
    adj_dia:  y Rdiai b                       =>  diai(b) I y,  b I bsqi(y)
    neg_b:    not (b : C)                     =>  not (b I x_C)
    neg_x:    not (y :: C)                    =>  not (a_C I y)
    append_x: b I x_C                         =>  b : C
    append_a: a_C I y                         =>  y :: C

Side conditions of and_inv/or_inv test occurrence in the input set,
frozen at saturation start; creation likewise runs once, up front, for
the concepts occurring in the input.  The classifier identifications
(``diai(a_C) = a_{diai C}``, ``boxi(x_C) = x_{boxi C}``) are built into
the term constructors; the adjoint-shape rules (box_y, bsq_y, dia_b,
bdia_b) match explicit adjoint names only, while the appending rules
match classifier names only, so every name triggers exactly the rules
of its normal form.

Extra rules fold a universal axiom into saturation; consistency of the
extended set decides the corresponding separation or negative
subsumption query.  There are three forms.  Each has trigger keys and a
``conclude(fact)``, compiled into one dict when saturation starts.  A
positive relational fact fires the rules keyed by (its kind, its index,
either of its ends); a membership fact fires those keyed by (its kind,
None, its concept).  These are keys of the index below.  A run without
extra rules never looks a fact up.

    CopyRule(R, s, d), s and d of one sort; key (R, s):
        a fact of s under R           =>  the same fact with d for s
        label SA(s,d) / SX(s,d) for R = I, else SA[R](s,d) / SX[R](s,d)
    RelationInclusionRule(L, R, p); key (L, p):
        b Rboxi y,  b = p             =>  y Rdiaj b  or  b I y
        y Rdiai b,  y = p             =>  b Rboxj y  or  b I y
        label SA(L,R,p) for an object pivot, SX(L,R,p) for a feature
    SubsumptionRule(C1, C2), C1 and C2 occurring in the input;
    keys (b : C1) and (y :: C2):
        b : C1                        =>  b : C2
        y :: C2                       =>  y :: C1
        label SUB(C1,C2)

Negative assertions never match a positive premise: they only feed
neg_b/neg_x and clash detection.

Resumption: every run resumes a finished run, its base, which it shares
and never writes.  The finished run is the completion: ``saturate``
returns the run itself.  ``saturate(..., start=comp)`` resumes the
consistent completion comp; a run from scratch resumes the empty run.  A run fires
only what the delta enables: each new extra rule on the base facts of
its triggers, the new inputs, creation for newly occurring concepts,
and and_inv/or_inv for newly occurring meets and joins over pairs of
base memberships (a pair with a new member fires in the loop, which
finds the new meet or join in the run's own rows).  Every base fact has
fired, rules are monotone and side conditions only grow, so the verdict
and a consistent fixpoint equal a run from scratch; a clashing run may
stop at another partial set.

Facts are numbered in completion order, the base's first.  A run logs
each fact it adds with its rule label and premise numbers, which every
rule takes from the fact it fires and the row entries it reads, and
``provenance`` decodes (rule, premise facts) when read.  Every positive
fact is indexed by key, key -> {partner: fact number}, and each
occurring meet (join) under each operand:

    b Rboxi y:  (box, i, b) -> {y: n},  (box, i, y) -> {b: n}
    b : C:      (mobj, None, b) -> {C: n},  (mobj, None, C) -> {b: n}
    b : boxi C: also (mobj, box, C) -> {(i, b): n}
    C1 and C2:  (meet, None, C1) -> {C1 and C2: C2},  and under C2

and likewise for I and dia-role facts, for feature memberships (mfeat,
with dia in place of box) and for joins.  A run owns only what it adds:
its facts, its new concepts and their rows.  Every read takes the
base's row first, then the run's own, so rows and facts follow
completion order.  Join rules (I, box, dia, box_y, bsq_y, dia_b, bdia_b)
look a conclusion up there before they build it; and_inv and or_inv
read their second premise there.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .errors import (ResourceLimitError, UnknownIndividualError,
                     UnsupportedRuleError)
from . import syntax as S
from .syntax import Role


# ---------------------------------------------------------------------------
# Extra (separation) rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CopyRule:
    """From every ``role`` fact of src infer the same fact of dst (axiom:
    every role-partner of src is one of dst).  src and dst share a sort,
    and dst takes src's place in the fact: ``src Rboxi y`` gives
    ``dst Rboxi y`` for objects, ``b I src`` gives ``b I dst`` for
    features."""
    role: Role
    src: S.Individual
    dst: S.Individual

    def __post_init__(self):
        if self.src.sort != self.dst.sort:
            raise UnsupportedRuleError(
                f"copy rule {self.label} relates individuals of two sorts")

    @property
    def label(self):
        tag = "SA" if self.src.sort == S.OBJ else "SX"
        at = "" if self.role.kind == "I" else f"[{self.role}]"
        return f"{tag}{at}({self.src},{self.dst})"

    @property
    def triggers(self):
        return ((self.role.kind, self.role.index, self.src),)

    def conclude(self, a: S.Assertion) -> S.Assertion:
        if a.left is self.src:
            return S.rel(self.role, self.dst, a.right)
        return S.rel(self.role, a.left, self.dst)

    def individuals(self):
        return (self.src, self.dst)


@dataclass(frozen=True)
class RelationInclusionRule:
    """At a pivot individual, every lhs-role fact implies the rhs fact.

    Supported: box->dia and box->I at an object pivot, dia->box and
    dia->I at a feature pivot.  The I->box / I->dia directions have no
    terminating expansion and are rejected.

    The crossing directions (box->dia, dia->box) do not keep the
    box/dia shape invariant reported by ``Completion.invariant_violations``:
    a dia fact ``y Rdiai a[diai C]`` at the pivot concludes
    ``a[diai C] Rboxj y``, a dia-image heading a box-role fact (and
    mirrored for box->dia).  The ->I directions keep it.
    """
    lhs: Role
    rhs: Role
    pivot: S.Individual

    def __post_init__(self):
        if self.lhs.kind == "I":
            raise UnsupportedRuleError(
                "inclusions of I into a box or dia role may not terminate")
        if (self.rhs.kind == self.lhs.kind
                or self.pivot.sort != self.lhs.sorts[0]):
            raise UnsupportedRuleError(f"unsupported direction {self.label}")

    @property
    def label(self):
        tag = "SA" if self.pivot.sort == S.OBJ else "SX"
        return f"{tag}({self.lhs},{self.rhs},{self.pivot})"

    @property
    def triggers(self):
        return ((self.lhs.kind, self.lhs.index, self.pivot),)

    def conclude(self, a: S.Assertion) -> S.Assertion:
        # the premise's ends, in the order of the rhs's sorts
        if a.left.sort == self.rhs.sorts[0]:
            return S.rel(self.rhs, a.left, a.right)
        return S.rel(self.rhs, a.right, a.left)

    def individuals(self):
        return (self.pivot,)


@dataclass(frozen=True)
class SubsumptionRule:
    """The axiom c1 sub c2: the extent of c1 lies inside that of c2, and
    the intent of c2 inside that of c1.  Both concepts must occur in the
    input; a query adds their creation pairs."""
    c1: S.Concept
    c2: S.Concept

    @property
    def label(self):
        return f"SUB({self.c1},{self.c2})"

    @property
    def triggers(self):
        return ((S.MEM_OBJ, None, self.c1), (S.MEM_FEAT, None, self.c2))

    def conclude(self, a: S.Assertion) -> S.Assertion:
        return S.member(a.ind, self.c2 if a.kind == S.MEM_OBJ else self.c1)

    def individuals(self):
        return ()


# a rule set: the extra rules a run adds to the base rules, in order
BASE_RULES = ()


# ---------------------------------------------------------------------------
# Completion: one saturation run, which once finished is its result
# ---------------------------------------------------------------------------

_NO_ROW: dict = {}   # the row of a key nothing is indexed under; never written
_PAD = ((-1, -1), (-1,), ())   # pads premise numbers to two; -1 is none


class Provenance(Mapping):
    """A run's provenance, read-only: fact -> (rule label, premise facts),
    in completion order, the base's facts first.  It decodes an entry
    from the run's log when read.  It holds the run's numbers and log and
    its base's view, never the run, so a finished run is freed by
    reference counting alone."""

    def __init__(self, numbers: dict, log: list, base: Provenance | None):
        self.numbers, self.log, self.base = numbers, log, base
        self.start = len(base) if base else 0   # the first fact's number

    def step(self, n: int) -> list:
        """The fact numbered n, its rule label and its two premise
        numbers (-1 for none)."""
        if n < self.start:
            return self.base.step(n)
        k = 4 * (n - self.start)
        return self.log[k:k + 4]

    def rules(self):
        """The rule label of each fact, in completion order."""
        return chain(self.base.rules() if self.base else (), self.log[1::4])

    def __getitem__(self, a: S.Assertion) -> tuple:
        if a not in self.numbers and self.base:
            return self.base[a]
        _, rule, p, q = self.step(self.numbers[a])   # KeyError if absent
        return rule, tuple(self.step(m)[0] for m in (p, q) if m >= 0)

    def __iter__(self):
        return chain(self.base or (), self.numbers)

    def __len__(self) -> int:
        return self.start + len(self.numbers)


class Completion:
    """A saturation run.  The run `saturate` returns is finished: the
    saturated assertion set with provenance and clash witness, never
    written again except for its lazily built caches."""

    def __init__(self, input_assertions: frozenset, rules: tuple,
                 max_steps, shuffle_seed, occurring: frozenset,
                 individuals: frozenset, base: Completion | None = None):
        self.input_assertions = input_assertions
        self.rules = rules
        self.max_steps = max_steps
        self.rng = random.Random(shuffle_seed) if shuffle_seed is not None else None
        self.occurring = occurring       # concepts occurring in the input
        self.individuals = individuals   # of the input assertions

        # fact -> number: the facts this run adds, numbered from start,
        # and its base's; the log holds per own fact the fact, its rule
        # label and two premise numbers (-1 for none)
        self.own, self.inherited, self.log = {}, {}, []
        self.provenance = Provenance(self.own, self.log,
                                     base.provenance if base else None)
        self.start = self.provenance.start
        self.rows, self.base_rows = {}, {}  # key -> {partner: number}
        self.neg_relational: dict = {}   # relational terms under a negation
        self.clash = None            # (positive term, its negation)
        self.fired = 0               # facts fired
        self.worklist = deque()      # numbers of facts to fire

        self.extra_rules: dict = {}  # trigger key -> [(conclude, label)]
        for extra in rules:
            for key in extra.triggers:
                self.extra_rules.setdefault(key, []).append(
                    (extra.conclude, extra.label))

    # -- the finished completion ---------------------------------------------

    @property
    def is_consistent(self) -> bool:
        return self.clash is None

    def __contains__(self, a: S.Assertion) -> bool:
        return a in self.own or a in self.inherited

    @cached_property
    def assertions(self) -> tuple:
        return tuple(self.provenance)

    @cached_property
    def stats(self) -> Counter:
        """Rule label -> the facts it added, labels in order of first use."""
        return Counter(self.provenance.rules())

    @cached_property
    def invariant_violations(self) -> tuple:
        """One message per positive fact whose shape mixes the box and dia
        images, in completion order: a dia-image I a box-image, or a
        dia-image (box-image) heading a box-role (dia-role) fact.

        Saturation under the base rules, the copy rules and the role-into-I
        inclusions derives none of these; a crossing relation inclusion
        breaks this by construction (see RelationInclusionRule).
        """
        out = []
        for a in self.provenance:
            if a.kind == S.REL_I:
                if (S.dia_adjoint_view(a.left) is not None
                        and S.box_adjoint_view(a.right) is not None):
                    out.append(f"dia-image I box-image: {a}")
            elif a.kind == S.REL_BOX:
                if S.dia_adjoint_view(a.left) is not None:
                    out.append(f"dia-image heads a box-role fact: {a}")
            elif a.kind == S.REL_DIA:
                if S.box_adjoint_view(a.left) is not None:
                    out.append(f"box-image heads a dia-role fact: {a}")
        return tuple(out)

    def related(self, role: Role, anchor: S.Individual):
        """The individuals related to the anchor by a fact of the role, at
        the end of the other sort: the partners in the anchor's row."""
        return [*chain(*self._rows((role.kind, role.index, anchor)))]

    def steps(self):
        """Full derivation trace: (rule, premises, conclusion) per added
        assertion, input terms excluded."""
        return [(rule, premises, a)
                for a, (rule, premises) in self.provenance.items()
                if rule != "input"]

    def clash_certificate(self):
        """Derivation steps leading to the clash pair: the chain that
        derives the positive term first, then the chain producing its
        negation; empty when consistent."""
        if self.clash is None:
            return []
        view, steps = self.provenance, []
        found = {-1}   # -1 pads a missing premise: never walked
        for root in self.clash:
            # derived ancestors of root not found before, in fact order
            queue, new = [self.own.get(root, self.inherited.get(root))], []
            while queue:
                n = queue.pop()
                if n not in found:
                    found.add(n)
                    _, rule, p, q = view.step(n)
                    queue += p, q
                    if rule != "input":
                        new.append(n)
            steps += sorted(new)
        return [(*view[a], a) for a in (view.step(n)[0] for n in steps)]

    # -- saturation ----------------------------------------------------------

    def fork(self, inputs: frozenset, rules: tuple, max_steps,
             shuffle_seed) -> Completion:
        """A run over the given inputs and rules that starts from this
        finished run's facts.  It shares them and never writes them: it
        adds to its own layer of facts and rows."""
        delta = inputs - self.input_assertions
        run = Completion(inputs, rules, max_steps, shuffle_seed,
                         self.occurring | S.occurring_concepts(delta),
                         self.individuals | S.individuals_in(delta), self)
        if self.inherited:   # fall-through stays one level deep
            run.inherited = {**self.inherited, **self.own}
            run.base_rows = {**self.base_rows, **{
                k: {**self.base_rows.get(k, {}), **row}
                for k, row in self.rows.items()}}
        else:
            run.inherited, run.base_rows = self.own, self.rows
        run.neg_relational = dict(self.neg_relational)
        run.fired = self.fired
        return run

    # -- fact store ----------------------------------------------------------

    def add(self, a: S.Assertion, rule: str, premises: tuple):
        """Add a, derived by rule from the facts numbered premises."""
        own = self.own
        if a in own or a in self.inherited or self.clash is not None:
            return
        n = own[a] = self.start + len(own)
        log = self.log
        log.append(a)
        log.append(rule)
        log += premises + _PAD[len(premises)]
        self.worklist.append(n)
        rows = self.rows
        if a.kind == S.NEG:
            if a.inner.is_relational:
                self.neg_relational[a.inner] = a
                if a.inner in self.own or a.inner in self.inherited:
                    self.clash = (a.inner, a)
        elif a.is_relational:
            hit = self.neg_relational.get(a)
            if hit is not None:
                self.clash = (a, hit)
            rows.setdefault((a.kind, a.index, a.left), {})[a.right] = n
            rows.setdefault((a.kind, a.index, a.right), {})[a.left] = n
        else:
            x, c = a.ind, a.concept
            rows.setdefault((a.kind, None, x), {})[c] = n
            rows.setdefault((a.kind, None, c), {})[x] = n
            if c.kind == (S.BOX if a.kind == S.MEM_OBJ else S.DIA):
                key = (a.kind, c.kind, c.child)
                rows.setdefault(key, {})[c.index, x] = n

    def _rows(self, key) -> tuple:
        """The base's row at a key, then this run's own.  A run from
        scratch has no base rows: it skips hashing the key for them."""
        based = self.base_rows
        return (based.get(key, _NO_ROW) if based else _NO_ROW,
                self.rows.get(key, _NO_ROW))

    def _fact(self, key, partner):
        """The number of the fact under the key with the partner, or None."""
        based, own = self._rows(key)
        n = own.get(partner)
        return based.get(partner) if n is None else n

    # -- rule dispatch -------------------------------------------------------

    def fire_membership(self, a, n):
        """The rules of b : C, and their mirror images on y :: C."""
        x, c = a.ind, a.concept
        op, split, inv, other = _SIDES[a.kind]
        modal, make = _MODAL[a.kind]
        mirror, mmake = _MODAL[other]
        if c.kind == op:
            self.add(S.member(x, c.left), split, (n,))
            self.add(S.member(x, c.right), split, (n,))
        for row in self._rows((op, None, c)):
            for m, operand in row.items():
                if (p := self._fact((a.kind, None, x), operand)) is not None:
                    self.add(S.member(x, m), inv, (n, p))
        # join rules add relational facts only: the rows walked stay put
        based, own = self._rows((S.REL_I, None, x))
        for row in self._rows((other, None, c)):
            for z in row:
                if z not in own and z not in based:
                    if other == S.MEM_FEAT:
                        self.add(S.rel_i(x, z), "I", (n, row[z]))
                    else:
                        self.add(S.rel_i(z, x), "I", (row[z], n))
        if c.kind == modal:
            based, own = self._rows((modal, c.index, x))
            for row in self._rows((other, None, c.child)):
                for z in row:
                    if z not in own and z not in based:
                        self.add(make(c.index, x, z), modal, (n, row[z]))
        for row in self._rows((other, mirror, c)):
            for (i, z), p in row.items():
                if self._fact((mirror, i, x), z) is None:
                    self.add(mmake(i, z, x), mirror, (p, n))

    def fire_incidence(self, a, n):
        b, y = a.left, a.right
        if y.kind == S.CLASSIFIER:
            self.add(S.member(b, y.concept), "append_x", (n,))
        elif y.kind == S.ADJ_BOX:
            if self._fact((S.REL_BOX, y.index, b), y.base) is None:
                self.add(S.rel_box(y.index, b, y.base), "box_y", (n,))
        elif y.kind == S.BLACK_SQ:
            if self._fact((S.REL_DIA, y.index, b), y.base) is None:
                self.add(S.rel_dia(y.index, y.base, b), "bsq_y", (n,))
        if b.kind == S.CLASSIFIER:
            self.add(S.member(y, b.concept), "append_a", (n,))
        elif b.kind == S.ADJ_DIA:
            if self._fact((S.REL_DIA, b.index, y), b.base) is None:
                self.add(S.rel_dia(b.index, y, b.base), "dia_b", (n,))
        elif b.kind == S.BLACK_DIA:
            if self._fact((S.REL_BOX, b.index, y), b.base) is None:
                self.add(S.rel_box(b.index, b.base, y), "bdia_b", (n,))

    def fire_box_fact(self, a, n):
        i, b, y = a.index, a.left, a.right
        self.add(S.rel_i(S.black_diamond(b, i), y), "adj_box", (n,))
        self.add(S.rel_i(b, S.adj_box(y, i)), "adj_box", (n,))

    def fire_dia_fact(self, a, n):
        i, y, b = a.index, a.left, a.right
        self.add(S.rel_i(S.adj_diamond(b, i), y), "adj_dia", (n,))
        self.add(S.rel_i(b, S.black_square(y, i)), "adj_dia", (n,))

    def fire_extras(self, a, n):
        if a.is_relational:
            keys = ((a.kind, a.index, a.left), (a.kind, a.index, a.right))
        else:
            keys = ((a.kind, None, a.concept),)
        for key in keys:
            for conclude, label in self.extra_rules.get(key, ()):
                self.add(conclude(a), label, (n,))

    def fire_negative(self, a, n):
        t = a.inner
        if t.kind == S.MEM_OBJ:
            self.add(S.neg(S.rel_i(t.ind, S.classifier_feat(t.concept))),
                     "neg_b", (n,))
        elif t.kind == S.MEM_FEAT:
            self.add(S.neg(S.rel_i(S.classifier_obj(t.concept), t.ind)),
                     "neg_x", (n,))

    # -- main loop -----------------------------------------------------------

    def _check_extras(self, extras):
        for extra in extras:
            for ind in extra.individuals():
                if ind not in self.individuals:
                    raise UnknownIndividualError(
                        f"extra rule names {ind}, which does not occur in the ABox")
            if isinstance(extra, SubsumptionRule) and not (
                    extra.c1 in self.occurring and extra.c2 in self.occurring):
                raise UnsupportedRuleError(
                    f"{extra.label} names a concept that does not occur "
                    "in the ABox")

    def resume(self, base: Completion) -> Completion:
        """Fire what the delta adds to the finished run `base`, forked
        into this run."""
        new_extras = self.rules[len(base.rules):]
        self._check_extras(new_extras)
        step = base.provenance.step
        for extra in new_extras:
            conclude, label = extra.conclude, extra.label
            for key in extra.triggers:
                for row in base._rows(key):
                    for n in row.values():
                        self.add(conclude(step(n)[0]), label, (n,))
        # rendered smallest first, so the inputs' sort reads cached texts
        fresh = S.by_text(self.occurring - base.occurring)
        for a in sorted(self.input_assertions - base.input_assertions,
                        key=str):
            self.add(a, "input", ())
        for c in fresh:
            for a in S.creation_terms(c):
                self.add(a, "create", ())
        for c in fresh:
            if c.kind == S.MEET or c.kind == S.JOIN:
                # a row under each operand; the pairs of base facts fire
                # here, the others in the loop
                self.rows.setdefault((c.kind, None, c.left), {})[c] = c.right
                self.rows.setdefault((c.kind, None, c.right), {})[c] = c.left
                kind, label = ((S.MEM_OBJ, "and_inv") if c.kind == S.MEET
                               else (S.MEM_FEAT, "or_inv"))
                for row in base._rows((kind, None, c.left)):
                    for ind, p in row.items():
                        q = base._fact((kind, None, ind), c.right)
                        if q is not None:
                            self.add(S.member(ind, c), label, (p, q))
        return self._loop()

    def _loop(self) -> Completion:
        steps, log, start = self.fired, self.log, self.start
        while self.worklist and self.clash is None:
            if self.rng is None:
                n = self.worklist.popleft()
            else:
                k = self.rng.randrange(len(self.worklist))
                self.worklist.rotate(-k)
                n = self.worklist.popleft()
                self.worklist.rotate(k)
            steps += 1
            if self.max_steps is not None and steps > self.max_steps:
                raise ResourceLimitError(
                    f"saturation exceeded {self.max_steps} steps")
            a = log[4 * (n - start)]    # fire the rules a is a premise of
            _FIRE[a.kind](self, a, n)
            if self.extra_rules and a.kind != S.NEG:
                self.fire_extras(a, n)
        self.fired = steps
        return self


# per membership kind: the operator of and_A/and_inv (or_X/or_inv), their
# labels and the partners' kind; and the operator of its modal rule, box
# (dia), which the other kind mirrors, and its term constructor: the
# operator is also the rule's label and its conclusions' kind
_SIDES = {S.MEM_OBJ: (S.MEET, "and_A", "and_inv", S.MEM_FEAT),
          S.MEM_FEAT: (S.JOIN, "or_X", "or_inv", S.MEM_OBJ)}
_MODAL = {S.MEM_OBJ: (S.BOX, S.rel_box), S.MEM_FEAT: (S.DIA, S.rel_dia)}
# the rules a fact of each kind is a premise of
_FIRE = {S.MEM_OBJ: Completion.fire_membership,
         S.MEM_FEAT: Completion.fire_membership,
         S.REL_I: Completion.fire_incidence, S.REL_BOX: Completion.fire_box_fact,
         S.REL_DIA: Completion.fire_dia_fact, S.NEG: Completion.fire_negative}

# the base of every run from scratch: no inputs, facts or extras; runs
# fork it, so it stays empty
_EMPTY = Completion(frozenset(), BASE_RULES, None, None, frozenset(),
                    frozenset())


def saturate(assertions, rules: tuple = BASE_RULES, *,
             max_steps: int | None = None,
             shuffle_seed: int | None = None,
             start: Completion | None = None) -> Completion:
    """Saturate an assertion set under the base rules and the given extra
    rules.

    Deterministic by default (fixed scheduling); pass shuffle_seed to run
    a randomized fair schedule, which reaches the same fixpoint.  A
    clash short-circuits saturation; the partial set is still reported.

    `start`, a consistent completion of a subset of the assertions under
    a prefix of the extra rules, is resumed (see above); max_steps then
    counts its steps too.  Any other `start` raises ValueError.  Without
    `start`, the empty run is resumed.
    """
    rules = tuple(rules)
    for extra in rules:
        if not isinstance(extra, (CopyRule, RelationInclusionRule,
                                  SubsumptionRule)):
            raise UnsupportedRuleError(f"unknown extra rule {extra!r}")
    base = _EMPTY if start is None else start
    inputs = frozenset(assertions)
    if (base.clash is not None or not base.input_assertions <= inputs
            or rules[:len(base.rules)] != base.rules):
        raise ValueError("start must be a consistent completion of a subset "
                         "of the assertions under a prefix of the extras")
    return base.fork(inputs, rules, max_steps, shuffle_seed).resume(base)
