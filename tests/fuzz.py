"""Random ABox generation and completion-invariant checkers shared by the
module tests and the acceptance suite."""

import random

import polardl as P
from polardl import syntax as S


def random_concept(rng, atoms, max_depth, n_box=2, n_dia=2):
    if max_depth == 0 or rng.random() < 0.35:
        return P.atom(rng.choice(atoms))
    kinds = ["meet", "join"] + (["box"] if n_box else []) + \
        (["dia"] if n_dia else [])
    kind = rng.choice(kinds)
    if kind == "meet":
        return P.meet(random_concept(rng, atoms, max_depth - 1, n_box, n_dia),
                      random_concept(rng, atoms, max_depth - 1, n_box, n_dia))
    if kind == "join":
        return P.join(random_concept(rng, atoms, max_depth - 1, n_box, n_dia),
                      random_concept(rng, atoms, max_depth - 1, n_box, n_dia))
    if kind == "box":
        return P.box(rng.randint(1, n_box),
                     random_concept(rng, atoms, max_depth - 1, n_box, n_dia))
    return P.dia(rng.randint(1, n_dia),
                 random_concept(rng, atoms, max_depth - 1, n_box, n_dia))


def random_abox(rng, *, n_obj=3, n_feat=3, n_atoms=4, n_box=2, n_dia=2,
                n_terms=6, neg_prob=0.25, max_depth=2):
    """A random assertion set over named individuals."""
    objs = [P.named_obj(f"b{k}") for k in range(1, n_obj + 1)]
    feats = [P.named_feat(f"y{k}") for k in range(1, n_feat + 1)]
    atoms = [f"D{k}" for k in range(1, n_atoms + 1)]
    kinds = ["mobj", "mfeat", "rel_i"]
    if n_box:
        kinds.append("rel_box")
    if n_dia:
        kinds.append("rel_dia")
    out = set()
    for _ in range(n_terms):
        kind = rng.choice(kinds)
        if kind == "mobj":
            t = P.member(rng.choice(objs),
                         random_concept(rng, atoms, max_depth, n_box, n_dia))
        elif kind == "mfeat":
            t = P.member(rng.choice(feats),
                         random_concept(rng, atoms, max_depth, n_box, n_dia))
        elif kind == "rel_i":
            t = P.rel_i(rng.choice(objs), rng.choice(feats))
        elif kind == "rel_box":
            t = P.rel_box(rng.randint(1, n_box), rng.choice(objs),
                          rng.choice(feats))
        else:
            t = P.rel_dia(rng.randint(1, n_dia), rng.choice(feats),
                          rng.choice(objs))
        if rng.random() < neg_prob:
            t = P.neg(t)
        out.add(t)
    return frozenset(out)


def consistent_corpus(seed, count, **kwargs):
    """`count` random ABoxes whose base saturation is clash-free, paired
    with their completions."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        abox = random_abox(rng, **kwargs)
        comp = P.saturate(abox)
        if comp.is_consistent:
            out.append((abox, comp))
    return out


def inconsistent_small(seed, count):
    """Random inconsistent ABoxes over at most 3 names (for the bounded
    model-search cross-check).  One role family per instance keeps full
    exhaustion of the 3x3 search space affordable."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n_box, n_dia = rng.choice([(1, 0), (0, 1), (0, 0)])
        abox = random_abox(rng, n_obj=2, n_feat=1, n_atoms=2, n_box=n_box,
                           n_dia=n_dia, n_terms=4, neg_prob=0.45, max_depth=1)
        comp = P.saturate(abox)
        if not comp.is_consistent:
            out.append((abox, comp))
    return out


def sample_extras(rng, abox, *, relation_rules=True):
    """A plausible random selection of separation extras naming
    individuals from the ABox."""
    objs = sorted((i for i in S.individuals_in(abox) if i.sort == S.OBJ),
                  key=str)
    feats = sorted((i for i in S.individuals_in(abox) if i.sort == S.FEAT),
                   key=str)
    extras = []
    if len(objs) >= 2:
        first, second = rng.sample(objs, 2)
        extras.append(P.CopyRule(P.Role("I"), first, second))
    if len(feats) >= 2:
        first, second = rng.sample(feats, 2)
        extras.append(P.CopyRule(P.Role("I"), first, second))
    if relation_rules and objs:
        extras.append(P.RelationInclusionRule(
            P.Role("box", 1),
            rng.choice([P.Role("dia", 1), P.Role("I")]),
            rng.choice(objs)))
    if relation_rules and feats:
        extras.append(P.RelationInclusionRule(
            P.Role("dia", 1),
            rng.choice([P.Role("box", 1), P.Role("I")]),
            rng.choice(feats)))
    return extras


def subsumption_pairs(abox):
    """Subformula-disjoint pairs (c1, c2) of concepts occurring in the
    ABox, in text order, those where c1 or c2 is the concept of a negated
    membership first: a negative subsumption query can only clash
    against a negation."""
    negated = {a.inner.concept for a in abox if a.kind == S.NEG
               and a.inner.kind in (S.MEM_OBJ, S.MEM_FEAT)}
    occurring = sorted(S.occurring_concepts(abox), key=str)
    pairs = [(c1, c2) for c1 in occurring for c2 in occurring
             if not S.subconcepts(c1) & S.subconcepts(c2)]
    return sorted(pairs, key=lambda p: not set(p) & negated)


def is_crossing(rule):
    """True for a relation inclusion between a box and a dia role
    (box->dia at an object pivot, dia->box at a feature pivot)."""
    return (isinstance(rule, P.RelationInclusionRule)
            and {rule.lhs.kind, rule.rhs.kind} == {"box", "dia"})


# ---------------------------------------------------------------------------
# Depth-bound and shape claims over a completion
# ---------------------------------------------------------------------------

def slacks_for(extras):
    """Widened bound sides for a rule-set extension: folding a box role
    into a dia role relaxes the diamond-side constants by one; the
    mirrored dia-into-box direction relaxes the box side.  Copy rules
    and role-into-incidence rules need no slack."""
    box_slack = dia_slack = 0
    for r in extras:
        if isinstance(r, P.RelationInclusionRule):
            if r.lhs.kind == "box" and r.rhs.kind == "dia":
                dia_slack = 1
            elif r.lhs.kind == "dia" and r.rhs.kind == "box":
                box_slack = 1
    return box_slack, dia_slack


def depth_claim_violations(comp, box_slack=0, dia_slack=0):
    """Check the per-term depth bounds over every assertion of the
    completion; returns a list of human-readable violations.

    With zero slacks these are the strict bounds for base saturations
    (also preserved by the copy extras); the slacks widen one side's
    constants by one for runs with relation-inclusion extras.
    """
    bd_a = comp.abox_depth.box_depth
    dd_a = comp.abox_depth.dia_depth
    out = []

    def bad(term, what):
        out.append(f"{what}: {term}")

    for t in comp.assertions:
        if t.kind == S.NEG:
            continue
        if t.kind == S.REL_I:
            b, y = t.left, t.right
            if b.box_depth - y.box_depth > bd_a + 1 + box_slack:
                bad(t, "box gap of an incidence term")
            if y.dia_depth - b.dia_depth > dd_a + 1 + dia_slack:
                bad(t, "dia gap of an incidence term")
        elif t.kind == S.REL_BOX:
            b, y = t.left, t.right
            if b.box_depth + 1 - y.box_depth > bd_a + 1 + box_slack:
                bad(t, "box gap of a box-role term")
            if y.dia_depth - b.dia_depth > dd_a + 1:
                bad(t, "dia gap of a box-role term")
        elif t.kind == S.REL_DIA:
            y, b = t.left, t.right
            if b.box_depth - y.box_depth > bd_a + 1:
                bad(t, "box gap of a dia-role term")
            if y.dia_depth + 1 - b.dia_depth > dd_a + 1 + dia_slack:
                bad(t, "dia gap of a dia-role term")
        elif t.kind == S.MEM_OBJ:
            b, c = t.ind, t.concept
            if b.box_depth + c.box_depth > bd_a + 1:
                bad(t, "box sum of an object membership")
            if -b.dia_depth - c.dia_depth > dia_slack:
                bad(t, "dia sum of an object membership")
        elif t.kind == S.MEM_FEAT:
            y, c = t.ind, t.concept
            if -y.box_depth - c.box_depth > box_slack:
                bad(t, "box sum of a feature membership")
            if y.dia_depth + c.dia_depth > dd_a + 1:
                bad(t, "dia sum of a feature membership")

    for ind in S.individuals_in(comp.assertions):
        if ind.sort == S.OBJ:
            if ind.box_depth > bd_a + 1 + box_slack:
                bad(ind, "object box depth")
            if ind.dia_depth < -(dd_a + 1 + dia_slack):
                bad(ind, "object dia depth")
        else:
            if ind.box_depth < -(bd_a + 1 + box_slack):
                bad(ind, "feature box depth")
            if ind.dia_depth > dd_a + 1 + dia_slack:
                bad(ind, "feature dia depth")

    for c in {t.concept for t in comp.assertions
              if t.kind in (S.MEM_OBJ, S.MEM_FEAT)}:
        if c.box_depth > bd_a + 1 or c.dia_depth > dd_a + 1:
            bad(c, "derived concept depth")
    return out


def shape_violations(comp):
    """The positive assertions of the completion, in derivation order,
    whose shape mixes the box and dia images: a dia-image I a box-image,
    a dia-image heading an Rbox fact, or a box-image heading an Rdia
    fact.

    Saturation under the base rules, the copy rules and the role-into-I
    inclusions derives none of these; a crossing relation inclusion
    (see `is_crossing`) can conclude one directly.
    """
    out = []
    for t in comp.assertions:
        if t.kind == S.REL_I:
            bad = (S.dia_adjoint_view(t.left) is not None
                   and S.box_adjoint_view(t.right) is not None)
        elif t.kind == S.REL_BOX:
            bad = S.dia_adjoint_view(t.left) is not None
        elif t.kind == S.REL_DIA:
            bad = S.box_adjoint_view(t.left) is not None
        else:
            bad = False
        if bad:
            out.append(t)
    return out
