"""Resumed saturation (``saturate(..., start=...)``) against runs from
scratch, over a slice of the acceptance corpus."""

import random

import pytest

import polardl as P
from polardl import syntax as S
from polardl import tableaux as T
from polardl.errors import ResourceLimitError

import fuzz

CORPUS_SEED = 20240811       # as in test_acceptance.py: its first ABoxes
SLICE = 150
I, BOX1, DIA1 = P.Role("I"), P.Role("box", 1), P.Role("dia", 1)


def _rules(*extras):
    rules = P.BASE_RULES
    for extra in extras:
        rules = P.add_extra_rule(rules, extra)
    return rules


def _names(abox, sort):
    return sorted((i for i in S.individuals_in(abox) if i.sort == sort),
                  key=str)


def _extensions(abox, rng):
    """(name, added assertions, rules) for each query kind that resumes:
    separation on every role and identity for an object pair and a
    feature pair, relation separation in all four directions, negative
    membership of a meet and of a join new to the ABox, creation terms
    of a new concept, negative subsumption for a pair of occurring
    concepts and for a new meet in place of its c1, and the rules of
    `fuzz.sample_extras`."""
    objs, feats = _names(abox, S.OBJ), _names(abox, S.FEAT)
    roles = [I] + [P.Role("box", i) for i in (1, 2)] + \
        [P.Role("dia", i) for i in (1, 2)]
    out = []
    for names in (objs, feats):
        if len(names) < 2:
            continue
        first, second = names[:2]
        for role in roles:
            out.append((f"sep {role} {first} {second}", (),
                        _rules(P.CopyRule(role, first, second))))
            out.append((f"ident {role} {first} {second}", (),
                        _rules(P.CopyRule(role, first, second),
                               P.CopyRule(role, second, first))))
    for lhs, rhss, names in ((BOX1, (I, DIA1), objs), (DIA1, (I, BOX1), feats)):
        for rhs in rhss:
            for pivot in names[:1]:
                out.append((f"seprel {lhs} {rhs} {pivot}", (),
                            _rules(P.RelationInclusionRule(lhs, rhs, pivot))))
    occurring = sorted(S.occurring_concepts(abox), key=str)
    pair = occurring[:2] if len(occurring) >= 2 else [P.atom("A0")] * 2
    new_meet, new_join = P.meet(*pair), P.join(*reversed(pair))
    for ind, c in ((objs[:1], new_meet), (feats[:1], new_join)):
        for b in ind:
            out.append((f"negmember {b} {c}", (P.member(b, c),), P.BASE_RULES))
    fresh = P.box(1, P.meet(new_meet, P.atom("Fresh")))
    a_c, x_c = P.fresh_names(fresh)
    out.append(("create", (P.member(a_c, fresh), P.member(x_c, fresh)),
                P.BASE_RULES))
    for c1, c2 in fuzz.subsumption_pairs(abox)[:1]:
        for lhs in (c1, P.meet(c1, c1)):
            out.append((f"negsub {lhs} {c2}",
                        [P.member(n, c) for c in (lhs, c2)
                         for n in P.fresh_names(c)],
                        _rules(P.SubsumptionRule(lhs, c2))))
    out.append(("extras", (), _rules(*fuzz.sample_extras(rng, abox))))
    return out


def _derivation_problems(comp):
    pos = {a: i for i, a in enumerate(comp.assertions)}
    late = [a for a in comp.assertions
            for p in comp.provenance[a][1] if pos[p] >= pos[a]]
    counted = sum(comp.stats.values()) == len(comp.assertions)
    return late, counted


@pytest.fixture(scope="module")
def corpus():
    return fuzz.consistent_corpus(CORPUS_SEED, SLICE)


def test_resumed_runs_match_runs_from_scratch(corpus):
    rng = random.Random(CORPUS_SEED + 2)
    ran = clashed = 0
    for n, (abox, base) in enumerate(corpus):
        for name, added, rules in _extensions(abox, rng):
            inputs = abox | set(added)
            where = (n, name)
            scratch = P.saturate(inputs, rules)
            resumed = P.saturate(inputs, rules, start=base)
            ran += 1
            assert resumed.is_consistent == scratch.is_consistent, where
            for comp in (scratch, resumed):
                assert _derivation_problems(comp) == ([], True), where
            if not resumed.is_consistent:
                clashed += 1
                shuffled = P.saturate(inputs, rules, start=base,
                                      shuffle_seed=n)
                assert not shuffled.is_consistent, where
                continue
            assert set(resumed.assertions) == set(scratch.assertions), where
            assert resumed.occurring == scratch.occurring, where
            assert resumed.abox_depth == scratch.abox_depth, where
            shuffled = P.saturate(inputs, rules, start=base, shuffle_seed=n)
            assert set(shuffled.assertions) == set(scratch.assertions), where

            # the step budget covers the base run and the resumed one
            size, full = len(base.assertions), len(scratch.assertions)
            assert len(resumed.assertions) == full
            P.saturate(inputs, rules, start=base, max_steps=full)
            if full > size:
                budget = size + (full - size) // 2
                for start in (None, base):
                    with pytest.raises(ResourceLimitError):
                        P.saturate(inputs, rules, start=start,
                                   max_steps=budget)
    # the slice exercises both verdicts
    assert ran > 20 * SLICE and 0 < clashed < ran


def _related_by_scan(comp, role, anchor, side):
    """The reference for `Completion.related`: one scan of the whole
    completion per call, as before the relational index."""
    kind, index = role.fact_kind, role.index
    out = []
    for a in comp.assertions:
        if a.kind != kind or a.index != index:
            continue
        if side == "right" and a.left is anchor:
            out.append(a.right)
        elif side == "left" and a.right is anchor:
            out.append(a.left)
    return out


def test_relational_index_matches_a_scan(corpus):
    """`related` on every role present, every individual and both sides,
    on the base completions and on one resumed completion per ABox that
    adds a concept new to the ABox (as `list_members` of an absent
    concept does) under the rules of `fuzz.sample_extras`."""
    rng = random.Random(CORPUS_SEED + 3)
    checked = resumed_consistent = 0
    for n, (abox, base) in enumerate(corpus):
        fresh = P.atom("Fresh")
        occurring = sorted(S.occurring_concepts(abox), key=str)
        if occurring:
            fresh = P.meet(fresh, occurring[0])
        resumed = P.saturate(
            abox | {P.member(name, fresh) for name in P.fresh_names(fresh)},
            _rules(*fuzz.sample_extras(rng, abox)), start=base)
        assert fresh in resumed.occurring and fresh not in base.occurring
        resumed_consistent += resumed.is_consistent
        for comp in (base, resumed):
            roles = {P.Role.of(a) for a in comp.assertions if a.is_relational}
            for role in sorted(roles, key=str):
                for anchor in comp.objects() + comp.features():
                    for side in ("right", "left"):
                        assert (comp.related(role, anchor, side)
                                == _related_by_scan(comp, role, anchor, side)
                                ), (n, str(role), str(anchor), side)
                        checked += 1
    assert resumed_consistent > 0 and checked > 100 * SLICE


def test_resuming_never_writes_the_start(corpus):
    abox, base = corpus[0]
    before = (base.assertions, dict(base.provenance), dict(base.stats))
    objs = _names(abox, S.OBJ)
    P.saturate(abox, _rules(P.CopyRule(I, objs[0], objs[1]),
                            P.CopyRule(I, objs[1], objs[0])), start=base)
    P.saturate(abox | {P.member(objs[0], P.atom("Fresh"))}, start=base)
    assert (base.assertions, base.provenance, base.stats) == before


def test_runs_from_scratch_leave_the_empty_base_empty(corpus):
    abox, _ = corpus[0]
    objs = _names(abox, S.OBJ)
    P.saturate(abox, _rules(P.CopyRule(I, objs[0], objs[1])))
    P.saturate(abox | {P.member(objs[0], P.atom("Fresh"))}, shuffle_seed=1)
    empty = T._EMPTY
    assert not (empty.input_assertions or empty.occurring or empty.individuals
                or empty.rules.extras)
    assert not (empty.provenance or empty.neg_relational or empty.stats
                or empty.obj_mem or empty.feat_mem or empty.obj_of
                or empty.feat_of or empty.box_mem or empty.dia_mem)
    assert empty.fired == 0 and empty.clash is None


def test_a_resumed_completion_can_be_resumed(movies_kb):
    abox = P.unravel(movies_kb)
    m3, m1 = P.named_obj("m3"), P.named_obj("m1")
    first = _rules(P.CopyRule(BOX1, m3, m1))
    both = P.add_extra_rule(first, P.CopyRule(I, m1, m3))
    middle = P.saturate(abox, first, start=P.check_consistency(abox))
    assert middle.is_consistent
    resumed = P.saturate(abox, both, start=middle)
    scratch = P.saturate(abox, both)
    assert resumed.is_consistent == scratch.is_consistent
    assert set(resumed.assertions) == set(scratch.assertions)


class TestMisfitStart:
    b, d = P.named_obj("b"), P.named_obj("d")
    y = P.named_feat("y")
    D = P.atom("D")
    abox = frozenset({P.member(b, D), P.member(y, D), P.rel_i(d, y)})

    def test_inputs_must_include_the_start_inputs(self):
        start = P.check_consistency(self.abox)
        with pytest.raises(ValueError):
            P.saturate(self.abox - {P.rel_i(self.d, self.y)}, start=start)

    def test_start_extras_must_be_a_prefix(self):
        copy_bd = P.CopyRule(I, self.b, self.d)
        copy_db = P.CopyRule(I, self.d, self.b)
        start = P.saturate(self.abox, _rules(copy_bd))
        assert start.is_consistent
        for rules in (P.BASE_RULES, _rules(copy_db),
                      _rules(copy_db, copy_bd)):
            with pytest.raises(ValueError):
                P.saturate(self.abox, rules, start=start)

    def test_start_must_be_consistent(self):
        clash = self.abox | {P.neg(P.member(self.b, self.D))}
        start = P.check_consistency(clash)
        assert not start.is_consistent
        with pytest.raises(ValueError):
            P.saturate(clash, start=start)
