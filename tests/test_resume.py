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
# the families of index keys (see `_family`): one per fact kind for
# relational keys; per membership kind, keys by individual, by concept,
# and by the child of a box (dia) concept
FAMILIES = (S.REL_I, S.REL_BOX, S.REL_DIA,
            (S.MEM_OBJ, "Individual"), (S.MEM_OBJ, "Concept"),
            (S.MEM_OBJ, S.BOX), (S.MEM_FEAT, "Individual"),
            (S.MEM_FEAT, "Concept"), (S.MEM_FEAT, S.DIA))
# the rules that join two facts into a relational one, or rewrite an
# adjoint name into one: each looks its conclusion up before building it
JOIN_RULES = {"I", "box", "dia", "box_y", "bsq_y", "dia_b", "bdia_b"}


def _rules(*extras):
    return extras


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
    out.append(("create", S.creation_terms(fresh), P.BASE_RULES))
    for c1, c2 in fuzz.subsumption_pairs(abox)[:1]:
        for lhs in (c1, P.meet(c1, c1)):
            out.append((f"negsub {lhs} {c2}",
                        S.creation_terms(lhs) + S.creation_terms(c2),
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


@pytest.fixture(scope="module")
def indexed_runs(corpus):
    """Per ABox of the slice: its base completion; one resumed completion
    that adds a concept new to the ABox (as `list_members` of an absent
    concept does) under the rules of `fuzz.sample_extras`; and, when
    that one is consistent, a run resumed from it, which flattens its
    base's rows."""
    rng = random.Random(CORPUS_SEED + 3)
    out = []
    for abox, base in corpus:
        fresh = P.atom("Fresh")
        occurring = sorted(S.occurring_concepts(abox), key=str)
        if occurring:
            fresh = P.meet(fresh, occurring[0])
        resumed = P.saturate(
            abox | set(S.creation_terms(fresh)),
            _rules(*fuzz.sample_extras(rng, abox)), start=base)
        assert fresh in resumed.occurring and fresh not in base.occurring
        comps = [base, resumed]
        if resumed.is_consistent:
            comps.append(P.saturate(
                resumed.input_assertions
                | set(S.creation_terms(P.join(P.atom("Again"), fresh))),
                resumed.rules, start=resumed))
        out.append(comps)
    return out


def test_relational_index_matches_a_scan(indexed_runs):
    """`related` on every role present, every individual and both sides,
    on the runs of `indexed_runs`."""
    checked = 0
    resumed_consistent = sum(len(comps) == 3 for comps in indexed_runs)
    for n, comps in enumerate(indexed_runs):
        for comp in comps:
            roles = {P.Role.of(a) for a in comp.assertions if a.is_relational}
            for role in sorted(roles, key=str):
                for anchor in S.individuals_in(comp.provenance):
                    for side in ("right", "left"):
                        assert (comp.related(role, anchor, side)
                                == _related_by_scan(comp, role, anchor, side)
                                ), (n, str(role), str(anchor), side)
                        checked += 1
    assert resumed_consistent > 0 and checked > 100 * SLICE


def _membership_rows_by_scan(comp):
    """The reference for the membership keys of the index: one scan of
    the whole completion, in completion order."""
    rows = {}
    for a in comp.assertions:
        if a.kind == S.MEM_OBJ or a.kind == S.MEM_FEAT:
            c = a.concept
            keys = [(a.kind, None, a.ind), (a.kind, None, c)]
            if c.kind == (S.BOX if a.kind == S.MEM_OBJ else S.DIA):
                keys.append((a.kind, c.kind, c.child))
            for key in keys:
                rows.setdefault(key, []).append(a)
    return rows


def test_membership_index_matches_a_scan(indexed_runs):
    """`facts_at` of every membership key, by individual, by concept and
    by the child of a box (dia) concept, on the runs of `indexed_runs`,
    also at keys that hold nothing."""
    checked = 0
    for n, comps in enumerate(indexed_runs):
        for comp in comps:
            expected = _membership_rows_by_scan(comp)
            held = {k for k in comp.rows.keys() | comp.base_rows.keys()
                    if k[0] in (S.MEM_OBJ, S.MEM_FEAT)}
            assert held == expected.keys(), n
            ends = [*S.individuals_in(comp.provenance), *comp.occurring]
            for kind, modal in ((S.MEM_OBJ, S.BOX), (S.MEM_FEAT, S.DIA)):
                keys = [(kind, None, end) for end in ends]
                keys += [(kind, modal, c) for c in comp.occurring]
                for key in keys:
                    assert comp.facts_at(key) == expected.get(key, []), \
                        (n, key[0], key[1], str(key[2]))
                    checked += 1
    assert checked > 100 * SLICE


def _family(key):
    kind, shape, end = key
    if kind == S.MEM_OBJ or kind == S.MEM_FEAT:
        return kind, shape or type(end).__name__
    return kind


def _snapshot(comp):
    """A completion's facts, counts and index rows, by value."""
    return (comp.assertions, dict(comp.provenance), dict(comp.stats),
            dict(comp.neg_relational),
            {k: dict(v) for k, v in comp.rows.items()})


def _written_keys(run, base):
    """Per key family, the base's keys under which the run holds a row of
    its own."""
    return {family: [k for k in base.rows
                     if k in run.rows and _family(k) == family]
            for family in FAMILIES}


def test_resuming_never_writes_the_start(corpus, movies_kb):
    abox, base = corpus[0]
    before = (base.assertions, dict(base.provenance), dict(base.stats))
    objs = _names(abox, S.OBJ)
    P.saturate(abox, _rules(P.CopyRule(I, objs[0], objs[1]),
                            P.CopyRule(I, objs[1], objs[0])), start=base)
    P.saturate(abox | {P.member(objs[0], P.atom("Fresh"))}, start=base)
    assert (base.assertions, base.provenance, base.stats) == before

    # runs that write to keys the base holds: copy rules onto an object
    # and a feature with memberships, and a clashing run
    abox = P.unravel(movies_kb)
    base = P.saturate(abox)
    m3, m4 = P.named_obj("m3"), P.named_obj("m4")
    f1, f5 = P.named_feat("f1"), P.named_feat("f5")
    base.related(I, m3, "right")        # reads the base's relational index
    before = _snapshot(base)
    runs = [P.saturate(abox, _rules(P.CopyRule(I, m3, m4)), start=base),
            P.saturate(abox, _rules(P.CopyRule(I, f5, f1)), start=base),
            P.saturate(abox | {P.member(m4, P.atom("FM"))}, start=base)]
    assert [run.is_consistent for run in runs] == [True, True, False]
    for run in runs:
        run.related(I, m3, "right")
        run.clash_certificate()
    written = [_written_keys(run, base) for run in runs]
    assert all(any(w[family] for w in written) for family in FAMILIES)
    by_object = (S.MEM_OBJ, "Individual")
    assert all(w[by_object] for w in (written[0], written[2]))
    assert _snapshot(base) == before


def test_a_fork_shares_the_base_until_it_writes(movies_kb):
    """A fork owns no facts or rows and reads its base's; after the run,
    it holds a row exactly at the keys it added facts under."""
    abox = P.unravel(movies_kb)
    base = P.saturate(abox)
    m3, m4 = P.named_obj("m3"), P.named_obj("m4")
    rules = _rules(P.CopyRule(I, m3, m4))
    run = base.fork(abox, rules, None, None)
    assert run.own == {} and run.inherited is base.provenance
    # the relational index is layered: the fork reads the base's rows
    assert run.rows == {} and run.base_rows is base.rows
    rows = {k: dict(v) for k, v in base.rows.items()}
    # no concept is new, so the operand rows are the base's alone
    assert (S.MEET, None, P.atom("GM")) in base.rows
    assert list(run.provenance) == list(base.provenance)
    assert not any(_written_keys(run, base).values())
    for k in base.rows:
        assert run.facts_at(k) == base.facts_at(k)
    run.resume(base)
    assert run.own and list(run.provenance) == list(base.provenance) + \
        list(run.own)
    written = _written_keys(run, base)
    assert written[(S.MEM_OBJ, "Individual")] == [(S.MEM_OBJ, None, m4)]
    assert written[(S.MEM_OBJ, "Concept")]
    for k, theirs in base.rows.items():
        # the run reads the base's row, then what it added under the key
        ours = run.rows.get(k, {})
        assert run.facts_at(k) == [*theirs.values(), *ours.values()], k
        assert not ours.keys() & theirs.keys(), k
    assert {k: dict(v) for k, v in base.rows.items()} == rows
    assert run.rows and all(a in run.own for row in run.rows.values()
                            for a in row.values())

    # a new meet is a row of the run's own under each operand
    new = P.meet(P.atom("GM"), P.atom("Fresh"))
    run = base.fork(abox | set(S.creation_terms(new)), rules, None, None)
    run.resume(base)
    assert run.rows[(S.MEET, None, P.atom("GM"))] == {new: P.atom("Fresh")}

    # a fork of a resumed run reads one flat layer of rows, equal to
    # the base's and its own, and writes neither
    middle = P.saturate(abox, rules, start=base)
    again = middle.fork(abox, _rules(P.CopyRule(I, m3, m4),
                                     P.CopyRule(I, m4, m3)), None, None)
    assert again.rows == {}
    assert again.base_rows.keys() == base.rows.keys() | middle.rows.keys()
    for key, row in again.base_rows.items():
        assert list(row.values()) == middle.facts_at(key)
    again.resume(middle)
    assert {k: dict(v) for k, v in base.rows.items()} == rows


def test_a_resumed_run_walks_the_base_operand_row_first():
    """The new meet A and C shares the operand A with the base's meet A
    and D: on the new fact b : A, and_inv reads the base's row under A
    before the run's own, and so derives b : A and D first."""
    A, C, D = (P.atom(n) for n in "ACD")
    b, c = P.named_obj("b"), P.named_obj("c")
    abox = {P.member(b, C), P.member(b, D), P.member(c, P.meet(A, D))}
    base = P.saturate(abox)
    extended = abox | {P.member(b, A)} | set(S.creation_terms(P.meet(A, C)))
    run = P.saturate(extended, start=base)
    scratch = P.saturate(extended)
    assert run.is_consistent and scratch.is_consistent
    assert [a for a, (rule, _) in run.own.items() if rule == "and_inv"] \
        == [P.member(b, P.meet(A, D)), P.member(b, P.meet(A, C))]
    assert set(run.provenance) == set(scratch.provenance)


def _wide_abox(n):
    """`b : D0 and (D1 and ... D(n-1))` and `c : D0`: the I rule joins
    every meet classifier with b's memberships."""
    meet = P.atom(f"D{n - 1}")
    for i in reversed(range(n - 1)):
        meet = P.meet(P.atom(f"D{i}"), meet)
    b, c = P.named_obj("b"), P.named_obj("c")
    return frozenset({P.member(b, meet), P.member(c, P.atom("D0"))})


def test_join_rules_build_only_new_facts(corpus, monkeypatch):
    """No candidate of a join rule is already known, in runs from
    scratch, shuffled runs and resumed runs (of resumed runs too), on
    the corpus slice and on a wide meet."""
    add, seen = T.Completion.add, []

    def checked_add(run, a, rule, premises):
        if rule in JOIN_RULES:
            seen.append(rule)
            assert a not in run, (rule, str(a))
        add(run, a, rule, premises)

    monkeypatch.setattr(T.Completion, "add", checked_add)
    rng = random.Random(CORPUS_SEED + 4)
    wide = _wide_abox(20)
    cases = list(corpus) + [(wide, None)]
    more = set(S.creation_terms(P.meet(P.atom("Again"), P.atom("D0"))))
    for n, (abox, _) in enumerate(cases):
        base = P.saturate(abox)
        P.saturate(abox, shuffle_seed=n)
        for _, added, rules in _extensions(abox, rng):
            inputs = abox | set(added)
            run = P.saturate(inputs, rules, start=base)
            if run.is_consistent:
                P.saturate(inputs | more, rules, start=run, shuffle_seed=n)
    assert set(seen) == JOIN_RULES and len(seen) > 20_000


def _certificate_by_scan(comp):
    """The reference for `Completion.clash_certificate`: positions from
    one numbering of the whole completion, as before runs shared their
    base."""
    order = {a: i for i, a in enumerate(comp.assertions)}

    def ancestors(root):
        seen, queue = set(), [root]
        while queue:
            a = queue.pop()
            if a not in seen:
                seen.add(a)
                queue.extend(comp.provenance[a][1])
        return sorted((a for a in seen if comp.provenance[a][0] != "input"),
                      key=order.__getitem__)

    term, negation = comp.clash
    chain = ancestors(term)
    chain += [a for a in ancestors(negation) if a not in set(chain)]
    return [comp.provenance[a][:2] + (a,) for a in chain]


def test_clash_certificates_number_the_base_first(corpus, movies_kb):
    """Resumed clashing runs, from the corpus and from a resumed run,
    against the certificate from one numbering of the completion."""
    rng = random.Random(CORPUS_SEED + 2)
    clashed = 0
    for abox, base in corpus:
        for _, added, rules in _extensions(abox, rng):
            run = P.saturate(abox | set(added), rules, start=base)
            if not run.is_consistent:
                clashed += 1
                assert run.clash_certificate() == _certificate_by_scan(run)
    abox = P.unravel(movies_kb)
    rules = _rules(P.CopyRule(I, P.named_obj("m3"), P.named_obj("m4")))
    middle = P.saturate(abox, rules, start=P.saturate(abox))
    run = P.saturate(abox | {P.member(P.named_obj("m4"), P.atom("FM"))},
                     rules, start=middle)
    assert not run.is_consistent and len(run.inherited) > len(middle.own)
    assert run.clash_certificate() == _certificate_by_scan(run)
    assert clashed > 50


def test_runs_from_scratch_leave_the_empty_base_empty(corpus):
    abox, _ = corpus[0]
    objs = _names(abox, S.OBJ)
    P.saturate(abox, _rules(P.CopyRule(I, objs[0], objs[1])))
    P.saturate(abox | {P.member(objs[0], P.atom("Fresh"))}, shuffle_seed=1)
    empty = T._EMPTY
    assert not (empty.input_assertions or empty.occurring or empty.individuals
                or empty.rules)
    assert not (empty.provenance or empty.neg_relational or empty.stats
                or empty.rows or empty.base_rows)
    assert empty.fired == 0 and empty.clash is None


def test_a_resumed_completion_can_be_resumed(movies_kb):
    abox = P.unravel(movies_kb)
    m3, m1 = P.named_obj("m3"), P.named_obj("m1")
    first = _rules(P.CopyRule(BOX1, m3, m1))
    both = first + (P.CopyRule(I, m1, m3),)
    middle = P.saturate(abox, first, start=P.saturate(abox))
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
        start = P.saturate(self.abox)
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
        start = P.saturate(clash)
        assert not start.is_consistent
        with pytest.raises(ValueError):
            P.saturate(clash, start=start)
