import sys
import threading

import pytest

import polardl as P
from polardl import syntax as S
from polardl import tableaux as T
from polardl.errors import (ClashPresentError, UnknownNameError,
                            UnsupportedQueryError)

import fuzz
import movie_data as MD

I = P.Role("I")
m1, m2, m3, m4 = (P.named_obj(n) for n in ("m1", "m2", "m3", "m4"))
f2, f3, f4, f6 = (P.named_feat(n) for n in ("f2", "f3", "f4", "f6"))
GM, FM, RM, DM, D, E = (P.atom(n) for n in ("GM", "FM", "RM", "DM", "D", "E"))


CORPUS_SEED = 20240811       # as in test_acceptance.py: its first ABoxes


@pytest.fixture(scope="module")
def im_x(movies_kb):
    # IM's expansion in the surface pipeline (fresh conjunct generated)
    return P.definition_map(movies_kb)["IM"]


class TestRelational:
    def test_positive_fact(self, movies_engine):
        assert movies_engine.ask_relational(m3, I, f4).value is True

    def test_negated_in_input_means_absent(self, movies_engine):
        assert movies_engine.ask_relational(m1, I, f2).value is False

    def test_unknown_names(self):
        eng = P.QueryEngine(set())
        with pytest.raises(UnknownNameError):
            eng.ask_relational(m1, I, f2)

    def test_list_related(self, movies_engine):
        assert movies_engine.list_related(m3, I).value == ["f4", "f6"]
        assert movies_engine.list_related(m2, I).value == []
        assert movies_engine.list_related(m3, P.Role("box", 1)).value == ["f3"]

    def test_list_related_left_side(self, movies_engine):
        assert movies_engine.list_related(f3, I, side="left").value == ["m1"]

    @pytest.mark.parametrize("anchor, role, side, message", [
        (f3, I, "right", "I relates an object to a feature: f3 cannot "
                         "stand on its left"),
        (m3, P.Role("box", 1), "left", "Rbox1 relates an object to a "
                                       "feature: m3 cannot stand on its right"),
        (m3, P.Role("dia", 1), "right", "Rdia1 relates a feature to an "
                                        "object: m3 cannot stand on its left"),
        (f3, P.Role("dia", 2), "left", "Rdia2 relates a feature to an "
                                       "object: f3 cannot stand on its right"),
    ])
    def test_list_related_rejects_an_anchor_of_the_wrong_sort(
            self, movies_engine, anchor, role, side, message):
        with pytest.raises(UnsupportedQueryError) as info:
            movies_engine.list_related(anchor, role, side)
        assert str(info.value) == message

    def test_list_related_on_each_role_side(self, movies_engine):
        dia1, box1 = P.Role("dia", 1), P.Role("box", 1)
        assert movies_engine.list_related(f3, dia1).value == ["m3"]
        assert movies_engine.list_related(m3, dia1, "left").value == ["f3", "f5"]
        assert movies_engine.list_related(f3, box1, "left").value == ["m3"]

    @pytest.mark.parametrize("side", ["bogus", "extent", "Right"])
    def test_list_related_rejects_an_unknown_side(self, movies_engine, side):
        with pytest.raises(UnsupportedQueryError):
            movies_engine.list_related(m3, I, side=side)

    def test_list_related_synthetic_flag(self, movies_engine):
        plain = movies_engine.list_related(m3, I).value
        rich = movies_engine.list_related(m3, I, include_synthetic=True).value
        assert set(plain) < set(rich)
        assert any(name.startswith("x[") for name in rich)


class TestMembership:
    def test_unraveled_input_membership(self, movies_engine, im_x):
        assert movies_engine.ask_membership(m4, im_x).value is True

    def test_defined_category_lookup(self, movies_engine):
        assert movies_engine.ask_membership(m4, MD.FDM_X).value is False

    def test_off_abox_concept_re_saturates(self, movies_engine):
        runs = movies_engine.saturation_runs
        c = P.box(2, P.dia(1, RM))
        assert movies_engine.ask_membership(m3, c).value is False
        assert movies_engine.saturation_runs > runs

    def test_feature_membership(self, movies_engine):
        assert movies_engine.ask_membership(f4, DM).value is True

    def test_list_members(self, movies_engine):
        assert movies_engine.list_members(DM).value == ["m3"]
        assert movies_engine.list_members(MD.RDM_X, side="intent").value == ["f4"]

    @pytest.mark.parametrize("side", ["left", "right", "bogus"])
    def test_list_members_rejects_an_unknown_side(self, movies_engine, side):
        with pytest.raises(UnsupportedQueryError):
            movies_engine.list_members(DM, side=side)

    def test_list_members_fresh_atom(self, movies_engine):
        assert movies_engine.list_members(P.atom("Zed")).value == []

    def test_defined_names_expand_in_queries(self, movies_engine):
        # RDM is terminology, not ABox vocabulary: queries mentioning it
        # are answered through its definition
        assert movies_engine.ask_membership(m3, P.atom("RDM")).value is True
        assert movies_engine.list_members(P.atom("RDM")).value == ["m3"]
        assert movies_engine.ask_subsumption(
            P.atom("RDM"), P.atom("DM")).value is True
        assert movies_engine.ask_membership(m4, P.atom("IM")).value is True
        assert movies_engine.ask_negative_membership(
            m2, P.atom("EUM")).value is True


class TestSubsumption:
    def test_movie_subsumption(self, movies_engine):
        assert movies_engine.ask_subsumption(
            P.box(2, MD.RDM_X), P.box(2, DM)).value is True

    def test_reflexive(self, movies_engine):
        c = P.meet(GM, FM)
        assert movies_engine.ask_subsumption(c, c).value is True

    def test_unrelated_atoms(self, movies_engine, movie_model):
        assert movies_engine.ask_subsumption(GM, FM).value is False
        # cross-check on the saturated model
        ext, _ = P.interpret_concept(movie_model, FM)
        assert P.classifier_obj(GM) not in ext


class TestDisjunctive:
    def test_true_via_second_disjunct(self, movies_engine, im_x):
        ans = movies_engine.ask_disjunctive(
            [P.member(m4, MD.FDM_X), P.member(m4, im_x)])
        assert ans.value is True
        assert ans.certificate["witness"] == str(P.member(m4, im_x))

    def test_singleton_matches_direct_query(self, movies_engine):
        t = P.rel_box(1, m3, f3)
        assert movies_engine.ask_disjunctive([t]).value == \
            movies_engine.ask_relational(m3, P.Role("box", 1), f3).value

    def test_all_false(self, movies_engine):
        assert movies_engine.ask_disjunctive(
            [P.member(m2, GM), P.member(m2, FM)]).value is False

    def test_decomposition_property(self, movies_engine):
        terms = [P.member(m3, DM), P.member(m2, GM), P.rel_i(m1, f3)]
        import itertools
        for r in (1, 2, 3):
            for sub in itertools.combinations(terms, r):
                expect = any(movies_engine.ask_disjunctive([t]).value
                             for t in sub)
                assert movies_engine.ask_disjunctive(list(sub)).value == expect

    def test_rejects_negation(self, movies_engine):
        with pytest.raises(UnsupportedQueryError):
            movies_engine.ask_disjunctive([P.neg(P.rel_i(m1, f2))])


class TestNegativeQueries:
    def test_negative_relational_answers(self, movies_engine):
        assert movies_engine.ask_negative_relational(
            P.rel_box(1, m3, f4)).value is False
        assert movies_engine.ask_negative_relational(
            P.rel_box(1, m1, f6)).value is True
        assert movies_engine.ask_negative_relational(
            P.rel_i(m1, f2)).value is True

    def test_negative_relational_never_saturates(self, movies_engine):
        movies_engine.completion
        runs = movies_engine.saturation_runs
        movies_engine.ask_negative_relational(P.rel_i(m1, f2))
        movies_engine.ask_negative_relational(P.rel_box(1, m3, f4))
        assert movies_engine.saturation_runs == runs

    def test_negative_membership(self, movies_engine):
        assert movies_engine.ask_negative_membership(
            m1, P.box(2, P.dia(1, RM))).value is True
        assert movies_engine.ask_negative_membership(
            m2, MD.EUM_X).value is True

    def test_negative_membership_of_present_term(self):
        a_d = P.classifier_obj(D)
        eng = P.QueryEngine({P.member(a_d, D)})
        assert eng.ask_negative_membership(a_d, D).value is False

    def test_negative_subsumption_side_condition(self, movies_engine):
        with pytest.raises(UnsupportedQueryError):
            movies_engine.ask_negative_subsumption(D, D)
        with pytest.raises(UnsupportedQueryError):
            movies_engine.ask_negative_subsumption(GM, P.join(GM, FM))

    def test_negative_subsumption_micro_fixture(self):
        # a is GM but provably lacks the feature that carries F
        a, xf = P.named_obj("a"), P.named_feat("xf")
        abox = {P.member(a, GM), P.member(xf, P.atom("F")),
                P.neg(P.rel_i(a, xf))}
        eng = P.QueryEngine(abox)
        assert eng.ask_negative_subsumption(GM, P.atom("F")).value is True
        # the bounded oracle agrees nothing satisfies both
        assert P.bounded_model_search(abox, 3, 3) is not None
        assert P.bounded_model_search(
            abox, 3, 3, axioms=[(GM, P.atom("F"))]) is None

    def test_negative_subsumption_false_case(self):
        eng = P.QueryEngine({P.member(P.named_obj("a"), GM),
                             P.member(P.named_feat("u"), P.atom("F"))})
        assert eng.ask_negative_subsumption(GM, P.atom("F")).value is False

    def test_negative_subsumption_compound_lhs(self, movies_engine):
        # box1 GM never holds of anything here, so forcing it under FM
        # stays consistent: the entailed-non-subsumption answer is no
        assert movies_engine.ask_negative_subsumption(
            P.box(1, GM), FM).value is False

    def test_negative_subsumption_resumes(self, movies_kb, monkeypatch):
        starts = []
        inner = T.saturate

        def recording(*args, start=None, **kwargs):
            starts.append(start)
            return inner(*args, start=start, **kwargs)

        monkeypatch.setattr(T, "saturate", recording)
        eng = P.QueryEngine(movies_kb)
        assert eng.ask_negative_subsumption(P.atom("IM"), RM).value is False
        assert eng.ask_negative_subsumption(GM, FM).value is True
        # the base run, then two runs resumed from it
        assert starts == [None, eng.completion, eng.completion]
        assert eng.saturation_runs == 3

    def test_negative_subsumption_against_the_rewrite(self):
        # the rules answer true wherever the rewrite does; each case
        # where only the rules answer true has a witness or no model
        b2, b3 = P.named_obj("b2"), P.named_obj("b3")
        D1, D3, D4 = (P.atom(n) for n in ("D1", "D3", "D4"))
        hand = (frozenset({P.member(b2, P.join(D4, P.meet(D3, D3))),
                           P.member(b3, D3), P.neg(P.member(b2, D4))}),
                [(P.join(P.join(D3, D3), D1), D4)])
        cases = [(abox, fuzz.subsumption_pairs(abox))
                 for abox, _ in fuzz.consistent_corpus(CORPUS_SEED, 150)]
        agree = witnessed = modelless = 0
        for abox, pairs in cases + [hand]:
            eng = P.QueryEngine(abox)
            names = sorted(S.individuals_in(abox), key=str)
            for c1, c2 in pairs:
                where = (sorted(map(str, abox)), str(c1), str(c2))
                rewritten = _rewrite_answer(abox, c1, c2)
                ruled = eng.ask_negative_subsumption(c1, c2).value
                if ruled == rewritten:
                    agree += 1
                    continue
                assert ruled and not rewritten, where
                if any(_witnesses(eng, ind, c1, c2) for ind in names):
                    witnessed += 1
                else:
                    assert P.bounded_model_search(
                        abox, 3, 3, axioms=[(c1, c2)]) is None, where
                    modelless += 1
        assert agree > 2000 and witnessed > 0 and modelless > 0


def _replace_subtree(c, target, replacement):
    if c is target:
        return replacement
    if c.kind == S.ATOM:
        return c
    if c.kind in (S.MEET, S.JOIN):
        op = P.meet if c.kind == S.MEET else P.join
        return op(_replace_subtree(c.left, target, replacement),
                  _replace_subtree(c.right, target, replacement))
    op = P.box if c.kind == S.BOX else P.dia
    return op(c.index, _replace_subtree(c.child, target, replacement))


def _rewrite_answer(abox, c1, c2):
    """Negative subsumption by the former rewrite: every occurrence of c1
    becomes c2 and G for a fresh atom G, and the result is saturated from
    scratch.  Only membership concepts are rewritten, so the ABox must
    name no classifier."""
    taken = {s.name for c in S.occurring_concepts(abox) | {c1, c2}
             for s in S.subconcepts(c) if s.kind == S.ATOM}
    n = 1
    while f"G{n}" in taken:
        n += 1
    replacement = P.meet(c2, P.atom(f"G{n}"))

    def rewrite(a):
        if a.kind == S.NEG:
            return P.neg(rewrite(a.inner))
        if a.kind in (S.MEM_OBJ, S.MEM_FEAT):
            assert not a.ind.is_synthetic
            return P.member(a.ind, _replace_subtree(a.concept, c1,
                                                    replacement))
        return a

    rewritten = {rewrite(a) for a in abox}
    rewritten |= set(S.creation_terms(replacement))
    return not P.saturate(rewritten).is_consistent


def _witnesses(eng, ind, c1, c2):
    """An object entailed in c1 and entailed not in c2, or a feature
    entailed in the intent of c2 and not in that of c1."""
    inside, outside = (c1, c2) if ind.sort == S.OBJ else (c2, c1)
    return (eng.ask_membership(ind, inside).value
            and eng.ask_negative_membership(ind, outside).value)


class TestSeparation:
    def test_object_separation_asymmetry(self, movies_engine):
        assert movies_engine.ask_separation(m4, m2).value is True
        assert movies_engine.ask_separation(m2, m4).value is False

    def test_self_separation(self, movies_engine):
        assert movies_engine.ask_separation(m4, m4).value is False

    def test_relation_separation_no(self, movies_engine):
        assert movies_engine.ask_relation_separation(
            P.Role("box", 1), I, m4).value is False

    def test_relation_separation_yes(self):
        # b has a box1 fact whose incidence counterpart is denied
        b, u = P.named_obj("b"), P.named_feat("u")
        eng = P.QueryEngine({P.rel_box(1, b, u), P.neg(P.rel_i(b, u))})
        assert eng.ask_relation_separation(P.Role("box", 1), I, b).value is True

    def test_differentiation(self, movies_engine):
        ans = movies_engine.ask_differentiation(m2, m4)
        assert ans.value is True
        assert [s["rule"] for s in ans.certificate["steps"]] == \
            ["create", "and_A", "I", "SA(m4,m2)", "neg_b"]

    def test_differentiation_self(self, movies_engine):
        assert movies_engine.ask_differentiation(m2, m2).value is False

    def test_mixed_sorts_rejected(self, movies_engine):
        with pytest.raises(UnsupportedQueryError):
            movies_engine.ask_separation(m2, f3)

    def test_synthetic_names_are_refused(self, movies_kb):
        # a copy rule onto this classifier feature grows without bound;
        # the step budget turns a regression into a failure, not a hang
        eng = P.QueryEngine(movies_kb, max_steps=20_000)
        fdm = P.meet(P.box(1, DM), P.box(2, DM))
        a, x = P.classifier_obj(fdm), P.classifier_feat(fdm)
        assert {a, x} <= eng.completion.individuals
        for ask in (lambda: eng.ask_separation(f4, x),
                    lambda: eng.ask_separation(x, f4),
                    lambda: eng.ask_differentiation(f4, x),
                    lambda: eng.ask_differentiation(x, x, P.Role("dia", 1)),
                    lambda: eng.ask_identity(f4, x),
                    lambda: eng.ask_relation_separation(
                        P.Role("dia", 1), I, x),
                    lambda: eng.ask_separation(a, m4)):
            with pytest.raises(UnknownNameError, match="synthetic"):
                ask()
        assert eng.saturation_runs == 1
        assert eng.ask_negative_membership(a, fdm).value is False

    def test_feature_separation(self):
        b, u, v = P.named_obj("b"), P.named_feat("u"), P.named_feat("v")
        eng = P.QueryEngine({P.rel_i(b, u), P.neg(P.rel_i(b, v))})
        assert eng.ask_separation(u, v).value is True
        assert eng.ask_separation(v, u).value is False

    def test_identity_distinguishable(self):
        b, d = P.named_obj("b"), P.named_obj("d")
        u = P.named_feat("u")
        eng = P.QueryEngine({P.rel_box(1, b, u), P.neg(P.rel_box(1, d, u)),
                             P.rel_i(d, u)})
        ans = eng.ask_identity(b, d)
        assert ans.value is True
        # the incidence relation already separates them: forcing equal
        # rows copies b's adjoint feature box1(u) to d, deriving the
        # denied box fact
        assert ans.certificate["role"] == "I"

    def test_identity_movie_pair_not_provable(self, movies_engine):
        # the saturated rows of m1 and m3 differ, but no relation
        # provably separates them: a model may close the gaps
        assert movies_engine.ask_identity(m1, m3).value is False


class TestEquivalence:
    def test_reflexive(self, movies_engine):
        assert movies_engine.ask_equivalence(movies_engine).value is True

    def test_meet_decomposition_equivalence(self):
        b = P.named_obj("b")
        first = P.QueryEngine({P.member(b, P.meet(D, E))})
        second = P.QueryEngine({P.member(b, D), P.member(b, E),
                                P.member(b, P.meet(D, E))})
        assert first.ask_equivalence(second).value is True
        assert second.ask_equivalence(first).value is True

    def test_distinct_atoms(self):
        b = P.named_obj("b")
        first = P.QueryEngine({P.member(b, D)})
        second = P.QueryEngine({P.member(b, E)})
        ans = first.ask_equivalence(second)
        assert ans.value is False
        assert ans.certificate["failures"]

    def test_negative_terms_compared(self):
        b, u = P.named_obj("b"), P.named_feat("u")
        first = P.QueryEngine({P.rel_i(b, u), P.neg(P.member(b, D))})
        second = P.QueryEngine({P.rel_i(b, u)})
        assert first.ask_equivalence(second).value is False
        assert second.ask_equivalence(first).value is False


class TestEngineContracts:
    def test_universal_model_agreement(self, movies_engine, im_x):
        # positive Boolean answers match literal model checking
        model = P.build_model(movies_engine.completion)
        for b in (m1, m2, m3, m4):
            for y in (f2, f3, f4, f6):
                assert movies_engine.ask_relational(b, I, y).value == \
                    P.check_satisfies(model, P.rel_i(b, y))
        for b in (m1, m2, m3, m4):
            for c in (GM, DM, MD.EUM_X, im_x, MD.RDM_X, MD.FDM_X):
                assert movies_engine.ask_membership(b, c).value == \
                    P.check_satisfies(model, P.member(b, c))

    def test_inconsistent_kb_refuses_queries(self):
        b = P.named_obj("b")
        eng = P.QueryEngine({P.member(b, D), P.neg(P.member(b, D))})
        assert not eng.is_consistent
        with pytest.raises(ClashPresentError):
            eng.ask_relational(b, I, P.named_feat("u"))

    def test_answers_deterministic(self, movies_kb):
        one = P.QueryEngine(movies_kb)
        two = P.QueryEngine(movies_kb)
        assert one.list_related(m3, I).value == two.list_related(m3, I).value
        assert one.ask_differentiation(m2, m4).certificate == \
            two.ask_differentiation(m2, m4).certificate

    def test_concurrent_queries_share_one_base(self, movies_kb):
        rbox1 = P.Role("box", 1)
        box2_dia1_rm = P.box(2, P.dia(1, RM))
        queries = [("ask_separation", (m4, m2, I)),
                   ("ask_separation", (m4, m2, rbox1)),
                   ("ask_separation", (m2, m4, I)),
                   ("ask_differentiation", (m2, m4)),
                   ("ask_differentiation", (m1, m3, rbox1)),
                   ("ask_negative_membership", (m1, box2_dia1_rm)),
                   ("ask_negative_membership", (m3, GM))]
        sequential = P.QueryEngine(movies_kb)
        expected = [getattr(sequential, name)(*args) for name, args in queries]
        assert {a.value for a in expected} == {True, False}

        engine = P.QueryEngine(movies_kb)
        workers, rounds = 4, 5
        barrier = threading.Barrier(workers)
        got = [None] * workers

        def ask(k):
            barrier.wait(timeout=30)    # every first query races the base
            got[k] = [getattr(engine, name)(*args)
                      for _ in range(rounds) for name, args in queries]

        threads = [threading.Thread(target=ask, args=(k,))
                   for k in range(workers)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        for answers in got:
            assert answers == expected * rounds
        # one base run, then one resumed run per query
        assert engine.saturation_runs == 1 + workers * rounds * len(queries)
        # no resumed run wrote to the base
        base, fresh = engine.completion, P.saturate(engine.abox)
        assert base.assertions == fresh.assertions
        assert base.provenance == fresh.provenance
