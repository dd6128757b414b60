import gc
import sys
import threading

import pytest
from hypothesis import given, strategies as st

import polardl as P
from polardl import syntax as S
from polardl.errors import ResourceLimitError
from polardl.tbox import substitute_concept

import dev_sequence_digest
import fuzz

D, E, GM, C = P.atom("D"), P.atom("E"), P.atom("GM"), P.atom("C")
RM, DM = P.atom("RM"), P.atom("DM")


def concepts(max_depth=3):
    atoms = st.sampled_from([D, E, GM, C])
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda p: P.meet(*p)),
            st.tuples(sub, sub).map(lambda p: P.join(*p)),
            st.tuples(st.integers(1, 2), sub).map(lambda p: P.box(*p)),
            st.tuples(st.integers(1, 2), sub).map(lambda p: P.dia(*p)),
        ),
        max_leaves=2 ** max_depth)


def subconcepts_oracle(c):
    # independent structural recursion
    if c.kind == S.ATOM:
        return {c}
    if c.kind in (S.MEET, S.JOIN):
        return {c} | subconcepts_oracle(c.left) | subconcepts_oracle(c.right)
    return {c} | subconcepts_oracle(c.child)


class TestSubconcepts:
    def test_atom(self):
        assert P.subconcepts(D) == {D}

    def test_meet(self):
        c = P.meet(GM, C)
        assert P.subconcepts(c) == {c, GM, C}

    def test_box_over_meet(self):
        c = P.box(1, P.meet(RM, DM))
        assert P.subconcepts(c) == {c, P.meet(RM, DM), RM, DM}

    @given(concepts())
    def test_matches_oracle(self, c):
        assert P.subconcepts(c) == subconcepts_oracle(c)

    @given(concepts())
    def test_closed_under_subterm(self, c):
        subs = P.subconcepts(c)
        for s in subs:
            assert P.subconcepts(s) <= subs


class TestOccurs:
    def test_in_membership(self):
        a = {P.member(P.named_obj("m4"), P.meet(P.join(GM, P.atom("FM")), C))}
        assert P.join(GM, P.atom("FM")) in P.occurring_concepts(a)

    def test_in_unraveled_movie_kb(self, movies_kb):
        assert RM in P.occurring_concepts(P.unravel(movies_kb))

    def test_empty(self):
        assert D not in P.occurring_concepts(set())

    def test_negated_membership_counts(self):
        a = {P.neg(P.member(P.named_obj("b"), P.meet(D, E)))}
        assert D in P.occurring_concepts(a)

    def test_relational_terms_do_not_count(self):
        a = {P.rel_i(P.named_obj("b"), P.named_feat("y"))}
        assert D not in P.occurring_concepts(a)


class TestRoleIndices:
    def test_facts_negated_facts_and_concepts(self):
        b, y = P.named_obj("b"), P.named_feat("y")
        abox = [P.rel_box(3, b, y), P.neg(P.rel_dia(4, y, b)), P.rel_i(b, y)]
        concepts = P.subconcepts(P.box(1, P.dia(2, D)))
        assert S.role_indices(abox, concepts) == ([1, 3], [2, 4])
        assert S.role_indices(abox, ()) == ([3], [4])
        assert S.role_indices((), P.subconcepts(P.dia(5, D))) == ([], [5])


class TestMapAssertion:
    def test_every_kind_keeps_its_shape(self):
        b, d, y, z = (P.named_obj("b"), P.named_obj("d"),
                      P.named_feat("y"), P.named_feat("z"))
        swap = {b: d, y: z}.get
        terms = [P.rel_i(b, y), P.rel_box(2, b, y), P.rel_dia(3, y, b),
                 P.member(b, D), P.neg(P.member(y, P.box(1, D)))]
        mapped = [S.map_assertion(t, lambda i: swap(i, i),
                                  lambda c: P.meet(c, E)) for t in terms]
        assert mapped == [P.rel_i(d, z), P.rel_box(2, d, z),
                          P.rel_dia(3, z, d), P.member(d, P.meet(D, E)),
                          P.neg(P.member(z, P.meet(P.box(1, D), E)))]
        assert [S.Role.of(t) for t in terms[:3]] == \
            [P.Role("I"), P.Role("box", 2), P.Role("dia", 3)]
        assert [S.Role.of(t).fact_kind for t in terms[:3]] == \
            [t.kind for t in terms[:3]]


class TestDepth:
    def test_box_atom(self):
        assert P.depth_profile(P.box(1, D)) == P.DepthProfile(1, 0)

    def test_named_individual(self):
        assert P.depth_profile(P.named_obj("b")) == P.DepthProfile(0, 0)

    def test_black_diamond(self):
        b = P.named_obj("b")
        assert P.depth_profile(P.black_diamond(b, 1)) == P.DepthProfile(1, 0)

    def test_classifier_offsets(self):
        c = P.dia(1, P.box(2, D))
        assert P.depth_profile(P.classifier_obj(c)) == P.DepthProfile(0, -1)
        assert P.depth_profile(P.classifier_feat(c)) == P.DepthProfile(0, 0)
        bb = P.box(1, P.box(2, D))
        assert P.depth_profile(P.classifier_feat(bb)) == P.DepthProfile(-2, 0)
        # meets and joins reset the leading chain
        assert P.depth_profile(
            P.classifier_obj(P.meet(P.dia(1, D), E))) == P.DepthProfile(0, 0)

    @given(concepts())
    def test_meet_depth_is_max(self, c):
        m, d = P.depth_profile(P.meet(c, P.box(1, c))), P.depth_profile(c)
        assert m.box_depth == max(d.box_depth, d.box_depth + 1)
        assert m.dia_depth == d.dia_depth

    def test_identification_is_depth_consistent(self):
        a_c = P.classifier_obj(D)
        assert P.depth_profile(P.adj_diamond(a_c, 1)) == \
            P.depth_profile(P.classifier_obj(P.dia(1, D)))

    def test_adjoint_chains_shift_their_base(self):
        b, y = P.named_obj("b"), P.named_feat("y")
        assert P.depth_profile(P.adj_diamond(P.black_diamond(b, 1), 2)) == \
            P.DepthProfile(1, -1)
        assert P.depth_profile(P.black_square(P.adj_box(y, 1), 1)) == \
            P.DepthProfile(-1, 1)
        x_c = P.classifier_feat(P.box(1, P.dia(1, D)))
        assert P.depth_profile(P.black_square(x_c, 1)) == P.DepthProfile(-1, 1)

    def test_depth_profiles_are_pinned(self):
        # every individual and concept, with its profile, of the base run
        # of the first 150 corpus ABoxes of tests/dev_sequence_digest.py
        # and of one run resumed from it, hashed into one
        lines = []
        for _, base in fuzz.consistent_corpus(
                dev_sequence_digest.CORPUS_SEED, 150):
            fresh = P.meet(P.atom("Fresh"),
                           min(base.occurring, key=str, default=D))
            resumed = P.saturate(
                base.input_assertions | set(S.creation_terms(fresh)),
                start=base)
            for comp in (base, resumed):
                inds = S.individuals_in(comp.provenance)
                concepts = comp.occurring | {
                    t.concept for t in comp.provenance
                    if t.kind in (S.MEM_OBJ, S.MEM_FEAT)} | {
                    i.concept for i in inds if i.kind == S.CLASSIFIER}
                lines += sorted(f"{type(t).__name__} {t} {P.depth_profile(t)}"
                                for t in inds | concepts)
        assert dev_sequence_digest._digest(lines) == "d4beb230b5dbe2f6"


class TestRendering:
    @pytest.mark.parametrize("c, text", [
        (P.meet(P.join(D, E), E), "(D or E) and E"),
        (P.join(P.join(D, E), E), "(D or E) or E"),
        (P.join(D, P.join(D, E)), "D or D or E"),
        (P.meet(P.meet(D, E), D), "(D and E) and D"),
        (P.meet(D, P.meet(D, E)), "D and D and E"),
        (P.meet(D, P.join(D, E)), "D and (D or E)"),
        (P.join(P.meet(D, E), P.meet(E, D)), "D and E or E and D"),
        (P.box(1, P.meet(D, E)), "box1 (D and E)"),
        (P.dia(2, P.box(1, P.join(D, E))), "dia2 box1 (D or E)"),
        (P.meet(P.box(1, D), P.dia(1, E)), "box1 D and dia1 E"),
        (P.meet(P.join(D, E), P.box(1, P.join(D, E))),
         "(D or E) and box1 (D or E)"),
        (P.join(P.meet(D, D), P.meet(D, D)), "D and D or D and D"),
    ])
    def test_precedence(self, c, text):
        assert str(c) == text

    @given(concepts(max_depth=5))
    def test_text_parses_back(self, c):
        assert P.parse_concept(str(c), P.parse_kb("roles box 2 dia 2.")) is c


class TestDeepTerms:
    def test_walks_need_no_recursion(self):
        # 5,000 levels, meet and box1 in turn: deeper than the interpreter
        # lets a recursive walk go
        assert sys.getrecursionlimit() < 5000
        F = P.atom("F")
        c, c_f, text, levels = D, D, "D", {D, E}
        for _ in range(2500):
            c, c_f = P.box(1, P.meet(c, E)), P.box(1, P.meet(c_f, F))
            text = f"box1 ({text} and E)"
            levels |= {c, c.child}
        assert c.size == 7501
        assert str(c) == text
        assert P.subconcepts(c) == levels
        assert P.occurring_concepts({P.member(P.named_obj("b"), c)}) == levels
        assert substitute_concept(c, {"E": F}) is c_f
        assert P.depth_profile(c) == P.DepthProfile(2500, 0)
        assert P.depth_profile(P.classifier_feat(c)) == P.DepthProfile(-1, 0)

    def test_a_completion_spells_each_occurring_concept_once(self,
                                                              monkeypatch):
        # a concept 300 deep whose parts have no text yet; renders that
        # walked every part would spell 90,299 of them
        spelled = []
        spell = S._spell
        monkeypatch.setattr(S, "_spell",
                            lambda *a: spelled.append(a[1]) or spell(*a))
        c = P.atom("Spelled0")
        for k in range(1, 300):
            c = P.meet(P.atom(f"Spelled{k}"), c)
        with pytest.raises(ResourceLimitError):
            P.saturate({P.member(P.named_obj("b"), c)}, max_steps=10)
        assert sorted(spelled, key=id) == sorted(P.subconcepts(c), key=id)


class TestIdentifications:
    def test_dia_of_object_classifier(self):
        assert P.adj_diamond(P.classifier_obj(C), 1) is \
            P.classifier_obj(P.dia(1, C))

    def test_box_of_feature_classifier(self):
        assert P.adj_box(P.classifier_feat(C), 2) is \
            P.classifier_feat(P.box(2, C))

    def test_no_identification_for_black_forms(self):
        bd = P.black_diamond(P.classifier_obj(C), 1)
        assert bd.kind == S.BLACK_DIA

    def test_interning(self):
        assert P.meet(D, E) is P.meet(D, E)
        assert P.named_obj("b") is P.named_obj("b")
        assert P.rel_i(P.named_obj("b"), P.named_feat("y")) is \
            P.rel_i(P.named_obj("b"), P.named_feat("y"))


class TestSortDiscipline:
    def test_incidence_needs_object_left(self):
        with pytest.raises(ValueError):
            P.rel_i(P.named_feat("y"), P.named_feat("z"))

    def test_adjoints_check_sorts(self):
        with pytest.raises(ValueError):
            P.black_diamond(P.named_feat("y"), 1)
        with pytest.raises(ValueError):
            P.adj_box(P.named_obj("b"), 1)

    def test_neg_of_neg_rejected(self):
        t = P.rel_i(P.named_obj("b"), P.named_feat("y"))
        with pytest.raises(ValueError):
            P.neg(P.neg(t))

    def test_role_validation(self):
        with pytest.raises(ValueError):
            P.Role("box")
        with pytest.raises(ValueError):
            P.Role("I", 1)
        assert str(P.Role.parse("Rdia2")) == "Rdia2"


def _race_terms(name):
    """Terms of every key shape a saturation builds most, fresh per name."""
    b, y = S.named_obj(name), S.named_feat(name)
    return (S.member(b, S.box(1, S.atom(name))), S.rel_i(b, y),
            S.neg(S.rel_box(1, b, y)))


def _parts(term):
    return [getattr(term, field) for field in (
        "ind", "concept", "left", "right", "inner", "child", "base")
        if getattr(term, field, None) is not None]


B, B2 = P.named_obj("b"), P.named_obj("b2")
Y, Y2 = P.named_feat("y"), P.named_feat("y2")

# every constructor, with two choices for each of its parts
CONSTRUCTORS = [
    (S.atom, ("D", "E")),
    (S.meet, (D, E), (E, D)),
    (S.join, (D, E), (E, D)),
    (S.box, (1, 2), (D, E)),
    (S.dia, (1, 2), (D, E)),
    (S.named, (S.OBJ, S.FEAT), ("b", "b2")),
    (S.classifier_obj, (D, E)),
    (S.classifier_feat, (D, E)),
    (S.pad_obj,),
    (S.pad_feat,),
    (S.black_diamond, (B, B2), (1, 2)),
    (S.adj_diamond, (B, B2), (1, 2)),
    (S.adj_box, (Y, Y2), (1, 2)),
    (S.black_square, (Y, Y2), (1, 2)),
    (S.rel_i, (B, B2), (Y, Y2)),
    (S.rel_box, (1, 2), (B, B2), (Y, Y2)),
    (S.rel_dia, (1, 2), (Y, Y2), (B, B2)),
    (S.member, (B, B2), (D, E)),
    (S.neg, (S.rel_i(B, Y), S.rel_i(B2, Y))),
]


class TestInterning:
    def test_each_constructor_interns_by_its_parts(self):
        built = []
        for make, *choices in CONSTRUCTORS:
            args = [first for first, _ in choices]
            term = make(*args)
            assert make(*args) is term, make.__name__
            for i, (_, other) in enumerate(choices):
                changed = args[:i] + [other] + args[i + 1:]
                assert make(*changed) is not term, (make.__name__, i)
            built.append(term)
        # no two constructors share a term
        assert len({id(term) for term in built}) == len(CONSTRUCTORS)
        for i in (1, 2):
            c = S.meet(S.atom(f"ident{i}"), D)
            assert S.adj_diamond(S.classifier_obj(c), i) is \
                S.classifier_obj(S.dia(i, c))
            assert S.adj_box(S.classifier_feat(c), i) is \
                S.classifier_feat(S.box(i, c))
        # the tables keep each term: one built after a collection is the
        # one built before
        gc.collect()
        assert [make(*(first for first, _ in choices))
                for make, *choices in CONSTRUCTORS] == built

    def test_concurrent_construction_gives_one_object_per_key(self):
        # eight threads build the same fresh terms while the interpreter
        # switches threads as often as it can; each table must still map
        # a key to one object, shared by every builder
        n, workers = 20_000, 8
        names = [f"race{i}" for i in range(n)]
        built = [None] * workers

        def build(k):
            built[k] = [_race_terms(name) for name in names]

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(k,))
                       for k in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        for i, name in enumerate(names):
            for terms in zip(*(run[i] for run in built)):
                assert len({id(t) for t in terms}) == 1
                for parts in zip(*map(_parts, terms)):
                    assert len({id(part) for part in parts}) == 1
            assert built[0][i] == _race_terms(name)
