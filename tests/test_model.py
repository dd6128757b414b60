import itertools
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import polardl as P
from polardl.errors import (BudgetExceededError, ClashPresentError,
                            UnknownAtomError, UnknownNameError)
from polardl import syntax as S
from polardl.model import Polarity, _bits

import dev_sequence_digest
import fuzz
import movie_data as MD

D, E = P.atom("D"), P.atom("E")


def small_context(draw_objects, draw_features, pairs):
    objs = [P.named_obj(f"o{k}") for k in range(draw_objects)]
    feats = [P.named_feat(f"u{k}") for k in range(draw_features)]
    return Polarity(objs, feats,
                    [(objs[i], feats[j]) for i, j in pairs])


contexts = st.integers(1, 4).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda m: st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
            max_size=n * m).map(lambda ps: small_context(n, m, ps))))


def up_oracle(p, objs):
    # quantifier evaluation by enumeration
    return frozenset(y for y in p.features
                     if all(p.has(b, y) for b in objs))


def down_oracle(p, feats):
    return frozenset(b for b in p.objects
                     if all(p.has(b, y) for y in feats))


@given(st.one_of(st.integers(0, 1 << 70),
                 st.integers(0, 1 << 4000),
                 st.lists(st.integers(0, 3999), max_size=40).map(
                     lambda bits: sum({1 << i for i in bits}))))
@example(0)
def test_bits_lists_the_set_bits_ascending(mask):
    assert list(_bits(mask)) == [i for i in range(mask.bit_length())
                                 if mask >> i & 1]


class TestGalois:
    def test_empty_set_maps_to_everything(self):
        p = small_context(2, 3, {(0, 1)})
        assert P.galois_up(p, []) == frozenset(p.features)
        assert P.galois_down(p, []) == frozenset(p.objects)

    def test_movie_column(self, movie_model):
        got = P.galois_down(movie_model.polarity, [MD.COL_LABELS["x1"]])
        assert got == {MD.ROW_LABELS["a1"], MD.ROW_LABELS["a10"]}

    @given(contexts, st.data())
    def test_matches_enumeration_oracle(self, p, data):
        objs = data.draw(st.sets(st.sampled_from(list(p.objects))))
        feats = data.draw(st.sets(st.sampled_from(list(p.features))))
        assert P.galois_up(p, objs) == up_oracle(p, objs)
        assert P.galois_down(p, feats) == down_oracle(p, feats)

    @given(contexts, st.data())
    def test_antitone(self, p, data):
        small = data.draw(st.sets(st.sampled_from(list(p.objects))))
        big = small | data.draw(st.sets(st.sampled_from(list(p.objects))))
        assert P.galois_up(p, big) <= P.galois_up(p, small)

    @given(contexts, st.data())
    def test_closure_laws(self, p, data):
        objs = data.draw(st.sets(st.sampled_from(list(p.objects))))
        up = lambda B: P.galois_up(p, B)
        down = lambda Y: P.galois_down(p, Y)
        assert up(down(up(objs))) == up(objs)
        closure = down(up(objs))
        assert objs <= closure
        assert down(up(closure)) == closure


class TestInterpret:
    def test_movie_atom_extent(self, movie_model):
        ext, _ = P.interpret_concept(movie_model, P.atom("GM"))
        assert ext == {MD.ROW_LABELS["a1"], MD.ROW_LABELS["a10"]}

    def test_meet_idempotent(self, movie_model):
        assert P.interpret_concept(movie_model, P.meet(P.atom("DM"), P.atom("DM"))) == \
            P.interpret_concept(movie_model, P.atom("DM"))

    def test_unknown_atom(self, movie_model):
        with pytest.raises(UnknownAtomError):
            P.interpret_concept(movie_model, P.atom("NOPE"))

    def test_join_against_enumeration(self):
        # direct evaluation of the join clause on random 4x4 contexts
        rng = random.Random(3)
        for _ in range(30):
            pairs = {(i, j) for i in range(4) for j in range(4)
                     if rng.random() < 0.4}
            p = small_context(4, 4, pairs)
            stables = P.enumerate_formal_concepts(p)
            if len(stables) < 2:
                continue
            (e1, i1), (e2, i2) = rng.sample(stables, 2)
            m = P.Model(polarity=p, atoms={
                "D": (p.obj_mask(e1), p.feat_mask(i1)),
                "E": (p.obj_mask(e2), p.feat_mask(i2))})
            ext, intent = P.interpret_concept(m, P.join(D, E))
            assert intent == i1 & i2
            assert ext == down_oracle(p, i1 & i2)

    def test_results_are_stable_pairs(self, movie_model):
        for c in [P.atom("GM"), P.meet(P.atom("RM"), P.atom("DM")),
                  P.join(P.atom("GM"), P.atom("FM")),
                  P.box(2, P.atom("DM")), P.dia(1, P.atom("RM")),
                  P.box(1, P.join(P.atom("GM"), P.atom("C")))]:
            ext, intent = P.interpret_concept(movie_model, c)
            assert P.galois_up(movie_model.polarity, ext) == intent
            assert P.galois_down(movie_model.polarity, intent) == ext


class TestSatisfies:
    def test_movie_memberships(self, movie_model):
        m4 = MD.ROW_LABELS["m4"]
        assert P.check_satisfies(movie_model, P.member(m4, MD.IM_X))
        assert P.check_satisfies(
            movie_model, P.neg(P.rel_i(MD.ROW_LABELS["m1"], MD.f2)))

    def test_never_both(self, movie_model):
        terms = [P.member(MD.ROW_LABELS["m3"], P.atom("DM")),
                 P.rel_i(MD.ROW_LABELS["m1"], MD.f3),
                 P.rel_box(1, MD.ROW_LABELS["m3"], MD.f3)]
        for t in terms:
            assert P.check_satisfies(movie_model, t) != \
                P.check_satisfies(movie_model, P.neg(t))

    def test_unknown_name(self, movie_model):
        with pytest.raises(UnknownNameError):
            P.check_satisfies(movie_model,
                              P.member(P.named_obj("stranger"), P.atom("GM")))


class TestICompatibility:
    def test_movie_model(self, movie_model):
        assert P.check_i_compatibility(movie_model)

    def test_hand_violation(self):
        a, a2 = P.named_obj("a"), P.named_obj("a2")
        x = P.named_feat("x")
        p = Polarity([a, a2], [x], [])
        m = P.Model(polarity=p, box_rows={1: [1, 0]})
        report = P.check_i_compatibility(m)
        assert not report
        assert "Rbox1" in report.violation

    @staticmethod
    def two_by_two():
        # objects a, b and features x, y with only a I x: the stable
        # extents are {}, {a}, {a, b} and the stable intents {}, {x}, {x, y}
        a, b = P.named_obj("a"), P.named_obj("b")
        x, y = P.named_feat("x"), P.named_feat("y")
        return Polarity([a, b], [x, y], [(a, x)])

    @pytest.mark.parametrize("box_rows, dia_rows, violation", [
        ({1: [0b10, 0]}, {}, "Rbox1 row of a is not stable: ['y']"),
        ({1: [0, 0b01]}, {}, "Rbox1 column of x is not stable: ['b']"),
        ({}, {1: [0, 0b10]}, "Rdia1 row of y is not stable: ['b']"),
        ({}, {2: [0, 0b01]}, "Rdia2 column of a is not stable: ['y']"),
        # box roles before dia roles, each in index order, rows before
        # columns within one relation
        ({4: [0b10, 0], 2: [0, 0b01]}, {1: [0, 0b10]},
         "Rbox2 column of x is not stable: ['b']"),
    ])
    def test_violation_messages(self, box_rows, dia_rows, violation):
        m = P.Model(polarity=self.two_by_two(), box_rows=box_rows,
                    dia_rows=dia_rows)
        report = P.check_i_compatibility(m)
        assert not report
        assert report.violation == violation

    def test_empty_relations(self):
        p = small_context(2, 2, {(0, 0)})
        assert P.check_i_compatibility(P.Model(polarity=p))

    def test_all_fuzzed_completions_are_compatible(self):
        for _, comp in fuzz.consistent_corpus(41, 60):
            assert P.check_i_compatibility(P.build_model(comp))


class TestBuildModel:
    def test_clash_rejected(self):
        comp = P.saturate({P.member(P.named_obj("b"), D),
                                    P.neg(P.member(P.named_obj("b"), D))})
        with pytest.raises(ClashPresentError):
            P.build_model(comp)

    def test_empty_completion(self):
        m = P.build_model(P.saturate(set()))
        assert m.polarity.objects == () and m.polarity.features == ()

    def test_movie_m3_row(self, movie_model):
        ones = {col for col in MD.COL_ORDER
                if MD.COL_LABELS[col] is not None
                and MD.COL_LABELS[col] in movie_model.polarity.feat_index
                and movie_model.polarity.has(MD.ROW_LABELS["m3"],
                                             MD.COL_LABELS[col])}
        assert ones == {"x4", "x5", "x6", "x12", "x14", "bsq1x15", "box2x4",
                        "f4", "f6", "bsq1f3", "bsq2f3", "box1f3", "box2f3",
                        "bsq1f5", "box2f4"}

    def test_movie_dia2_relation(self, movie_model):
        rows = movie_model.dia_rows[2]
        p = movie_model.polarity
        pairs = {(p.features[yi], p.objects[bi])
                 for yi, mask in enumerate(rows)
                 for bi in range(len(p.objects)) if mask >> bi & 1}
        assert pairs == {(MD.f3, MD.ROW_LABELS["m3"])}

    def test_completion_bridge(self, movie_table_completion, movie_model):
        # membership facts in the completion coincide with model truth
        for a in movie_table_completion.positives():
            assert P.check_satisfies(movie_model, a)

    def test_carrier_order_is_pinned(self):
        # the carriers in library order (first occurrence in the
        # completion, padding last) and both exports, for the base run of
        # the first 150 corpus ABoxes of tests/dev_sequence_digest.py and
        # one run resumed from it, hashed into one
        lines = []
        for _, base in fuzz.consistent_corpus(
                dev_sequence_digest.CORPUS_SEED, 150):
            fresh = P.meet(P.atom("Fresh"),
                           min(base.occurring, key=str, default=D))
            resumed = P.saturate(
                base.input_assertions | set(S.creation_terms(fresh)),
                start=base)
            for comp in (base, resumed):
                m = P.build_model(comp)
                lines += [str(m.polarity.objects), str(m.polarity.features),
                          json.dumps(P.model_to_dict(m), sort_keys=True),
                          P.model_to_csv(m)]
        assert dev_sequence_digest._digest(lines) == "3a99869e24f648fe"

    def test_atom_order_does_not_follow_memory_layout(self, tmp_path):
        # each interpreter interns the atoms in another order before
        # parsing, which places them at other addresses; all must list
        # the model's atoms in one order
        kb = tmp_path / "atoms.kb"
        kb.write_text("obj b. feat y.\n" + "".join(
            f"b : A{k}.\ny :: A{k}.\n" for k in range(1, 7)))
        script = ("import sys\n"
                  "import polardl as P\n"
                  "first = [P.atom('A' + k) for k in sys.argv[1]]\n"
                  "with open(sys.argv[2]) as fh:\n"
                  "    kb = P.parse_kb(fh.read())\n"
                  "print(list(P.build_model(P.QueryEngine(kb).completion)"
                  ".atoms))\n")
        env = dict(os.environ,
                   PYTHONPATH=str(pathlib.Path(P.__file__).parents[1]))
        lists = {subprocess.run([sys.executable, "-c", script, order,
                                 str(kb)], capture_output=True, env=env,
                                check=True).stdout
                 for order in ("123456", "654321", "315264")}
        assert lists == {str([f"A{k}" for k in range(1, 7)]).encode() + b"\n"}


class TestBoundedSearch:
    def test_unsatisfiable_input(self):
        b = P.named_obj("b")
        found = P.bounded_model_search({P.member(b, D), P.neg(P.member(b, D))},
                                       3, 3)
        assert found is None

    def test_trivial_model(self):
        got = P.bounded_model_search({P.rel_i(P.named_obj("a"),
                                              P.named_feat("x"))}, 1, 1)
        assert got is not None
        m, o_map, f_map = got
        assert P.check_satisfies(m, P.rel_i(o_map[P.named_obj("a")],
                                            f_map[P.named_feat("x")]))

    def test_budget(self):
        abox = fuzz.random_abox(random.Random(1), n_obj=3, n_feat=3, n_terms=8)
        with pytest.raises(BudgetExceededError):
            P.bounded_model_search(abox, 3, 3, budget=3)

    def test_consistent_small_aboxes_have_models(self):
        rng = random.Random(13)
        found = 0
        for _ in range(25):
            abox = fuzz.random_abox(rng, n_obj=1, n_feat=1, n_atoms=2,
                                    n_box=1, n_dia=1, n_terms=3,
                                    max_depth=1, neg_prob=0.3)
            if not P.saturate(abox).is_consistent:
                continue
            got = P.bounded_model_search(abox, 3, 3)
            assert got is not None, sorted(map(str, abox))
            found += 1
        assert found >= 10

    @staticmethod
    def search_outcomes(seed, count, size, budget, n_box):
        # one line per ABox: the model's export and both name maps, None,
        # or "budget"; every third ABox with concepts adds the axiom
        # "its first occurring concept by text sub its last"
        rng = random.Random(seed)
        lines = []
        for k in range(count):
            abox = fuzz.random_abox(rng, n_obj=2, n_feat=2, n_atoms=2,
                                    n_box=n_box, n_dia=1, n_terms=4,
                                    max_depth=1, neg_prob=0.3)
            occurring = sorted(S.occurring_concepts(abox), key=str)
            axioms = ([(occurring[0], occurring[-1])]
                      if k % 3 == 0 and occurring else [])
            try:
                got = P.bounded_model_search(abox, size, size, budget=budget,
                                             axioms=axioms)
            except BudgetExceededError:
                lines.append("budget")
                continue
            if got is None:
                lines.append("None")
                continue
            m, o_map, f_map = got
            lines.append(json.dumps(
                [P.model_to_dict(m),
                 sorted((str(b), str(e)) for b, e in o_map.items()),
                 sorted((str(y), str(e)) for y, e in f_map.items())],
                sort_keys=True))
        return lines

    @pytest.mark.parametrize("seed, count, size, budget, n_box, tally, digest", [
        (7, 150, 2, 200_000, 1, (134, 16, 0), "38bf7832098251c7"),
        (8, 60, 3, 20_000, 2, (54, 5, 1), "efbc1efe0c3de226"),
    ])
    def test_search_answers_are_pinned(self, seed, count, size, budget, n_box,
                                       tally, digest):
        # the first model found, the verdict and the budget verdict, for
        # each ABox of a fixed slice
        lines = self.search_outcomes(seed, count, size, budget, n_box)
        assert (count - lines.count("None") - lines.count("budget"),
                lines.count("None"), lines.count("budget")) == tally
        assert dev_sequence_digest._digest(lines) == digest


class TestFormalConcepts:
    def enumeration_oracle(self, p):
        # brute force over all subset pairs
        out = set()
        objs, feats = list(p.objects), list(p.features)
        for k in range(len(objs) + 1):
            for ext in itertools.combinations(objs, k):
                ext = frozenset(ext)
                intent = up_oracle(p, ext)
                if down_oracle(p, intent) == ext:
                    out.add((ext, intent))
        return out

    def test_full_one_by_one(self):
        p = small_context(1, 1, {(0, 0)})
        got = P.enumerate_formal_concepts(p)
        assert len(got) == 1
        assert got == sorted(self.enumeration_oracle(p),
                             key=lambda c: (len(c[0]), sorted(map(str, c[0]))))

    def test_empty_one_by_one(self):
        p = small_context(1, 1, set())
        got = P.enumerate_formal_concepts(p)
        assert len(got) == 2
        assert set(got) == self.enumeration_oracle(p)

    @given(contexts)
    @settings(max_examples=60)
    def test_matches_brute_force(self, p):
        got = P.enumerate_formal_concepts(p)
        assert set(got) == self.enumeration_oracle(p)
        # count equals the number of distinct closed extents
        assert len(got) == len({ext for ext, _ in got})

    def test_guard(self):
        p = small_context(4, 4, set())
        with pytest.raises(BudgetExceededError):
            P.enumerate_formal_concepts(p, max_cells=4)


class TestExport:
    def test_csv_shape(self, movie_model):
        text = P.model_to_csv(movie_model)
        lines = text.strip().split("\n")
        assert len(lines) == 1 + len(movie_model.polarity.objects)
        assert all(line.count(",") == len(movie_model.polarity.features)
                   for line in lines)

    def test_dict_contents(self, movie_model):
        out = P.model_to_dict(movie_model)
        assert set(out) == {"objects", "features", "incidence",
                            "box_roles", "dia_roles", "atoms"}
        assert ["m3", "f3"] in out["box_roles"]["1"]
        assert ["f3", "m3"] in out["dia_roles"]["2"]
        assert out["atoms"]["GM"]["extent"] == ["a[GM and C]", "a[GM]"]
