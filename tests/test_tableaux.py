import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

import polardl as P
from polardl import syntax as S
from polardl.errors import (ResourceLimitError, UnknownIndividualError,
                            UnsupportedRuleError)

import dev_sequence_digest
import fuzz
import movie_data

b, d = P.named_obj("b"), P.named_obj("d")
y, z = P.named_feat("y"), P.named_feat("z")
D, E = P.atom("D"), P.atom("E")
I = P.Role("I")


class TestBasics:
    def test_forced_clash_with_three_step_certificate(self):
        comp = P.saturate({P.member(b, D), P.neg(P.member(b, D))})
        assert not comp.is_consistent
        rules = [step[0] for step in comp.clash_certificate()]
        assert rules == ["create", "I", "neg_b"]

    def test_inert_incidence_fact(self):
        comp = P.saturate({P.rel_i(b, y)})
        assert comp.is_consistent
        assert set(comp.assertions) == {P.rel_i(b, y)}

    def test_empty_abox(self):
        comp = P.saturate(set())
        assert comp.is_consistent and comp.assertions == ()

    def test_movie_with_extra_membership_clashes(self, movies_kb):
        abox = P.unravel(movies_kb)
        extra = P.member(P.named_obj("m1"),
                         P.box(2, P.dia(1, P.atom("RM"))))
        comp = P.saturate(abox | {extra})
        assert not comp.is_consistent
        term, negation = comp.clash
        assert term is P.rel_box(2, P.named_obj("m1"), P.named_feat("f5"))
        assert comp.provenance[term][0] == "box"

    def test_non_distributive_consistency(self):
        # inconsistent distributively, consistent here: the join member
        # never decomposes on the object side
        gm, fm, c = P.atom("GM"), P.atom("FM"), P.atom("C")
        m4, x0 = P.named_obj("m4"), P.named_feat("x0")
        abox = {P.member(m4, P.meet(P.join(gm, fm), c)),
                P.neg(P.rel_i(m4, x0)),
                P.member(x0, P.meet(fm, c)),
                P.member(x0, P.meet(gm, c))}
        assert P.saturate(abox).is_consistent

    def test_step_budget(self, movies_kb):
        with pytest.raises(ResourceLimitError):
            P.saturate(P.unravel(movies_kb), max_steps=5)


class TestFreshNames:
    def test_memoized_pair(self):
        c = P.meet(P.atom("RM"), P.atom("DM"))
        obj_term, feat_term = S.creation_terms(c)
        assert S.creation_terms(c) == (obj_term, feat_term)
        assert obj_term is P.member(P.classifier_obj(c), c)
        assert feat_term is P.member(P.classifier_feat(c), c)

    def test_dia_classifier_identification(self):
        a_c = P.classifier_obj(P.dia(1, D))
        assert a_c is P.adj_diamond(P.classifier_obj(D), 1)


class TestRuleMechanics:
    def test_meet_decomposes_for_objects(self):
        comp = P.saturate({P.member(b, P.meet(D, E))})
        assert P.member(b, D) in comp and P.member(b, E) in comp

    def test_join_does_not_decompose_for_objects(self):
        comp = P.saturate({P.member(b, P.join(D, E))})
        assert P.member(b, D) not in comp and P.member(b, E) not in comp

    def test_inverse_rule_needs_occurrence(self):
        # D and E never occurs: no meet membership is reassembled
        comp = P.saturate({P.member(b, D), P.member(b, E)})
        assert P.member(b, P.meet(D, E)) not in comp
        # once the meet occurs anywhere, the inverse rule fires
        comp2 = P.saturate({P.member(b, D), P.member(b, E),
                                     P.member(y, P.meet(D, E))})
        assert P.member(b, P.meet(D, E)) in comp2

    def test_adjunction_names(self):
        comp = P.saturate({P.rel_box(1, b, y)})
        assert P.rel_i(P.black_diamond(b, 1), y) in comp
        assert P.rel_i(b, P.adj_box(y, 1)) in comp
        assert comp.is_consistent

    def test_negatives_never_match_positive_premises(self):
        comp = P.saturate({P.neg(P.member(b, P.meet(D, E)))})
        assert P.member(b, D) not in comp
        # only the negative propagation fires
        assert P.neg(P.rel_i(b, P.classifier_feat(P.meet(D, E)))) in comp

    def test_provenance_premises_precede_conclusions(self, movies_kb):
        comp = P.saturate(P.unravel(movies_kb))
        pos = {a: i for i, a in enumerate(comp.assertions)}
        for a in comp.assertions:
            rule, premises = comp.provenance[a]
            for pr in premises:
                assert pos[pr] < pos[a]

    def test_stats_count_additions(self):
        comp = P.saturate({P.member(b, D)})
        assert comp.stats["create"] == 2
        assert comp.stats["input"] == 1


class TestExtraRules:
    def test_unknown_individual(self):
        rules = (P.CopyRule(I, b, d),)
        with pytest.raises(UnknownIndividualError):
            P.saturate({P.member(b, D)}, rules)

    def test_unsupported_directions(self):
        with pytest.raises(UnsupportedRuleError):
            P.RelationInclusionRule(P.Role("I"), P.Role("box", 1), b)
        with pytest.raises(UnsupportedRuleError):
            # the pivot must be a feature
            P.RelationInclusionRule(P.Role("dia", 1), P.Role("box", 1), b)

    @pytest.mark.parametrize("role, sort, label", [
        ("I", S.OBJ, "SA(b,d)"),
        ("I", S.FEAT, "SX(y,z)"),
        ("Rbox1", S.OBJ, "SA[Rbox1](b,d)"),
        ("Rbox1", S.FEAT, "SX[Rbox1](y,z)"),
        ("Rdia1", S.OBJ, "SA[Rdia1](b,d)"),
        ("Rdia1", S.FEAT, "SX[Rdia1](y,z)"),
    ])
    def test_copy_rule(self, role, sort, label):
        role = P.Role.parse(role)

        def fact(obj, feat):
            if role.kind == "dia":
                return P.rel(role, feat, obj)
            return P.rel(role, obj, feat)

        premise = fact(b, y)
        if sort == S.OBJ:
            rule, copied = P.CopyRule(role, b, d), fact(d, y)
        else:
            rule, copied = P.CopyRule(role, y, z), fact(b, z)
        run = P.saturate({premise, P.rel_i(d, z)}, (rule,))
        assert run.is_consistent
        assert rule.label == label
        assert run.provenance[copied] == (label, (premise,))
        assert run.stats[label] == 1

    def test_subsumption_rule(self):
        rule = P.SubsumptionRule(D, E)
        rules = (rule,)
        abox = {P.member(b, D), P.member(y, E)}
        assert rule.label == "SUB(D,E)" and rule.individuals() == ()
        for start in (None, P.saturate(abox)):
            run = P.saturate(abox, rules, start=start)
            assert run.is_consistent
            assert run.provenance[P.member(b, E)] == \
                ("SUB(D,E)", (P.member(b, D),))
            assert run.provenance[P.member(y, D)] == \
                ("SUB(D,E)", (P.member(y, E),))
            # the concepts must occur, or their creation pairs be missing
            with pytest.raises(UnsupportedRuleError):
                P.saturate(abox, (P.SubsumptionRule(D, P.atom("F")),),
                           start=start)

    def test_cross_sort_copy_rule_is_rejected(self):
        with pytest.raises(UnsupportedRuleError):
            P.CopyRule(I, b, y)
        with pytest.raises(UnsupportedRuleError):
            P.CopyRule(P.Role("box", 1), y, b)

    @pytest.mark.parametrize("make, message", [
        (lambda: P.CopyRule(I, b, y), "relates individuals of two sorts"),
        (lambda: P.RelationInclusionRule(I, P.Role("box", 1), b),
         "inclusions of I into a box or dia role may not terminate"),
        (lambda: P.RelationInclusionRule(P.Role("box", 1), P.Role("box", 2),
                                         b),
         "unsupported direction SA(Rbox1,Rbox2,b)"),
        (lambda: P.RelationInclusionRule(P.Role("dia", 1), P.Role("dia", 2),
                                         y),
         "unsupported direction SX(Rdia1,Rdia2,y)"),
    ], ids=["copy across sorts", "I->box", "box->box", "dia->dia"])
    def test_an_unsupported_rule_cannot_be_built(self, make, message):
        with pytest.raises(UnsupportedRuleError, match=re.escape(message)):
            make()

    def test_an_unknown_extra_rule_is_rejected(self):
        abox = {P.member(b, D)}
        for start in (None, P.saturate(abox)):
            with pytest.raises(UnsupportedRuleError,
                               match="unknown extra rule"):
                P.saturate(abox, (object(),), start=start)

    def test_self_copy_is_inert(self):
        abox = {P.member(b, D), P.rel_i(b, y)}
        rules = (P.CopyRule(I, b, b),)
        plain = P.saturate(abox)
        copied = P.saturate(abox, rules)
        assert set(copied.assertions) == set(plain.assertions)
        assert copied.is_consistent

    def test_movie_differentiation_rules_clash(self, movies_kb):
        abox = P.unravel(movies_kb)
        m2, m4 = P.named_obj("m2"), P.named_obj("m4")
        rules = (P.CopyRule(I, m4, m2), P.CopyRule(I, m2, m4))
        comp = P.saturate(abox, rules)
        assert not comp.is_consistent
        cert = comp.clash_certificate()
        assert [s[0] for s in cert] == \
            ["create", "and_A", "I", "SA(m4,m2)", "neg_b"]

    def test_relation_inclusion_no_clash(self, movies_kb):
        abox = P.unravel(movies_kb)
        rules = (P.RelationInclusionRule(
            P.Role("box", 1), P.Role("I"), P.named_obj("m4")),)
        assert P.saturate(abox, rules).is_consistent


class TestInvariants:
    def test_confluence_under_random_schedules(self):
        # consistent inputs reach one fixpoint under any fair schedule;
        # inconsistent ones may stop at different partial sets (clash
        # short-circuit) but always agree on the verdict
        rng = random.Random(11)
        for _ in range(40):
            abox = fuzz.random_abox(rng)
            plain = P.saturate(abox)
            for seed in (1, 2):
                other = P.saturate(abox, shuffle_seed=seed)
                assert other.is_consistent == plain.is_consistent
                if plain.is_consistent:
                    assert set(other.assertions) == set(plain.assertions)

    def test_depth_claims_on_fuzzed_completions(self):
        for _, comp in fuzz.consistent_corpus(23, 80):
            assert fuzz.depth_claim_violations(comp) == []

    def test_no_shape_violations_under_base_rules(self):
        for _, comp in fuzz.consistent_corpus(29, 80):
            assert comp.invariant_violations == ()

    def test_dia_fact_addition_enables_no_new_box_facts(self):
        # adding a dia-role fact to a saturated set leaves the box-role
        # facts unchanged (when the extension stays consistent)
        rng = random.Random(31)
        checked = 0
        for abox, comp in fuzz.consistent_corpus(37, 120):
            objs = sorted((i for i in S.individuals_in(abox)
                           if i.sort == S.OBJ), key=str)
            feats = sorted((i for i in S.individuals_in(abox)
                            if i.sort == S.FEAT), key=str)
            if not objs or not feats:
                continue
            new = P.rel_dia(1, rng.choice(feats), rng.choice(objs))
            ext = P.saturate(abox | {new})
            if not ext.is_consistent:
                continue
            def box_facts(c):
                return {a for a in c.assertions if a.kind == S.REL_BOX}
            assert box_facts(ext) == box_facts(comp)
            checked += 1
        assert checked >= 30

    @staticmethod
    def _assert_into_i_derives_no_shape(abox, lhs_kind, pivot):
        into_i = P.RelationInclusionRule(P.Role(lhs_kind, 1), P.Role("I"),
                                         pivot)
        safe = P.saturate(abox, (into_i,))
        assert safe.is_consistent
        assert fuzz.shape_violations(safe) == []
        assert safe.invariant_violations == ()

    def test_crossing_dia_into_box_derives_a_shape(self):
        # the dia rule puts the dia-image a[dia1 D] under y; the crossing
        # inclusion must then make it head a box-role fact
        a_d = P.classifier_obj(P.dia(1, D))
        abox = {P.member(y, P.dia(1, P.dia(1, D)))}
        crossing = P.RelationInclusionRule(P.Role("dia", 1),
                                           P.Role("box", 1), y)
        run = P.saturate(abox, (crossing,))
        assert run.is_consistent
        premise = P.rel_dia(1, y, a_d)
        shape = P.rel_box(1, a_d, y)
        assert crossing.label == "SX(Rdia1,Rbox1,y)"
        assert run.provenance[premise] == (
            "dia", (P.member(y, P.dia(1, P.dia(1, D))),
                    P.member(a_d, P.dia(1, D))))
        assert run.provenance[shape] == (crossing.label, (premise,))
        assert fuzz.shape_violations(run) == [
            shape,
            P.rel_i(a_d, P.adj_box(y, 1)),
            P.rel_dia(1, P.adj_box(y, 1), P.classifier_obj(D))]
        assert run.invariant_violations == (
            "dia-image heads a box-role fact: a[dia1 D] Rbox1 y",
            "dia-image I box-image: a[dia1 D] I box1(y)",
            "box-image heads a dia-role fact: box1(y) Rdia1 a[D]")
        self._assert_into_i_derives_no_shape(abox, "dia", y)

    def test_crossing_box_into_dia_derives_a_shape(self):
        # mirror case: the box rule puts the box-image x[box1 D] under b;
        # the crossing inclusion makes it head a dia-role fact
        x_d = P.classifier_feat(P.box(1, D))
        abox = {P.member(b, P.box(1, P.box(1, D)))}
        crossing = P.RelationInclusionRule(P.Role("box", 1),
                                           P.Role("dia", 1), b)
        run = P.saturate(abox, (crossing,))
        assert run.is_consistent
        premise = P.rel_box(1, b, x_d)
        shape = P.rel_dia(1, x_d, b)
        assert crossing.label == "SA(Rbox1,Rdia1,b)"
        assert run.provenance[premise] == (
            "box", (P.member(b, P.box(1, P.box(1, D))),
                    P.member(x_d, P.box(1, D))))
        assert run.provenance[shape] == (crossing.label, (premise,))
        assert fuzz.shape_violations(run) == [
            shape,
            P.rel_i(P.adj_diamond(b, 1), x_d),
            P.rel_box(1, P.adj_diamond(b, 1), P.classifier_feat(D))]
        assert run.invariant_violations == (
            "box-image heads a dia-role fact: x[box1 D] Rdia1 b",
            "dia-image I box-image: dia1(b) I x[box1 D]",
            "dia-image heads a box-role fact: dia1(b) Rbox1 x[D]")
        self._assert_into_i_derives_no_shape(abox, "box", b)

    def test_movie_base_run_has_no_shape_violations(self, movie_table_completion):
        assert movie_table_completion.invariant_violations == ()

    def test_copy_rule_stays_inside_the_source_row(self):
        # a consistent SA(b,d)-extended run gives d only features that b
        # already had in the plain completion
        rng = random.Random(43)
        checked = 0
        for abox, comp in fuzz.consistent_corpus(47, 120):
            objs = sorted((i for i in S.individuals_in(abox)
                           if i.sort == S.OBJ), key=str)
            if len(objs) < 2:
                continue
            src, dst = rng.sample(objs, 2)
            rules = (P.CopyRule(I, src, dst),)
            run = P.saturate(abox, rules)
            if not run.is_consistent:
                continue
            base_row = {a.right for a in comp.assertions
                        if a.kind == S.REL_I and a.left is src}
            for a in run.assertions:
                if a.kind == S.REL_I and a.left is dst and a not in comp:
                    assert a.right in base_row, (str(a), sorted(map(str, abox)))
            checked += 1
        assert checked >= 40


class TestDeterminism:
    def test_identical_runs_identical_traces(self, movies_kb):
        abox = P.unravel(movies_kb)
        c1 = P.saturate(abox)
        c2 = P.saturate(abox)
        assert [str(a) for a in c1.assertions] == [str(a) for a in c2.assertions]
        assert c1.stats == c2.stats

    def test_a_run_from_scratch_seeds_no_meet_before_the_loop(self):
        # the empty base holds no membership pair, so and_inv concludes
        # b : C1 and C2 in the loop, after what the earlier input derived
        a, b, d = (P.named_obj(n) for n in "abd")
        X, Y, C1, C2 = (P.atom(n) for n in ("X", "Y", "C1", "C2"))
        comp = P.saturate({
            P.member(a, P.meet(X, Y)), P.member(b, C1), P.member(b, C2),
            P.member(d, P.meet(C1, C2))})
        order = list(comp.assertions)
        assert order.index(P.member(a, X)) \
            < order.index(P.member(b, P.meet(C1, C2)))

    def test_base_completion_order_is_pinned(self):
        # the sequence and set digests that tests/dev_sequence_digest.py
        # prints for the base runs of its 1,000 corpus ABoxes, hashed into
        # one; an engine change that must keep the completion order keeps it
        corpus = fuzz.consistent_corpus(dev_sequence_digest.CORPUS_SEED,
                                        dev_sequence_digest.CORPUS_SIZE)
        lines = (" ".join(dev_sequence_digest._line(comp))
                 for _, comp in corpus)
        assert dev_sequence_digest._digest(lines) == "b4c7869014dab029"

    def test_resumed_completion_order_is_pinned(self):
        # the lines that tests/dev_sequence_digest.py prints for the runs
        # other than the base runs of its first 150 corpus ABoxes, hashed
        # into one; most of them resume the base run
        lines = []

        def visit(label, comp, again):
            if label[1] != "base":
                lines.append(dev_sequence_digest.printed(
                    label, dev_sequence_digest._line(comp)))

        dev_sequence_digest.each_run(
            fuzz.consistent_corpus(dev_sequence_digest.CORPUS_SEED, 150),
            visit)
        assert len(lines) == 3056
        assert dev_sequence_digest._digest(lines) == "9508503abff8b022"

    def test_trace_bytes_do_not_follow_memory_layout(self, tmp_path):
        # D is an operand of six occurring meets, so and_inv's partner list
        # decides the order in which b's meets are added.  Each interpreter
        # builds the meets in another order before parsing, which places
        # them at other addresses; all must print one trace.
        kb = tmp_path / "meets.kb"
        kb.write_text("obj b. feat y.\nb : D.\n"
                      + "".join(f"b : E{k}.\ny :: D and E{k}.\n"
                                for k in range(1, 7)))
        script = ("import sys\n"
                  "import polardl as P, polardl.cli\n"
                  "first = [P.meet(P.atom('D'), P.atom('E' + k))\n"
                  "         for k in sys.argv[1]]\n"
                  "P.cli.main(['trace', sys.argv[2]])\n")
        env = dict(os.environ,
                   PYTHONPATH=str(pathlib.Path(P.__file__).parents[1]))
        traces = {subprocess.run([sys.executable, "-c", script, order,
                                  str(kb)], capture_output=True, env=env,
                                 check=True).stdout
                  for order in ("123456", "654321", "315264")}
        assert len(traces) == 1
        assert traces.pop().count(b'"and_inv"') == 6
