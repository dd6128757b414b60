import pytest

import polardl as P
from polardl import queries, tbox
from polardl.errors import CycleError, MultipleDefinitionError, SizeLimitError
from polardl.parser import KnowledgeBase, TBoxAxiom
from polardl.tbox import (check_acyclic, definition_map, expand_abox,
                          rewrite_all, rewrite_gci, substitute_concept,
                          unravel)

import dev_cli_bytes

IM, EUM, GM, FM, D = (P.atom(n) for n in ("IM", "EUM", "GM", "FM", "D"))


class TestRewrite:
    def test_inclusion_becomes_equivalence(self):
        ax = rewrite_gci(TBoxAxiom("sub", IM, EUM), taken_names={"IM", "EUM"})
        assert ax.kind == "equiv"
        assert ax.lhs is IM
        assert ax.rhs.kind == "meet" and ax.rhs.left is EUM
        assert ax.rhs.right.kind == "atom"
        assert ax.rhs.right.name not in {"IM", "EUM"}

    def test_fresh_name_avoids_taken(self):
        ax = rewrite_gci(TBoxAxiom("sub", IM, EUM), taken_names={"G1", "G2"})
        assert ax.rhs.right.name == "G3"

    def test_reflexive_inclusion_still_rewritten(self):
        ax = rewrite_gci(TBoxAxiom("sub", D, D))
        assert ax.kind == "equiv" and ax.lhs is D
        assert ax.rhs.left is D and ax.rhs.right.kind == "atom"

    def test_equivalence_input_rejected(self):
        with pytest.raises(ValueError):
            rewrite_gci(TBoxAxiom("equiv", IM, EUM))


class TestAcyclicity:
    def test_movie_tbox_order(self, movies_kb):
        order = check_acyclic(rewrite_all(movies_kb))
        assert set(order) == {"EUM", "RDM", "IM", "FDM"}
        assert order.index("EUM") < order.index("IM")

    def test_self_loop(self):
        with pytest.raises(CycleError) as err:
            check_acyclic([TBoxAxiom("equiv", P.atom("Q"),
                                     P.box(1, P.atom("Q")))])
        assert err.value.cycle == ["Q", "Q"]

    def test_longer_cycle_reported(self):
        axs = [TBoxAxiom("equiv", P.atom("A1"), P.atom("A2")),
               TBoxAxiom("equiv", P.atom("A2"), P.atom("A1"))]
        with pytest.raises(CycleError):
            check_acyclic(axs)

    def test_cycle_lists_each_name_before_its_dependency(self):
        # A1 -> A2 -> A3 -> A1, with B outside the cycle
        axs = [TBoxAxiom("equiv", P.atom(f"A{k}"),
                         P.meet(P.atom("B"), P.box(1, P.atom(f"A{k % 3 + 1}"))))
               for k in (1, 2, 3)]
        axs.append(TBoxAxiom("equiv", P.atom("B"), GM))
        with pytest.raises(CycleError) as err:
            check_acyclic(axs)
        cycle = err.value.cycle
        assert len(cycle) == 4 and cycle[0] == cycle[-1]
        assert all(int(b[1:]) == int(a[1:]) % 3 + 1
                   for a, b in zip(cycle, cycle[1:]))

    def test_long_chain_listed_dependents_first(self):
        n = 1500
        axs = [TBoxAxiom("equiv", P.atom(f"C{k}"),
                         P.meet(GM, P.atom(f"C{k + 1}")))
               for k in range(n - 1)]
        axs.append(TBoxAxiom("equiv", P.atom(f"C{n - 1}"), GM))
        assert check_acyclic(axs) == [f"C{k}" for k in reversed(range(n))]

    def test_empty(self):
        assert check_acyclic([]) == []

    def test_duplicate_definition(self):
        axs = [TBoxAxiom("equiv", D, GM), TBoxAxiom("equiv", D, FM)]
        with pytest.raises(MultipleDefinitionError):
            check_acyclic(axs)

    def test_non_atomic_lhs_rejected(self):
        with pytest.raises(ValueError):
            check_acyclic([TBoxAxiom("equiv", P.meet(GM, FM), D)])

    def test_unrewritten_inclusion_rejected(self):
        with pytest.raises(ValueError):
            check_acyclic([TBoxAxiom("sub", D, GM)])


class TestUnravel:
    def test_movie_membership(self, movies_kb):
        out = unravel(movies_kb)
        mapping = definition_map(movies_kb)
        im_x = mapping["IM"]
        assert im_x.kind == "meet" and im_x.left is P.join(GM, FM)
        assert P.member(P.named_obj("m4"), im_x) in out

    def test_no_defined_names_remain(self, movies_kb):
        out = unravel(movies_kb)
        defined = set(definition_map(movies_kb))
        for c in P.occurring_concepts(out):
            if c.kind == "atom":
                assert c.name not in defined

    def test_empty_tbox_is_identity(self):
        kb = P.parse_kb("obj b. feat y. b I y. b : D.")
        assert unravel(kb) == kb.abox

    def test_an_engine_builds_one_definition_map(self, movies_kb,
                                                 monkeypatch):
        # the map check_acyclic orders is the one the ABox expansion and
        # the query expansion read; a KB without a TBox builds none
        orders, read = [], []
        check, expand = tbox.check_acyclic, tbox.expand_abox
        monkeypatch.setattr(tbox, "check_acyclic",
                            lambda t: orders.append(t) or check(t))
        monkeypatch.setattr(queries, "expand_abox",
                            lambda abox, m: read.append(m) or expand(abox, m))
        engine = P.QueryEngine(movies_kb)
        P.QueryEngine(P.parse_kb("obj b. b : IM."))
        assert len(orders) == 1 and read[0] is engine._defs and read[1] == {}
        assert engine._defs == definition_map(movies_kb)
        assert engine.abox == unravel(movies_kb)
        assert engine._expand(IM) is engine._defs["IM"]

    def test_substitution_not_simplified(self, movies_kb):
        # x0 :: GM and IM expands to GM and ((GM or FM) and G); the
        # lattice-equivalent shortening to GM and G is not performed.
        mapping = definition_map(movies_kb)
        got = substitute_concept(P.meet(GM, IM), mapping)
        assert got is P.meet(GM, mapping["IM"])
        assert P.member(P.named_feat("x0"), got) in unravel(movies_kb)

    def test_classifier_seeds_only_for_missing_bodies(self, movies_kb):
        out = unravel(movies_kb)
        mapping = definition_map(movies_kb)
        fdm_x = mapping["FDM"]
        assert P.member(P.classifier_obj(fdm_x), fdm_x) in out
        assert P.member(P.classifier_feat(fdm_x), fdm_x) in out
        # EUM's body occurs in the substituted ABox already: no seed pair
        eum_x = mapping["EUM"]
        assert P.member(P.classifier_obj(eum_x), eum_x) not in out

    def test_defined_name_inside_classifier_spelling(self):
        kb = P.parse_kb("obj b. b : IM. IM equiv GM.")
        abox = set(kb.abox) | {P.neg(P.rel_i(P.named_obj("b"),
                                             P.classifier_feat(IM)))}
        kb2 = KnowledgeBase(obj_names=kb.obj_names, tbox=kb.tbox,
                            abox=frozenset(abox))
        out = unravel(kb2)
        assert P.neg(P.rel_i(P.named_obj("b"), P.classifier_feat(GM))) in out

    def test_defined_name_inside_an_adjoint_spelling(self):
        kb = P.parse_kb("feat y. D equiv GM and FM.")
        y = P.named_feat("y")
        fact = P.rel_i(P.black_diamond(P.classifier_obj(D), 1), y)
        kb2 = KnowledgeBase(feat_names=kb.feat_names, box_roles=1,
                            tbox=kb.tbox, abox=frozenset({fact}))
        expanded = P.classifier_obj(P.meet(GM, FM))
        assert P.rel_i(P.black_diamond(expanded, 1), y) in unravel(kb2)

    def test_abox_expansion_meets_its_node_budget(self):
        kb = P.parse_kb("obj b. b : D. D equiv GM and FM.")
        with pytest.raises(SizeLimitError, match="ABox expansion"):
            expand_abox(kb.abox, definition_map(kb), max_nodes=2)

    def test_size_limit(self):
        # each definition doubles the previous one: exponential expansion
        lines = ["obj b.", "b : A10."]
        for k in range(10, 0, -1):
            lines.append(f"A{k} equiv A{k-1} and A{k-1}.")
        kb = P.parse_kb("\n".join(lines))
        with pytest.raises(SizeLimitError):
            unravel(kb, max_nodes=500)

    @pytest.mark.parametrize("levels, objects, error", [
        (17, 1, None),
        (18, 1, "definition expansion exceeded 1000000 nodes"),
        (16, 5, None),
        (16, 6, "ABox expansion exceeded 1000000 nodes"),
    ])
    def test_both_budgets_count_tree_nodes_at_their_defaults(
            self, levels, objects, error):
        # C{i} equiv C{i+1} and box1 C{i+1}: C0's tree doubles with each
        # level, its distinct subterms grow by two (35 at 17 levels)
        kb = P.parse_kb(dev_cli_bytes.dag(levels, objects))
        if error is None:
            out = unravel(kb)
            assert len(out) == objects
            assert {len(P.subconcepts(a.concept)) for a in out} == {
                2 * levels + 1}
        else:
            with pytest.raises(SizeLimitError, match=error):
                unravel(kb)

    def test_equi_consistency_on_micro_kbs(self):
        # unraveling preserves satisfiability at desk scale
        texts = [
            "obj b. feat y. b : Q. Q equiv D and E. not b I y.",
            "obj b. feat y. y :: Q. Q equiv D or E. b I y.",
        ]
        for text in texts:
            kb = P.parse_kb(text)
            out = unravel(kb)
            comp = P.saturate(out)
            assert comp.is_consistent
            assert P.bounded_model_search(out, 3, 3) is not None
