"""Terminological axioms: inclusion rewriting, acyclicity, unraveling.

An inclusion ``C1 sub C2`` is rewritten as the equivalence
``C1 equiv C2 and G`` for a fresh atomic name G.  A definitional set of
equivalences (atomic left-hand sides, each name defined once, no
dependency cycles) is then unraveled: every defined name in every ABox
assertion is exhaustively replaced by its definition, so downstream
reasoning only ever sees a plain ABox.  Expansion can blow up
exponentially, so a node budget guards it.

Unraveling also emits the classifier membership pair ``a_C : C`` /
``x_C :: C`` for each definition's expanded right-hand side.  These are
exactly the terms the creation rule would add for an occurring concept;
emitting them keeps defined categories queryable even when no ABox
assertion mentions them.
"""

from __future__ import annotations

import graphlib

from .errors import CycleError, MultipleDefinitionError, SizeLimitError
from .parser import KnowledgeBase, TBoxAxiom
from . import syntax as S


def rewrite_gci(ax: TBoxAxiom, taken_names=()) -> TBoxAxiom:
    """Rewrite an inclusion axiom as an equivalence with a fresh conjunct.

    The fresh atomic name avoids everything in taken_names.
    """
    if ax.kind != "sub":
        raise ValueError("rewrite_gci applies to inclusion axioms only")
    taken = set(taken_names)
    n = 1
    while f"G{n}" in taken:
        n += 1
    fresh = S.atom(f"G{n}")
    return TBoxAxiom("equiv", ax.lhs, S.meet(ax.rhs, fresh))


def rewrite_all(kb: KnowledgeBase) -> tuple:
    """Rewrite every inclusion in kb's TBox; returns equivalences only."""
    taken = kb.atom_names()
    out = []
    for ax in kb.tbox:
        if ax.kind == "sub":
            ax = rewrite_gci(ax, taken)
            taken |= {s.name for s in S.subconcepts(ax.rhs) if s.kind == S.ATOM}
        out.append(ax)
    return tuple(out)


def check_acyclic(tbox) -> list:
    """Topological order of defined names (dependencies first).

    Every axiom must be an equivalence with an atomic left-hand side.
    Raises MultipleDefinitionError on duplicate definitions and
    CycleError (carrying the cycle) on circular dependencies.
    """
    defs = {}
    for ax in tbox:
        if ax.kind != "equiv":
            raise ValueError(f"inclusion axiom not rewritten: {ax}")
        if ax.lhs.kind != S.ATOM:
            raise ValueError(f"definition with non-atomic left-hand side: {ax}")
        if ax.lhs.name in defs:
            raise MultipleDefinitionError(f"{ax.lhs.name} is defined twice")
        defs[ax.lhs.name] = ax.rhs

    deps = {name: sorted({s.name for s in S.subconcepts(rhs)
                          if s.kind == S.ATOM and s.name in defs})
            for name, rhs in defs.items()}
    try:
        return list(graphlib.TopologicalSorter(deps).static_order())
    except graphlib.CycleError as exc:
        # graphlib lists each name before the names that depend on it
        raise CycleError(exc.args[1][::-1]) from None


def substitute_concept(c: S.Concept, mapping: dict) -> S.Concept:
    """Replace every atom found in mapping by its image throughout the
    tree (images are assumed free of mapped atoms)."""
    def rebuild(t, *parts):
        if t.kind == S.ATOM:
            return mapping.get(t.name, t)
        if t.kind == S.MEET:
            return S.meet(*parts)
        if t.kind == S.JOIN:
            return S.join(*parts)
        return (S.box if t.kind == S.BOX else S.dia)(t.index, *parts)
    return S.fold(c, {}, rebuild)


def _tree_nodes(c: S.Concept, *parts) -> int:
    # a budget counts tree nodes: a concept's text is as long as its tree
    return 1 + sum(parts)


def definition_map(kb: KnowledgeBase, max_nodes: int = 1_000_000) -> dict:
    """Fully expanded definition for each defined name, or raise."""
    if not kb.tbox:
        return {}
    tbox = rewrite_all(kb)
    order = check_acyclic(tbox)
    raw = {ax.lhs.name: ax.rhs for ax in tbox}
    expanded, nodes = {}, {}
    total = 0
    for name in order:
        c = substitute_concept(raw[name], expanded)
        total += S.fold(c, nodes, _tree_nodes)
        if total > max_nodes:
            raise SizeLimitError(
                f"definition expansion exceeded {max_nodes} nodes")
        expanded[name] = c
    return expanded


def substitute_individual(ind: S.Individual, mapping: dict) -> S.Individual:
    """Rewrite defined names inside synthetic individual spellings."""
    if ind.kind == S.NAMED:
        return ind
    if ind.kind == S.CLASSIFIER:
        c = substitute_concept(ind.concept, mapping)
        return (S.classifier_obj(c) if ind.sort == S.OBJ
                else S.classifier_feat(c))
    base = substitute_individual(ind.base, mapping)
    ctor = {S.BLACK_DIA: S.black_diamond, S.ADJ_DIA: S.adj_diamond,
            S.ADJ_BOX: S.adj_box, S.BLACK_SQ: S.black_square}[ind.kind]
    return ctor(base, ind.index)


def substitute_assertion(a: S.Assertion, mapping: dict) -> S.Assertion:
    return S.map_assertion(a, lambda i: substitute_individual(i, mapping),
                           lambda c: substitute_concept(c, mapping))


def unravel(kb: KnowledgeBase, max_nodes: int = 1_000_000) -> frozenset:
    """Unravel the knowledge base into a plain assertion set.

    Output contains no defined name; a knowledge base with an empty TBox
    comes back unchanged.  For each definition, the classifier membership
    pair of its expanded right-hand side is included so the defined
    category exists in the saturated universe.
    """
    return expand_abox(kb.abox, definition_map(kb, max_nodes), max_nodes)


def expand_abox(abox, mapping: dict, max_nodes: int = 1_000_000) -> frozenset:
    """The ABox unraveled through mapping, a `definition_map`: every
    defined name replaced and each definition's creation pair added."""
    if not mapping:
        return frozenset(abox)
    out, nodes = set(), {}
    total = 0
    for a in abox:
        b = substitute_assertion(a, mapping)
        t = b.inner if b.kind == S.NEG else b
        if t.kind in (S.MEM_OBJ, S.MEM_FEAT):
            total += S.fold(t.concept, nodes, _tree_nodes)
            if total > max_nodes:
                raise SizeLimitError(
                    f"ABox expansion exceeded {max_nodes} nodes")
        out.add(b)
    present = S.occurring_concepts(out)
    for rhs in mapping.values():
        if rhs not in present:
            out.update(S.creation_terms(rhs))
    return frozenset(out)
