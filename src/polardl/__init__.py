"""Reasoner for a two-sorted lattice-based description logic.

Individuals come in two sorts (objects and features); concepts live in
the lattice of formal concepts of a polarity enriched with box/dia
modal relations.  The package decides ABox consistency by saturation,
builds the saturated universal model, and answers relationship,
membership, subsumption, disjunctive, negative, equivalence, separation,
differentiation and identity queries.
"""

from . import errors
from .syntax import (Concept, Individual, Assertion, Role, DepthProfile,
                     atom, meet, join, box, dia,
                     named_obj, named_feat, classifier_obj, classifier_feat,
                     black_diamond, adj_diamond, adj_box, black_square,
                     rel_i, rel_box, rel_dia, rel, member, neg,
                     subconcepts, occurring_concepts,
                     depth_profile)
from .parser import (KnowledgeBase, TBoxAxiom, parse_kb, serialize_kb,
                     parse_concept, parse_term, parse_individual)
from .tbox import check_acyclic, unravel, definition_map
from .tableaux import (BASE_RULES, Completion, saturate, CopyRule,
                       RelationInclusionRule, SubsumptionRule)
from .model import (Polarity, Model, build_model, galois_up, galois_down,
                    interpret_concept, check_satisfies, check_i_compatibility,
                    bounded_model_search, enumerate_formal_concepts,
                    model_to_dict, model_to_csv)
from .queries import QueryEngine, Answer

__all__ = [name for name in dir() if not name.startswith("_")]
