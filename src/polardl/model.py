"""Polarity models: Galois operators, concept evaluation, oracles.

A polarity is a formal context (objects, features, incidence).  The two
derivation operators

    up(B)   = features shared by every object in B
    down(Y) = objects having every feature in Y

form an antitone Galois connection; a formal concept is a pair
(extent, intent) with extent = down(intent) and intent = up(extent).
A model adds indexed box relations (objects x features) and dia
relations (features x objects), all required to be I-compatible (their
rows and columns are Galois-stable), plus interpretations for atomic
concepts.  Compound concepts evaluate as

    meet:  extent = e1 & e2,            intent = up(extent)
    join:  intent = i1 & i2,            extent = down(intent)
    box i: extent = {b : intent(c) subseteq Rbox_i[b]}, intent = up(extent)
    dia i: intent = {y : extent(c) subseteq Rdia_i[y]}, extent = down(intent)

Carrier subsets are bitmasks internally; the public API speaks frozensets
of individuals.  Models are immutable after construction and memoize
concept evaluation, so concurrent readers are safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .errors import (BudgetExceededError, ClashPresentError,
                     UnknownAtomError, UnknownNameError)
from . import syntax as S
from .tableaux import Completion


def _bits(mask: int):
    """The positions of the set bits of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Polarity:
    """A formal context over ordered carriers with a bitmask incidence."""

    def __init__(self, objects, features, pairs):
        self.objects = tuple(objects)
        self.features = tuple(features)
        self.obj_index = {b: i for i, b in enumerate(self.objects)}
        self.feat_index = {y: i for i, y in enumerate(self.features)}
        self.rows = [0] * len(self.objects)
        self.cols = [0] * len(self.features)
        for b, y in pairs:
            bi = self.obj_index[b]
            yi = self.feat_index[y]
            self.rows[bi] |= 1 << yi
            self.cols[yi] |= 1 << bi
        self.all_objects = (1 << len(self.objects)) - 1
        self.all_features = (1 << len(self.features)) - 1

    def up_mask(self, obj_mask: int) -> int:
        out = self.all_features
        for i in _bits(obj_mask):
            out &= self.rows[i]
        return out

    def down_mask(self, feat_mask: int) -> int:
        out = self.all_objects
        for i in _bits(feat_mask):
            out &= self.cols[i]
        return out

    def _position(self, sort, ind) -> int:
        """The position of an individual in the carrier of `sort`."""
        i = (self.obj_index if sort == S.OBJ else self.feat_index).get(ind)
        if i is None:
            raise UnknownNameError(
                f"unknown {'object' if sort == S.OBJ else 'feature'} {ind}")
        return i

    def _mask(self, sort, inds) -> int:
        out = 0
        for ind in inds:
            out |= 1 << self._position(sort, ind)
        return out

    def obj_mask(self, inds) -> int:
        return self._mask(S.OBJ, inds)

    def feat_mask(self, inds) -> int:
        return self._mask(S.FEAT, inds)

    def index(self, ind) -> int:
        """The position of an individual in the carrier of its sort."""
        return self._position(ind.sort, ind)

    def obj_set(self, mask: int) -> frozenset:
        return frozenset(self.objects[i] for i in _bits(mask))

    def feat_set(self, mask: int) -> frozenset:
        return frozenset(self.features[i] for i in _bits(mask))

    def has(self, b, y) -> bool:
        bi = self.obj_index.get(b)
        yi = self.feat_index.get(y)
        if bi is None or yi is None:
            raise UnknownNameError(f"unknown pair {b}, {y}")
        return bool(self.rows[bi] >> yi & 1)


def galois_up(p: Polarity, objs) -> frozenset:
    """Features common to every object in objs (all features for the
    empty set)."""
    return p.feat_set(p.up_mask(p.obj_mask(objs)))


def galois_down(p: Polarity, feats) -> frozenset:
    """Objects having every feature in feats."""
    return p.obj_set(p.down_mask(p.feat_mask(feats)))


@dataclass
class Model:
    """A polarity with indexed box/dia relations and atom interpretations.

    box_rows[i][bi] is the feature mask related to object bi under box
    role i; dia_rows[i][yi] the object mask under dia role i.  ``atoms``
    maps atom names to (extent mask, intent mask).
    """

    polarity: Polarity
    box_rows: dict = field(default_factory=dict)
    dia_rows: dict = field(default_factory=dict)
    atoms: dict = field(default_factory=dict)
    _memo: dict = field(default_factory=dict, repr=False)

    def interpret_mask(self, c: S.Concept):
        got = self._memo.get(c)
        if got is not None:
            return got
        p = self.polarity
        if c.kind == S.ATOM:
            if c.name not in self.atoms:
                raise UnknownAtomError(f"atom {c.name} is not interpreted")
            out = self.atoms[c.name]
        elif c.kind == S.MEET:
            e1, _ = self.interpret_mask(c.left)
            e2, _ = self.interpret_mask(c.right)
            ext = e1 & e2
            out = (ext, p.up_mask(ext))
        elif c.kind == S.JOIN:
            _, i1 = self.interpret_mask(c.left)
            _, i2 = self.interpret_mask(c.right)
            intent = i1 & i2
            out = (p.down_mask(intent), intent)
        elif c.kind == S.BOX:
            _, intent = self.interpret_mask(c.child)
            rows = self.box_rows.get(c.index, [0] * len(p.objects))
            ext = 0
            for bi, row in enumerate(rows):
                if intent & ~row == 0:
                    ext |= 1 << bi
            out = (ext, p.up_mask(ext))
        else:
            ext_c, _ = self.interpret_mask(c.child)
            rows = self.dia_rows.get(c.index, [0] * len(p.features))
            intent = 0
            for yi, row in enumerate(rows):
                if ext_c & ~row == 0:
                    intent |= 1 << yi
            out = (p.down_mask(intent), intent)
        self._memo[c] = out
        return out


def interpret_concept(m: Model, c: S.Concept):
    """(extent, intent) of a concept as frozensets of individuals."""
    ext, intent = m.interpret_mask(c)
    return m.polarity.obj_set(ext), m.polarity.feat_set(intent)


def check_satisfies(m: Model, t: S.Assertion) -> bool:
    """Literal evaluation of one ABox term in the model."""
    p = m.polarity
    if t.kind == S.NEG:
        return not check_satisfies(m, t.inner)
    if t.kind == S.REL_I:
        return p.has(t.left, t.right)
    if t.kind == S.MEM_OBJ or t.kind == S.MEM_FEAT:
        i = p.index(t.ind)
        ext, intent = m.interpret_mask(t.concept)
        return bool((ext if t.kind == S.MEM_OBJ else intent) >> i & 1)
    row, col = p.index(t.left), p.index(t.right)
    rows = (m.box_rows if t.kind == S.REL_BOX else m.dia_rows).get(t.index)
    return bool(rows and rows[row] >> col & 1)


# ---------------------------------------------------------------------------
# I-compatibility
# ---------------------------------------------------------------------------

@dataclass
class ICompatReport:
    ok: bool
    violation: str | None = None

    def __bool__(self):
        return self.ok


def _sides(p: Polarity):
    """The object and the feature carrier of p, each as (names, closure);
    the closure maps a mask over the carrier to its Galois closure."""
    return ((p.objects, lambda mask: p.down_mask(p.up_mask(mask))),
            (p.features, lambda mask: p.up_mask(p.down_mask(mask))))


def _unstable_section(rows, left, right) -> str | None:
    """The first row, then the first column, of one relation that is not
    Galois-stable, described; None if every section is stable.  The
    relation runs from carrier `left` to carrier `right`, each a
    (names, closure) pair of _sides: rows[k] is the mask over `right`
    related to left[k], and the columns are its transpose."""
    (l_names, l_close), (r_names, r_close) = left, right
    cols = [0] * len(r_names)
    for k, row in enumerate(rows):
        if r_close(row) != row:
            return (f"row of {l_names[k]} is not stable: "
                    f"{sorted(str(r_names[j]) for j in _bits(row))}")
        for j in _bits(row):
            cols[j] |= 1 << k
    for j, col in enumerate(cols):
        if l_close(col) != col:
            return (f"column of {r_names[j]} is not stable: "
                    f"{sorted(str(l_names[k]) for k in _bits(col))}")
    return None


def check_i_compatibility(m: Model) -> ICompatReport:
    """Verify that every row and column of every box/dia relation is
    Galois-stable; reports the first failure, box relations before dia
    relations, each in index order."""
    objs, feats = _sides(m.polarity)
    for name, relations, left, right in (("Rbox", m.box_rows, objs, feats),
                                         ("Rdia", m.dia_rows, feats, objs)):
        for i, rows in sorted(relations.items()):
            unstable = _unstable_section(rows, left, right)
            if unstable:
                return ICompatReport(False, f"{name}{i} {unstable}")
    return ICompatReport(True)


# ---------------------------------------------------------------------------
# Model construction from a completion
# ---------------------------------------------------------------------------

def build_model(c: Completion) -> Model:
    """The saturated model: carriers are all names occurring in the
    completion in order of first occurrence, then one isolated pair;
    relations are the derived facts, and each occurring atom D (in name
    order) is interpreted by the column of x_D and the row of a_D.

    The padding pair keeps empty relation sections Galois-stable (an
    empty object set is stable only when no object carries every
    feature), so the result is I-compatible by construction.
    """
    if c.clash is not None:
        raise ClashPresentError("cannot build a model from a clashed completion")
    objects, features = {}, {}
    for a in c.provenance:
        for ind in a.individuals():
            (objects if ind.sort == S.OBJ else features)[ind] = None
    if objects or features:
        objects[S.pad_obj()] = features[S.pad_feat()] = None
    p = Polarity(objects, features, [(a.left, a.right) for a in c.provenance
                                     if a.kind == S.REL_I])

    box_rows, dia_rows = {}, {}
    for a in c.provenance:
        if a.kind == S.REL_BOX:
            rows = box_rows.setdefault(a.index, [0] * len(objects))
            rows[p.obj_index[a.left]] |= 1 << p.feat_index[a.right]
        elif a.kind == S.REL_DIA:
            rows = dia_rows.setdefault(a.index, [0] * len(features))
            rows[p.feat_index[a.left]] |= 1 << p.obj_index[a.right]

    atoms = {}
    for concept in sorted((d for d in c.occurring if d.kind == S.ATOM),
                          key=lambda d: d.name):
        a_c = S.classifier_obj(concept)
        x_c = S.classifier_feat(concept)
        atoms[concept.name] = (p.cols[p.feat_index[x_c]],
                               p.rows[p.obj_index[a_c]])
    return Model(polarity=p, box_rows=box_rows, dia_rows=dia_rows, atoms=atoms)


# ---------------------------------------------------------------------------
# Formal-concept enumeration
# ---------------------------------------------------------------------------

def _stable_extents(p: Polarity) -> set:
    """Every Galois-stable extent of p as a mask: the closure of the empty
    feature set and its intersections with the feature columns."""
    extents = {p.down_mask(0)}
    frontier = list(extents)
    while frontier:
        ext = frontier.pop()
        for col in p.cols:
            nxt = ext & col
            if nxt not in extents:
                extents.add(nxt)
                frontier.append(nxt)
    return extents


def enumerate_formal_concepts(p: Polarity, max_cells: int = 2000):
    """All Galois-stable (extent, intent) pairs, ordered by extent size
    then display; guarded against large contexts."""
    if len(p.objects) * len(p.features) > max_cells:
        raise BudgetExceededError("context too large to enumerate")
    out = [(p.obj_set(e), p.feat_set(p.up_mask(e)))
           for e in _stable_extents(p)]
    out.sort(key=lambda pair: (len(pair[0]), sorted(map(str, pair[0]))))
    return out


# ---------------------------------------------------------------------------
# Bounded brute-force model search (test oracle)
# ---------------------------------------------------------------------------

def _canonical_assignments(names, size):
    """Assignments of names onto range(size), canonical up to symmetry of
    the unnamed carrier: first use of element k requires elements < k
    already used."""
    names = list(names)

    def rec(i, used):
        if i == len(names):
            yield ()
            return
        for e in range(min(used + 1, size)):
            for rest in rec(i + 1, max(used, e + 1)):
                yield (e,) + rest
    return rec(0, 0)


def bounded_model_search(assertions, max_objects: int = 3,
                         max_features: int = 3,
                         budget: int = 2_000_000, axioms=()):
    """Exhaustively search for a model over carriers up to the given
    sizes; returns (model, obj_map, feat_map) or None.  The model also
    satisfies each subsumption (c1, c2) in `axioms`: the extent of c1
    lies inside that of c2.

    Absence of a model at a bound does not prove inconsistency; this is
    a desk-scale oracle for cross-checking the saturation verdicts.
    Every individual name is treated as free, so pass assertion sets
    over named individuals only: a synthetic classifier name would lose
    its classifying meaning here.

    `budget` bounds the units of work; one unit is each incidence
    choice, each candidate relation of one role (a product of its rows'
    candidates, tested for I-compatibility on its own), each
    combination of one relation per role, and each combination of atom
    interpretations.  Past it, BudgetExceededError is raised.
    """
    assertions = list(assertions)
    axioms = list(axioms)
    concepts = S.occurring_concepts(assertions).union(
        *(S.subconcepts(c) for pair in axioms for c in pair))
    names = sorted(S.individuals_in(assertions), key=str)
    obj_names = [i for i in names if i.sort == S.OBJ]
    feat_names = [i for i in names if i.sort == S.FEAT]
    atoms = sorted({c.name for c in concepts if c.kind == S.ATOM})
    box_idx, dia_idx = S.role_indices(assertions, concepts)

    work = 0

    def spend(n=1):
        nonlocal work
        work += n
        if work > budget:
            raise BudgetExceededError("bounded model search budget exhausted")

    for n_obj in range(1, max_objects + 1):
        for n_feat in range(1, max_features + 1):
            elems_o = tuple(S.named_obj(f"_e{k}") for k in range(n_obj))
            elems_f = tuple(S.named_feat(f"_u{k}") for k in range(n_feat))
            for o_asg in _canonical_assignments(obj_names, n_obj):
                for f_asg in _canonical_assignments(feat_names, n_feat):
                    place = dict(zip(obj_names + feat_names, o_asg + f_asg))
                    m = _search_with_assignment(
                        assertions, axioms, elems_o, elems_f, place,
                        atoms, box_idx, dia_idx, spend)
                    if m is not None:
                        return (m,
                                {b: elems_o[place[b]] for b in obj_names},
                                {y: elems_f[place[y]] for y in feat_names})
    return None


def _search_with_assignment(assertions, axioms, elems_o, elems_f, place,
                            atoms, box_idx, dia_idx, spend):
    """The first model in which each name lies at its position in
    `place`, or None."""
    # literal constraints: bits forced into or out of an atom's extent
    # (False) or intent (True) by atomic membership terms, and into or
    # out of a row of I or of a role by relational terms
    req: dict = {}      # (atom, is_intent) or (kind, index, row) -> [on, off]
    for t in assertions:
        inner = t.inner if t.kind == S.NEG else t
        if inner.kind in S.RELATIONAL_KINDS:
            key = (inner.kind, inner.index, place[inner.left])
            bit = place[inner.right]
        elif inner.concept.kind == S.ATOM:
            key = (inner.concept.name, inner.kind == S.MEM_FEAT)
            bit = place[inner.ind]
        else:
            continue
        req.setdefault(key, [0, 0])[t.kind == S.NEG] |= 1 << bit
    # direct contradictions are independent of the incidence choice
    if any(on & off for on, off in req.values()):
        return None

    def fits(mask, key):
        on, off = req.get(key, (0, 0))
        return mask & on == on and mask & off == 0

    i_rows = [req.get((S.REL_I, None, bi), (0, 0))
              for bi in range(len(elems_o))]
    free = [(bi, yi) for bi, (on, off) in enumerate(i_rows)
            for yi in range(len(elems_f)) if not (on | off) >> yi & 1]

    def element(ind):
        return (elems_o if ind.sort == S.OBJ else elems_f)[place[ind]]

    membership_terms = [S.map_assertion(t, element, lambda c: c)
                        for t in assertions
                        if (t.inner if t.kind == S.NEG else t).kind
                        in (S.MEM_OBJ, S.MEM_FEAT)]

    for choice in range(1 << len(free)):
        spend()
        pairs = [(bi, yi) for bi, (on, _) in enumerate(i_rows)
                 for yi in _bits(on)]
        pairs += [cell for k, cell in enumerate(free) if choice >> k & 1]
        p = Polarity(elems_o, elems_f,
                     [(elems_o[bi], elems_f[yi]) for bi, yi in pairs])
        stable_pairs = [(e, p.up_mask(e)) for e in sorted(_stable_extents(p))]

        atom_choices = [[pair for pair in stable_pairs
                         if fits(pair[0], (name, False))
                         and fits(pair[1], (name, True))]
                        for name in atoms]
        if any(not ok for ok in atom_choices):
            continue

        # each role's relations: the products of its rows' candidates
        # that are I-compatible, in product order
        objs, feats = _sides(p)
        stable_ints = sorted({i for _, i in stable_pairs})
        stable_exts = sorted({e for e, _ in stable_pairs})
        role_choices = []
        for kind, idx, left, right, domain in (
                [(S.REL_BOX, i, objs, feats, stable_ints) for i in box_idx]
                + [(S.REL_DIA, i, feats, objs, stable_exts) for i in dia_idx]):
            row_cands = [[s for s in domain if fits(s, (kind, idx, r))]
                         for r in range(len(left[0]))]
            relations = []
            for rows in product(*row_cands):
                spend()
                if _unstable_section(rows, left, right) is None:
                    relations.append(list(rows))
            role_choices.append(relations)
            if not relations:
                break
        if not all(role_choices):
            continue

        # role facts and I-compatibility hold by construction of the role
        # choices, so only memberships and axioms remain
        for chosen in product(*role_choices):
            spend()
            box_rows = dict(zip(box_idx, chosen))
            dia_rows = dict(zip(dia_idx, chosen[len(box_idx):]))
            for combo in product(*atom_choices):
                spend()
                m = Model(polarity=p, box_rows=box_rows, dia_rows=dia_rows,
                          atoms=dict(zip(atoms, combo)))
                if (all(check_satisfies(m, t) for t in membership_terms)
                        and all(m.interpret_mask(c1)[0]
                                & ~m.interpret_mask(c2)[0] == 0
                                for c1, c2 in axioms)):
                    return m
    return None


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def _sorted_names(inds):
    return sorted(inds, key=lambda i: (i.is_synthetic, str(i)))


def model_to_dict(m: Model) -> dict:
    """Structured export: carriers, per-relation adjacency, atoms."""
    p = m.polarity
    objs = _sorted_names(p.objects)
    feats = _sorted_names(p.features)
    inc = {}
    for b in objs:
        row = p.rows[p.obj_index[b]]
        feats_of = sorted(str(y) for y in p.feat_set(row))
        if feats_of:
            inc[str(b)] = feats_of
    def rel_pairs(rows_by_index, left_carrier, right_carrier):
        out = {}
        for i, rows in sorted(rows_by_index.items()):
            pairs = []
            for li, mask in enumerate(rows):
                for ri in _bits(mask):
                    pairs.append([str(left_carrier[li]), str(right_carrier[ri])])
            out[str(i)] = sorted(pairs)
        return out
    atoms = {}
    for name, (ext, intent) in sorted(m.atoms.items()):
        atoms[name] = {"extent": sorted(str(b) for b in p.obj_set(ext)),
                       "intent": sorted(str(y) for y in p.feat_set(intent))}
    return {
        "objects": [str(b) for b in objs],
        "features": [str(y) for y in feats],
        "incidence": inc,
        "box_roles": rel_pairs(m.box_rows, p.objects, p.features),
        "dia_roles": rel_pairs(m.dia_rows, p.features, p.objects),
        "atoms": atoms,
    }


def model_to_csv(m: Model) -> str:
    """Incidence table: one row per object, one column per feature."""
    p = m.polarity
    objs = _sorted_names(p.objects)
    feats = _sorted_names(p.features)
    lines = ["," + ",".join(f'"{y}"' for y in map(str, feats))]
    for b in objs:
        row = p.rows[p.obj_index[b]]
        cells = ["1" if row >> p.feat_index[y] & 1 else "0" for y in feats]
        lines.append(f'"{b}",' + ",".join(cells))
    return "\n".join(lines) + "\n"
