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

    def obj_mask(self, inds) -> int:
        out = 0
        for b in inds:
            i = self.obj_index.get(b)
            if i is None:
                raise UnknownNameError(f"unknown object {b}")
            out |= 1 << i
        return out

    def feat_mask(self, inds) -> int:
        out = 0
        for y in inds:
            i = self.feat_index.get(y)
            if i is None:
                raise UnknownNameError(f"unknown feature {y}")
            out |= 1 << i
        return out

    def index(self, ind) -> int:
        """The position of an individual in the carrier of its sort."""
        obj = ind.sort == S.OBJ
        i = (self.obj_index if obj else self.feat_index).get(ind)
        if i is None:
            raise UnknownNameError(
                f"unknown {'object' if obj else 'feature'} {ind}")
        return i

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

    def box_cols(self, i: int):
        cols = [0] * len(self.polarity.features)
        for bi, mask in enumerate(self.box_rows.get(i, [])):
            for yi in _bits(mask):
                cols[yi] |= 1 << bi
        return cols

    def dia_cols(self, i: int):
        cols = [0] * len(self.polarity.objects)
        for yi, mask in enumerate(self.dia_rows.get(i, [])):
            for bi in _bits(mask):
                cols[bi] |= 1 << yi
        return cols

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


def check_i_compatibility(m: Model) -> ICompatReport:
    """Verify that every row and column section of every box/dia relation
    is Galois-stable; reports the first failure."""
    p = m.polarity

    def stable_ext(mask):
        return p.down_mask(p.up_mask(mask)) == mask

    def stable_int(mask):
        return p.up_mask(p.down_mask(mask)) == mask

    for i, rows in sorted(m.box_rows.items()):
        for bi, row in enumerate(rows):
            if not stable_int(row):
                return ICompatReport(False,
                    f"Rbox{i} row of {p.objects[bi]} is not stable: "
                    f"{sorted(map(str, p.feat_set(row)))}")
        for yi, col in enumerate(m.box_cols(i)):
            if not stable_ext(col):
                return ICompatReport(False,
                    f"Rbox{i} column of {p.features[yi]} is not stable: "
                    f"{sorted(map(str, p.obj_set(col)))}")
    for i, rows in sorted(m.dia_rows.items()):
        for yi, row in enumerate(rows):
            if not stable_ext(row):
                return ICompatReport(False,
                    f"Rdia{i} row of {p.features[yi]} is not stable: "
                    f"{sorted(map(str, p.obj_set(row)))}")
        for bi, col in enumerate(m.dia_cols(i)):
            if not stable_int(col):
                return ICompatReport(False,
                    f"Rdia{i} column of {p.objects[bi]} is not stable: "
                    f"{sorted(map(str, p.feat_set(col)))}")
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
    """
    assertions = list(assertions)
    axioms = list(axioms)
    concepts = S.occurring_concepts(assertions).union(
        *(S.subconcepts(c) for pair in axioms for c in pair))
    obj_names = sorted({i for a in assertions for i in a.individuals()
                        if i.sort == S.OBJ}, key=str)
    feat_names = sorted({i for a in assertions for i in a.individuals()
                         if i.sort == S.FEAT}, key=str)
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
                o_map = dict(zip(obj_names, o_asg))
                for f_asg in _canonical_assignments(feat_names, n_feat):
                    f_map = dict(zip(feat_names, f_asg))
                    m = _search_with_assignment(
                        assertions, axioms, elems_o, elems_f, o_map, f_map,
                        atoms, box_idx, dia_idx, spend)
                    if m is not None:
                        return (m,
                                {b: elems_o[e] for b, e in o_map.items()},
                                {y: elems_f[e] for y, e in f_map.items()})
    return None


def _search_with_assignment(assertions, axioms, elems_o, elems_f, o_map,
                            f_map, atoms, box_idx, dia_idx, spend):
    n_obj, n_feat = len(elems_o), len(elems_f)
    cells = [(bi, yi) for bi in range(n_obj) for yi in range(n_feat)]
    forced_on = set()
    forced_off = set()
    def element(ind):
        if ind.sort == S.OBJ:
            return elems_o[o_map[ind]]
        return elems_f[f_map[ind]]

    translated = [S.map_assertion(a, element, lambda c: c)
                  for a in assertions]
    for t in translated:
        inner = t.inner if t.kind == S.NEG else t
        if inner.kind == S.REL_I:
            cell = (elems_o.index(inner.left), elems_f.index(inner.right))
            (forced_off if t.kind == S.NEG else forced_on).add(cell)
    if forced_on & forced_off:
        return None
    free = [c for c in cells if c not in forced_on and c not in forced_off]

    # per-atom literal constraints: bits forced into or out of the extent
    # (intent) by atomic membership terms
    atom_req = {name: [0, 0, 0, 0] for name in atoms}   # ext+, ext-, int+, int-
    role_req: dict = {}          # (kind, index) -> (on rows, off rows)
    for t in translated:
        inner = t.inner if t.kind == S.NEG else t
        pos = t.kind != S.NEG
        if inner.kind == S.MEM_OBJ and inner.concept.kind == S.ATOM:
            bit = 1 << elems_o.index(inner.ind)
            atom_req[inner.concept.name][0 if pos else 1] |= bit
        elif inner.kind == S.MEM_FEAT and inner.concept.kind == S.ATOM:
            bit = 1 << elems_f.index(inner.ind)
            atom_req[inner.concept.name][2 if pos else 3] |= bit
        elif inner.kind == S.REL_BOX:
            on, off = role_req.setdefault(("box", inner.index),
                                          ([0] * n_obj, [0] * n_obj))
            row = elems_o.index(inner.left)
            (on if pos else off)[row] |= 1 << elems_f.index(inner.right)
        elif inner.kind == S.REL_DIA:
            on, off = role_req.setdefault(("dia", inner.index),
                                          ([0] * n_feat, [0] * n_feat))
            row = elems_f.index(inner.left)
            (on if pos else off)[row] |= 1 << elems_o.index(inner.right)

    # direct contradictions are independent of the incidence choice
    for name in atoms:
        ep, em, ip, im = atom_req[name]
        if ep & em or ip & im:
            return None
    for on, off in role_req.values():
        if any(a & b for a, b in zip(on, off)):
            return None

    membership_terms = [t for t in translated
                        if (t.inner if t.kind == S.NEG else t).kind
                        in (S.MEM_OBJ, S.MEM_FEAT)]

    for choice in range(1 << len(free)):
        spend()
        pairs = set(forced_on)
        for k, cell in enumerate(free):
            if choice >> k & 1:
                pairs.add(cell)
        p = Polarity(elems_o, elems_f,
                     [(elems_o[bi], elems_f[yi]) for bi, yi in pairs])
        stable_pairs = [(e, p.up_mask(e)) for e in sorted(_stable_extents(p))]

        atom_choices = []
        for name in atoms:
            ep, em, ip, im = atom_req[name]
            ok = [pair for pair in stable_pairs
                  if pair[0] & ep == ep and pair[0] & em == 0
                  and pair[1] & ip == ip and pair[1] & im == 0]
            atom_choices.append(ok)
        if any(not ok for ok in atom_choices):
            continue
        stable_ints = sorted({i for _, i in stable_pairs})
        stable_exts = sorted({e for e, _ in stable_pairs})
        row_domains = {}
        feasible = True
        for key in [("box", i) for i in box_idx] + [("dia", i) for i in dia_idx]:
            kind, idx = key
            n_rows = n_obj if kind == "box" else n_feat
            domain = stable_ints if kind == "box" else stable_exts
            on, off = role_req.get(key, ([0] * n_rows, [0] * n_rows))
            rows = []
            for r in range(n_rows):
                cands = [s for s in domain
                         if s & on[r] == on[r] and s & off[r] == 0]
                if not cands:
                    feasible = False
                    break
                rows.append(cands)
            if not feasible:
                break
            row_domains[key] = rows
        if not feasible:
            continue

        m = _roles_then_check(p, atoms, atom_choices, membership_terms,
                              axioms, box_idx, dia_idx, row_domains, spend)
        if m is not None:
            return m
    return None


def _roles_then_check(p, atoms, atom_choices, membership_terms, axioms,
                      box_idx, dia_idx, row_domains, spend):
    def candidates(kind, indexes):
        if not indexes:
            yield {}
            return
        per_index = [list(product(*row_domains[(kind, i)])) for i in indexes]
        for combo in product(*per_index):
            yield {i: list(rows) for i, rows in zip(indexes, combo)}

    # role facts are satisfied by construction of the row domains, so
    # only I-compatibility (atom-independent), memberships and axioms
    # remain
    for box_rows in candidates("box", box_idx):
        for dia_rows in candidates("dia", dia_idx):
            spend()
            shell = Model(polarity=p, box_rows=box_rows, dia_rows=dia_rows)
            if not check_i_compatibility(shell):
                continue
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
