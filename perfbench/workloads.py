"""Workload generators for the polardl benchmark.

Each generator turns a seed into one query-answering session: a
knowledge base in polardl's surface syntax, a batch of lookup queries
(answered from the cached base completion), a batch of extension queries
(each one saturates again with extra terms or rules), and the expected
answer of every query.

Expected answers never come from polardl.  They are either planted by
construction (a bare feature that only one object reaches, twins that no
negation mentions) or computed by ``Oracle``, a Whitman-style decision
procedure for the free lattice with monotone box/dia operators, applied
to the generator's own concept tuples.  The calculus also knows that
box_i distributes over meets and dia_i over joins, which that procedure
does not; the two can differ on ``s <= t`` only where two different
box_i terms meet on the left or two different dia_i terms join on the
right.  ``Oracle.leq`` refuses such a pair, so a generator that leaves
this fragment fails instead of planting a wrong answer.

Concepts are tuples: ("atom", name), ("and", l, r), ("or", l, r),
("box", i, c), ("dia", i, c).  Facts are tuples: ("mem", ind, concept),
("I", obj, feat), ("box", i, obj, feat), ("dia", i, feat, obj), and
("not", fact).

The number of queries of every kind is fixed per workload: only which
names and facts they mention depends on the seed.
"""

from __future__ import annotations

import collections
import random
import shlex
from itertools import product

WORKLOADS = ("ladder", "wide", "omqa")


# -- concepts ------------------------------------------------------------------

def atom(name):
    return ("atom", name)


def meet(left, right):
    return ("and", left, right)


def join(left, right):
    return ("or", left, right)


def render(c):
    """Surface syntax of a concept tuple.  Binary children are bracketed
    unless they continue a right-nested chain of the same operator."""
    kind = c[0]
    if kind == "atom":
        return c[1]
    if kind in ("box", "dia"):
        child = render(c[2])
        if c[2][0] in ("and", "or"):
            child = f"({child})"
        return f"{kind}{c[1]} {child}"
    left, right = render(c[1]), render(c[2])
    if c[1][0] in ("and", "or"):
        left = f"({left})"
    if c[2][0] in ("and", "or") and c[2][0] != kind:
        right = f"({right})"
    return f"{left} {kind} {right}"


def subconcepts(c):
    out = {c}
    if c[0] in ("and", "or"):
        out |= subconcepts(c[1]) | subconcepts(c[2])
    elif c[0] in ("box", "dia"):
        out |= subconcepts(c[2])
    return out


def atoms_of(c):
    return {s[1] for s in subconcepts(c) if s[0] == "atom"}


def substitute(c, target, replacement):
    """Replace every occurrence of the subtree ``target`` in ``c``."""
    if c == target:
        return replacement
    if c[0] in ("and", "or"):
        return (c[0], substitute(c[1], target, replacement),
                substitute(c[2], target, replacement))
    if c[0] in ("box", "dia"):
        return (c[0], c[1], substitute(c[2], target, replacement))
    return c


def _one_per_role(c, op):
    """Is at most one distinct ``op`` term per role index reachable from
    ``c`` through meets and joins, and likewise inside every box and dia
    argument?  On the left of ``<=`` for box and on the right for dia,
    this keeps the normality identities (``box_i x and box_i y =
    box_i (x and y)``, ``dia_i (x or y) = dia_i x or dia_i y``) from
    relating the two sides."""
    found = {}

    def walk(x):
        if x[0] in ("and", "or"):
            return walk(x[1]) and walk(x[2])
        if x[0] in ("box", "dia"):
            if x[0] == op and found.setdefault(x[1], x) != x:
                return False
            return _one_per_role(x[2], op)
        return True
    return walk(c)


class Oracle:
    """Decides ``s <= t`` in the free lattice over the atoms, extended by
    monotone box/dia operators (Whitman's conditions).  Only pairs on
    which normal operators would agree are decided."""

    def __init__(self):
        self._memo = {}

    def leq(self, s, t):
        if not (_one_per_role(s, "box") and _one_per_role(t, "dia")):
            raise ValueError(f"{render(s)} <= {render(t)}: normality could "
                             f"relate the two sides")
        return self._leq(s, t)

    def _leq(self, s, t):
        key = (s, t)
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = self._decide(s, t)
        return got

    def _decide(self, s, t):
        leq = self._leq
        if s == t:
            return True
        if s[0] == "or":
            return leq(s[1], t) and leq(s[2], t)
        if t[0] == "and":
            return leq(s, t[1]) and leq(s, t[2])
        if s[0] == "and" and (leq(s[1], t) or leq(s[2], t)):
            return True
        if t[0] == "or" and (leq(s, t[1]) or leq(s, t[2])):
            return True
        if s[0] in ("box", "dia") and s[0] == t[0] and s[1] == t[1]:
            return leq(s[2], t[2])
        return False

    def member(self, types, c):
        """Is an object asserted in every concept of ``types`` in ``c``?"""
        return self.leq(_meet_all(types), c)

    def feat_member(self, types, c):
        """Is a feature asserted in every concept of ``types`` in the
        intent of ``c``?  Intents are antitone: ``c <= join(types)``."""
        return bool(types) and self.leq(c, _join_all(types))


def _meet_all(cs):
    out = cs[-1]
    for c in reversed(cs[:-1]):
        out = meet(c, out)
    return out


def _join_all(cs):
    out = cs[-1]
    for c in reversed(cs[:-1]):
        out = join(c, out)
    return out


# -- facts and queries -----------------------------------------------------------

def render_fact(f, objects):
    kind = f[0]
    if kind == "not":
        return "not " + render_fact(f[1], objects)
    if kind == "mem":
        return term(f[1], f[2], objects)
    if kind == "I":
        return f"{f[1]} I {f[2]}"
    if kind == "box":
        return f"{f[2]} Rbox{f[1]} {f[3]}"
    return f"{f[2]} Rdia{f[1]} {f[3]}"


def render_kb(objects, features, tbox, facts):
    """KB text: role and name declarations, TBox lines, sorted ABox."""
    lines = ["roles box 2 dia 2."]
    lines.append("obj " + " ".join(objects) + ".")
    if features:
        lines.append("feat " + " ".join(features) + ".")
    lines += [f"{name} {kind} {render(c)}." for name, kind, c in tbox]
    objects = set(objects)
    lines += sorted(render_fact(f, objects) + "." for f in facts)
    return "\n".join(lines) + "\n"


def rel_args(f):
    """A relational fact as the (left, role, right) arguments of a query."""
    if f[0] == "I":
        return [f[1], "I", f[2]]
    if f[0] == "box":
        return [f[2], f"Rbox{f[1]}", f[3]]
    return [f[2], f"Rdia{f[1]}", f[3]]


def term(ind, c, objects):
    """A membership term: ``b : C`` for objects, ``y :: C`` for features."""
    return f"{ind} {':' if ind in objects else '::'} {render(c)}"


def query(kind, args, expect):
    return {"kind": kind, "args": list(args), "expect": expect}


def cli_line(q):
    """The ``polardl ask`` argument line for one query."""
    k, a = q["kind"], q["args"]
    if k == "rel":
        parts = ["--rel", *a]
    elif k == "neg_rel":
        parts = ["--neg", "--rel", *a]
    elif k == "list_related":
        parts = ["--list-related", a[0], a[1], "--side", a[2]]
    elif k == "member":
        parts = ["--member", *a]
    elif k == "neg_member":
        parts = ["--neg", "--member", *a]
    elif k == "list_members":
        parts = ["--list-members", a[0], "--side", a[1]]
    elif k == "subsume":
        parts = ["--subsume", *a]
    elif k == "neg_subsume":
        parts = ["--neg", "--subsume", *a]
    elif k == "disj":
        parts = [x for t in a for x in ("--disj", t)]
    elif k == "sep":
        parts = ["--sep", *a]
    elif k == "sep_rel":
        parts = ["--sep-rel", *a]
    elif k == "dif":
        parts = ["--dif", a[0], a[1], "--role", a[2]]
    elif k == "identity":
        parts = ["--identity", *a]
    else:
        raise ValueError(f"unknown query kind {k!r}")
    return " ".join(shlex.quote(p) for p in parts)


def answer_ok(expect, value):
    """Does one answer value meet its expectation?"""
    if isinstance(expect, dict):
        if not isinstance(value, list):
            return False
        if "exact" in expect:
            return sorted(value) == sorted(expect["exact"])
        return set(expect["includes"]) <= set(value)
    return value is expect


def _model_check(facts, objects, defined=()):
    """What the exported model must contain: every positive input
    relational fact and every input membership in an undefined atom."""
    inc, box, dia, atoms = [], [], [], {}
    for f in facts:
        if f[0] == "I":
            inc.append([f[1], f[2]])
        elif f[0] == "box":
            box.append([f[1], f[2], f[3]])
        elif f[0] == "dia":
            dia.append([f[1], f[2], f[3]])
        elif f[0] == "mem" and f[2][0] == "atom" and f[2][1] not in defined:
            side = "extent" if f[1] in objects else "intent"
            entry = atoms.setdefault(f[2][1], {"extent": [], "intent": []})
            entry[side].append(f[1])
    return {"incidence": sorted(inc), "box": sorted(box), "dia": sorted(dia),
            "atoms": {k: {s: sorted(v) for s, v in e.items()}
                      for k, e in sorted(atoms.items())}}


def _sample(rng, items, k):
    """``rng.sample`` capped at the population.  At the default sizes
    every population is far larger than k, so counts never vary."""
    return rng.sample(items, min(k, len(items)))


def _distinct(k, draw):
    """``k`` distinct results of ``draw()``, in the order drawn.  Only for
    populations far larger than k."""
    seen, out = set(), []
    while len(out) < k:
        x = draw()
        if x not in seen:
            seen.add(x)
            out.append(x)
    return out


def _deck(rng, names):
    """A draw of one name at a time, each name once per shuffled pass, so
    that every name ends up with about the same number of facts."""
    deck = []

    def draw():
        if not deck:
            deck.extend(rng.sample(names, len(names)))
        return deck.pop()
    return draw


def _workload(name, seed, kb, lookups, extension, facts, objects,
              defined=()):
    keys = [(q["kind"], tuple(q["args"])) for q in lookups + extension]
    assert len(set(keys)) == len(keys), f"{name}: a query is asked twice"
    return {"name": name, "seed": seed, "kb": kb, "lookups": lookups,
            "extension": extension,
            "model_check": _model_check(facts, set(objects), set(defined))}


# -- ladder ------------------------------------------------------------------------

LADDER_N = 1920


def ladder(seed, n=LADDER_N):
    """The c6 ``ladder_abox`` family drawn from ``seed``: n distinct
    assertions over n/5 objects and n/5 features, modal depth two, box
    and dia roles 1-2, no TBox and no negation."""
    rng = random.Random(seed)
    n_names = max(2, n // 5)
    objs = [f"o{k}" for k in range(n_names)]
    feats = [f"u{k}" for k in range(n_names)]
    a = [atom(f"A{k}") for k in range(4)]
    pool = [a[0], a[1], meet(a[2], a[3]), join(a[0], a[1]),
            ("box", 1, a[0]), ("dia", 1, a[1]),
            ("box", 1, meet(a[2], a[3])), ("dia", 2, join(a[0], a[1])),
            ("box", 2, ("dia", 1, a[0]))]
    # c6 draws each assertion's kind and concept at random.  Here kinds
    # take turns and concepts and role indices cycle, so that every seed
    # gives the same mix and about the same number of derived facts; the
    # seed draws which names each assertion relates.
    facts, order = set(), []
    step = 0
    obj, feat = _deck(rng, objs), _deck(rng, feats)
    while len(facts) < n:
        k, c = step % 5, pool[(step // 5) % len(pool)]
        i = 1 + (step // 5) % 2
        step += 1
        if k == 0:
            f = ("mem", obj(), c)
        elif k == 1:
            f = ("mem", feat(), c)
        elif k == 2:
            f = ("I", obj(), feat())
        elif k == 3:
            f = ("box", i, obj(), feat())
        else:
            f = ("dia", i, feat(), obj())
        if f not in facts:
            facts.add(f)
            order.append(f)

    objects = set(objs)
    rels = [f for f in order if f[0] in ("I", "box", "dia")]
    mems = [f for f in order if f[0] == "mem"]
    oracle = Oracle()
    concepts = sorted(set().union(*(subconcepts(c) for c in pool)), key=render)

    lookups = []
    for f in _sample(rng, rels, 400):
        lookups.append(query("rel", rel_args(f), True))
    for f in _sample(rng, rels, 200):
        lookups.append(query("neg_rel", rel_args(f), False))
    for f in _sample(rng, mems, 200):
        lookups.append(query("member", [f[1], render(f[2])], True))
    for c1 in concepts:
        for c2 in concepts:
            lookups.append(query("subsume", [render(c1), render(c2)],
                                 oracle.leq(c1, c2)))
    for f1, f2 in _distinct(100, lambda: tuple(rng.sample(mems, 2))):
        lookups.append(query("disj", [term(f1[1], f1[2], objects),
                                      term(f2[1], f2[2], objects)], True))
    # list_related: every input partner of the anchor must be listed
    partners = {}
    for f in rels:
        args = rel_args(f)
        partners.setdefault((args[0], args[1], "right"), set()).add(args[2])
        partners.setdefault((args[2], args[1], "left"), set()).add(args[0])
    for key in _sample(rng, sorted(partners), 32):
        lookups.append(query("list_related", list(key),
                             {"includes": sorted(partners[key])}))
    for c in rng.sample(pool, 6):
        for side in ("extent", "intent"):
            want = objects if side == "extent" else set(feats)
            lookups.append(query("list_members", [render(c), side], {
                "includes": sorted({f[1] for f in mems
                                    if f[2] == c and f[1] in want})}))
    rng.shuffle(lookups)

    # extension queries copy one name's facts to another, so their cost
    # follows the names' degrees: take names of median degree
    degree = collections.Counter(x for f in facts for x in f[1:]
                                 if isinstance(x, str))
    by_degree = lambda names: sorted(                   # noqa: E731
        names, key=lambda x: (degree[x], rng.random()))
    o1, o2 = by_degree(objs)[n_names // 2 - 1:n_names // 2 + 1]
    u1, u2 = by_degree(feats)[n_names // 2 - 1:n_names // 2 + 1]
    extension = [query("dif", [u1, u2, "I"], False),
                 query("sep", ["I", o1, o2], False)]
    kb = render_kb(objs, feats, [], facts)
    return _workload("ladder", seed, kb, lookups, extension, facts, objs)


# -- wide ----------------------------------------------------------------------------

WIDE_N = 100


def wide(seed, n=WIDE_N):
    """``b : D0 and ... and D{n-1}`` plus ``c : D0``, with the conjunct
    order drawn from ``seed``.  ``C1 sub C2`` holds exactly when the
    atoms of C2 are a subset of the atoms of C1."""
    rng = random.Random(seed)
    names = [f"D{k}" for k in range(n)]
    rng.shuffle(names)
    suffixes = [atom(names[-1])]
    for name in reversed(names[:-1]):
        suffixes.append(meet(atom(name), suffixes[-1]))
    concepts = [atom(x) for x in names] + suffixes[1:]
    atom_sets = {c: atoms_of(c) for c in concepts}
    first = atom(names[0])
    facts = {("mem", "b", suffixes[-1]), ("mem", "c", first)}
    objects = {"b", "c"}

    lookups = []
    for c in concepts:
        lookups.append(query("member", ["b", render(c)], True))
        lookups.append(query("member", ["c", render(c)], c == first))
    # half the pairs among c1's own subconcepts, half among the rest
    index = {c: k for k, c in enumerate(concepts)}
    below = {(index[c1], index[c2]) for c1 in concepts
             for c2 in subconcepts(c1)}
    other = [p for p in product(range(len(concepts)), repeat=2)
             if p not in below]
    pairs = _sample(rng, sorted(below), 3000) + _sample(rng, other, 3000)
    for c1, c2 in ((concepts[i], concepts[j]) for i, j in pairs):
        lookups.append(query("subsume", [render(c1), render(c2)],
                             atom_sets[c2] <= atom_sets[c1]))
    for c in [first] + _sample(rng, concepts[1:], 99):
        lookups.append(query("list_members", [render(c), "extent"], {
            "exact": ["b", "c"] if c == first else ["b"]}))
    for who, c1, c2 in _distinct(500, lambda: (rng.choice(["b", "c"]),
                                               *rng.sample(concepts, 2))):
        lookups.append(query("disj", [term(who, c1, objects),
                                      term("c", c2, objects)],
                             who == "b" or first in (c1, c2)))
    rng.shuffle(lookups)

    extension = [query("dif", ["b", "c", "I"], False),
                 query("neg_member", ["c", rng.choice(names[1:])], False)]
    kb = render_kb(["b", "c"], [], [], facts)
    return _workload("wide", seed, kb, lookups, extension, facts, ["b", "c"])


# -- omqa ----------------------------------------------------------------------------

OMQA_OBJECTS = 200
OMQA_FEATURES = 200


# The TBox template over atom slots a0-a11: the seed permutes the atoms,
# so every seed gets the same TBox up to renaming.
OMQA_LEVEL1 = (("and", 0, 1), ("and", 2, 3), ("and", 4, 5), ("and", 1, 6),
               ("or", 7, 8), ("or", 2, 9), ("or", 10, 11),
               ("box", 1, 3), ("box", 2, 8), ("dia", 1, 5))
OMQA_LEVEL2 = (("and", "E0", "E1"), ("and", "E7", "E3"), ("and", "E4", 4),
               ("and", "E9", 0), ("or", "E2", 7), ("or", "E5", "E6"))
OMQA_INCLUSIONS = ("E1", "F0", "E8", "F4")


def omqa(seed, n_obj=OMQA_OBJECTS, n_feat=OMQA_FEATURES):
    """Ontology-mediated query answering over an acyclic TBox.

    TBox: ten first-level definitions E0-E9 over twelve atoms (meets,
    joins, box and dia of an atom), six second-level definitions F0-F5
    over those, and four inclusions S0-S3.  ABox: ordinary objects and
    features with memberships in those names, random incidence and role
    facts, and planted individuals whose separation, differentiation,
    identity and negative answers are known by construction.

    Memberships are dealt out evenly over the names and every ordinary
    individual gets the same number of facts, so that the amount of
    derived work stays about the same from seed to seed.
    """
    rng = random.Random(seed)
    oracle = Oracle()
    atoms = [atom(f"A{k}") for k in range(12)]
    slot = atoms[:]
    rng.shuffle(slot)
    raw = {}
    tbox = []

    def operand(x):
        return atom(x) if isinstance(x, str) else slot[x]

    for k, (kind, x, y) in enumerate(OMQA_LEVEL1):
        rhs = (kind, x, slot[y]) if kind in ("box", "dia") else \
            (kind, slot[x], slot[y])
        raw[f"E{k}"] = rhs
        tbox.append((f"E{k}", "equiv", rhs))
    for k, (kind, x, y) in enumerate(OMQA_LEVEL2):
        raw[f"F{k}"] = (kind, operand(x), operand(y))
        tbox.append((f"F{k}", "equiv", raw[f"F{k}"]))
    for k, rhs in enumerate(OMQA_INCLUSIONS):
        raw[f"S{k}"] = ("and", atom(rhs), atom(f"#G{k}"))  # the fresh conjunct
        tbox.append((f"S{k}", "sub", atom(rhs)))

    def expand(c):
        if c[0] == "atom":
            return expand(raw[c[1]]) if c[1] in raw else c
        if c[0] in ("and", "or"):
            return (c[0], expand(c[1]), expand(c[2]))
        return (c[0], c[1], expand(c[2]))

    names = atoms + [atom(x) for x in raw]
    exp = {c: expand(c) for c in names}

    objs = [f"o{k}" for k in range(n_obj)]
    feats = [f"f{k}" for k in range(n_feat)]
    facts = set()
    otypes = {}         # object -> asserted names
    ftypes = {}         # feature -> asserted names

    def assert_obj(o, cs):
        otypes[o] = list(cs)
        for c in cs:
            facts.add(("mem", o, c))

    deal = names[:]
    rng.shuffle(deal)
    for k, o in enumerate(objs):
        first = deal[k % len(deal)]
        second = deal[(k // 3 + 7) % len(deal)]
        assert_obj(o, [first, second] if k % 3 == 0 and second != first
                   else [first])
    rng.shuffle(deal)
    for k, f in enumerate(feats):
        ftypes[f] = [deal[k % len(deal)]]
        facts.add(("mem", f, ftypes[f][0]))
    for k, o in enumerate(objs):
        for f in rng.sample(feats, 2):
            facts.add(("I", o, f))
        if k % 2 == 0:
            facts.add(("box", 1 + k // 2 % 2, o, rng.choice(feats)))
    dias = []
    for k, f in enumerate(feats):
        if k % 2 == 0:
            dias.append(("dia", 1 + k // 2 % 2, f, rng.choice(objs)))
    facts.update(dias)

    # planted separations: sa I sz and not sb I sz on a bare feature sz
    pairs = []
    for k in range(4):
        sa, sb, sz = f"sa{k}", f"sb{k}", f"sz{k}"
        assert_obj(sa, [rng.choice(names)])
        assert_obj(sb, [rng.choice(names)])
        facts.add(("I", sa, sz))
        facts.add(("not", ("I", sb, sz)))
        for who in (sa, sb):
            facts.add(("I", who, rng.choice(feats)))
        pairs.append((sa, sb, sz))
    # twins: identical positive facts, no negation anywhere
    twins = []
    for k in range(3):
        ta, tb = f"tw{k}a", f"tw{k}b"
        cs = rng.sample(names, 2)
        linked = rng.sample(feats, 3)
        for t in (ta, tb):
            assert_obj(t, cs)
            for f in linked:
                facts.add(("I", t, f))
            facts.add(("box", 1, t, linked[0]))
        twins.append((ta, tb))
    # negated memberships: not nm : N with the asserted type x not below
    # N.  The first two x lie below some other atom, so that folding
    # that atom into N clashes; some atom occurs in no x and no N, so
    # that folding it clashes nowhere.  The four N differ, so that no
    # negative subsumption below is asked twice.
    while True:
        negated = []
        while len(negated) < 4:
            x, n = rng.choice(names), rng.choice(atoms)
            if oracle.leq(exp[x], n) or n in (m for _, _, m in negated) or (
                    len(negated) < 2 and not any(
                        a != n and oracle.leq(exp[x], a) for a in atoms)):
                continue
            negated.append((f"nm{len(negated)}", x, n))
        used = set().union(*(atoms_of(exp[x]) | {n[1]} for _, x, n in negated))
        if len(used) < len(atoms):
            break
    for nm, x, n in negated:
        assert_obj(nm, [x])
        facts.add(("not", ("mem", nm, n)))
    # relation separation: rp Rbox1 rz with not rp I rz; rw Rdia1 rq with
    # not rq I rw; rz and rw are bare
    for k in range(2):
        facts.add(("box", 1, f"rp{k}", f"rz{k}"))
        facts.add(("not", ("I", f"rp{k}", f"rz{k}")))
        facts.add(("dia", 1, f"rw{k}", f"rq{k}"))
        facts.add(("not", ("I", f"rq{k}", f"rw{k}")))
        assert_obj(f"rp{k}", [rng.choice(names)])
        assert_obj(f"rq{k}", [rng.choice(names)])

    all_objs = (objs + [x for p in pairs for x in p[:2]]
                + [t for tw in twins for t in tw] + [n[0] for n in negated]
                + [f"rp{k}" for k in range(2)] + [f"rq{k}" for k in range(2)])
    all_feats = (feats + [p[2] for p in pairs] + [f"rz{k}" for k in range(2)]
                 + [f"rw{k}" for k in range(2)])
    objects = set(all_objs)
    occurring = set()
    for c in exp.values():
        occurring |= subconcepts(c)
    for f in facts:
        f = f[1] if f[0] == "not" else f
        if f[0] == "mem":
            occurring |= subconcepts(exp[f[2]])
    qnames = [c for c in names if exp[c] in occurring]

    def is_member(o, c):
        return oracle.member([exp[t] for t in otypes[o]], exp[c])

    def is_feat_member(f, c):
        return oracle.feat_member([exp[t] for t in ftypes.get(f, [])], exp[c])

    lookups = []
    positive_rels = sorted(f for f in facts if f[0] in ("I", "box", "dia"))

    for f in _sample(rng, positive_rels, 400):
        lookups.append(query("rel", rel_args(f), True))
    # the I rule: b : C and y :: C give b I y; nothing else relates two
    # names without an input fact
    shared, unrelated = [], []
    for o in objs:
        for f in feats:
            if ("I", o, f) not in facts:
                (shared if is_member(o, ftypes[f][0])
                 else unrelated).append((o, f))
    for o, f in _sample(rng, shared, 600) + _sample(rng, unrelated, 600):
        lookups.append(query("rel", [o, "I", f], (o, f) in shared))
    # a bare feature is reached only by its planted fact
    bare = [(who, sz) for sa, sb, sz in pairs for who in objs + [sb]]
    for who, sz in _sample(rng, bare, 200):
        lookups.append(query("rel", [who, "I", sz], False))
    for k in range(2):
        for o in _sample(rng, objs, 10):
            lookups.append(query("rel", [o, "Rbox1", f"rz{k}"], False))

    members, non_members = [], []
    for o in all_objs:
        for c in qnames:
            (members if is_member(o, c) else non_members).append((o, c))
    for o, c in _sample(rng, members, 700) + _sample(rng, non_members, 2500):
        lookups.append(query("member", [o, render(c)], is_member(o, c)))
    for c1 in qnames:
        for c2 in qnames:
            lookups.append(query("subsume", [render(c1), render(c2)],
                                 oracle.leq(exp[c1], exp[c2])))
    for picks in _distinct(800, lambda: tuple(
            (rng.choice(all_objs), rng.choice(qnames)) for _ in range(2))):
        lookups.append(query("disj", [term(o, c, objects) for o, c in picks],
                             any(is_member(o, c) for o, c in picks)))
    negatives = [rel_args(f[1]) for f in sorted(facts)
                 if f[0] == "not" and f[1][0] != "mem"]
    for args in negatives:
        lookups.append(query("neg_rel", args, True))
    for f in _sample(rng, positive_rels, 300):
        lookups.append(query("neg_rel", rel_args(f), False))
    for o, f in _sample(rng, shared + unrelated, 300):
        lookups.append(query("neg_rel", [o, "I", f], False))

    partners = {}
    for f in positive_rels:
        a = rel_args(f)
        partners.setdefault((a[0], a[1], "right"), set()).add(a[2])
        partners.setdefault((a[2], a[1], "left"), set()).add(a[0])
    for key in _sample(rng, sorted(k for k in partners if k[0] in objs), 80) + \
            _sample(rng, sorted(k for k in partners if k[0] in feats), 154):
        lookups.append(query("list_related", list(key),
                             {"includes": sorted(partners[key])}))
    for sa, sb, sz in pairs:
        lookups.append(query("list_related", [sz, "I", "left"], {"exact": [sa]}))
    for k in range(2):
        lookups.append(query("list_related", [f"rz{k}", "Rbox1", "left"],
                             {"exact": [f"rp{k}"]}))
    for c in qnames:
        lookups.append(query("list_members", [render(c), "extent"], {
            "exact": sorted(o for o in all_objs if is_member(o, c))}))
        lookups.append(query("list_members", [render(c), "intent"], {
            "exact": sorted(f for f in all_feats if is_feat_member(f, c))}))
    rng.shuffle(lookups)

    # extension queries: eleven clash, eleven do not
    extension = []
    neg_facts = [(nm, n) for nm, _, n in negated]
    for k, (nm, x, n) in enumerate(negated):
        if k < 2:       # any concept below the negated atom clashes
            c = rng.choice([c for c in qnames if oracle.leq(exp[c], n)])
        else:
            c = rng.choice([c for c in qnames if not oracle.leq(
                meet(exp[x], exp[c]), n)])
        extension.append(query("neg_member", [nm, render(c)],
                               oracle.leq(meet(exp[x], exp[c]), n)))

    def subsumption_clashes(c1, c2):
        """Does folding c1 sub c2 into the ABox contradict a negated
        membership?  c1 is rewritten to (c2 and G) everywhere."""
        repl = meet(c2, atom("#G"))
        return any(oracle.leq(substitute(_meet_all([exp[t] for t in otypes[nm]]),
                                         c1, repl),
                              substitute(n, c1, repl))
                   for nm, n in neg_facts)

    for nm, x, n in negated[:2]:
        c1 = rng.choice([a for a in atoms
                         if a != n and oracle.leq(exp[x], a)])
        extension.append(query("neg_subsume", [render(c1), render(n)],
                               subsumption_clashes(c1, n)))
    for k in range(2):
        n = negated[2 + k][2]
        free = [a for a in atoms if a != n and not subsumption_clashes(a, n)]
        c1 = rng.choice(free)
        extension.append(query("neg_subsume", [render(c1), render(n)], False))

    extension += [
        query("sep", ["I", pairs[0][0], pairs[0][1]], True),
        query("sep", ["I", pairs[1][0], pairs[1][1]], True),
        query("sep", ["I", pairs[2][1], pairs[2][0]], False),
        query("sep", ["I", *twins[0]], False),
        query("sep_rel", ["Rbox1", "I", "rp0"], True),
        query("sep_rel", ["Rdia1", "I", "rw0"], True),
        query("sep_rel", ["Rbox1", "I", twins[1][0]], False),
        query("sep_rel", ["Rdia1", "I", rng.choice(sorted(
            {f[2] for f in dias if f[1] == 1}))], False),
        query("dif", [pairs[1][0], pairs[1][1], "I"], True),
        query("dif", [pairs[3][1], pairs[3][0], "I"], True),
        query("dif", [*twins[0], "I"], False),
        query("dif", [*twins[2], "I"], False),
        query("identity", [pairs[2][0], pairs[2][1]], True),
        query("identity", list(twins[1]), False),
    ]
    kb = render_kb(all_objs, all_feats, tbox, facts)
    return _workload("omqa", seed, kb, lookups, extension, facts, all_objs,
                     raw)


def build(name, seed, **sizes):
    return {"ladder": ladder, "wide": wide, "omqa": omqa}[name](seed, **sizes)
