"""Dev aid: digest every saturation run over the 1,000-ABox fuzz corpus.

Run directly: PYTHONPATH=src python tests/dev_sequence_digest.py > digests.txt

For each ABox of the acceptance corpus it makes these runs:

  base     the engine's cached completion;
  sep      a separation query on every role (I and each box/dia role of
           the ABox), once for two objects and once for two features;
  ident    an identity query for the same object pair and feature pair;
  seprel   a relation separation query for box->I and box->dia at an
           object pivot, and dia->I and dia->box at a feature pivot;
  negsub   a negative subsumption query for the first pair of
           `fuzz.subsumption_pairs`, when the ABox has one;
  extras   one saturation with the rules of `fuzz.sample_extras`.

Every saturation is recorded by wrapping `tableaux.saturate`, so an
identity query contributes one line per role it tries.  Each line reads

    <abox> <run> <sequence digest> <set digest> <verdict>

The sequence digest hashes the rule label and the assertion of every
completion entry in order; the set digest hashes the sorted assertions.
An engine change that must keep the completion order keeps every
sequence digest; one that may reorder derivations keeps the set digests
and verdicts (compare with `cut -d' ' -f1,2,4,5`).

The engine resumes its extension queries from the cached completion
(`saturate(..., start=...)`).  A resumed run derives in another order
than a run from scratch, so its sequence digest differs; it keeps the
verdict, and the set digest when consistent (a clashing run may stop at
another partial set).  Each run given `start` is also made from scratch
and compared on just these; stderr reports the number of mismatches.
"""

import hashlib
import pathlib
import random
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))

import polardl as P
from polardl import syntax as S
from polardl import tableaux as T

import fuzz

CORPUS_SEED = 20240811       # as in test_acceptance.py
CORPUS_SIZE = 1000
I, BOX1, DIA1 = P.Role("I"), P.Role("box", 1), P.Role("dia", 1)


def _digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _line(comp):
    seq = _digest(f"{comp.provenance[a][0]}\t{a}" for a in comp.assertions)
    sset = _digest(sorted(map(str, comp.assertions)))
    verdict = "consistent" if comp.is_consistent else "clash"
    return seq, sset, verdict


def _names(abox, sort):
    return sorted((i for i in S.individuals_in(abox) if i.sort == sort),
                  key=str)


def printed(label, line) -> str:
    """The printed line of a run: its label, then its `_line`."""
    return " ".join([str(label[0]), label[1].replace(" ", ""), *line])


def each_run(corpus, visit):
    """Make the runs listed above for each ABox of the corpus, in order,
    calling visit(label, comp, again) after every saturation: label is
    (ABox number, run name), and again() makes the same run from scratch
    when it was given `start` (None otherwise)."""
    rng = random.Random(CORPUS_SEED + 2)
    label = None        # (abox number, run name) of the next saturation
    inner = T.saturate

    def recording(assertions, rules=T.BASE_RULES, **kwargs):
        comp = inner(assertions, rules, **kwargs)
        again = None
        if kwargs.pop("start", None) is not None:
            def again():
                return inner(assertions, rules, **kwargs)
        visit(label, comp, again)
        return comp

    T.saturate = recording
    try:
        for n, (abox, _) in enumerate(corpus):
            engine = P.QueryEngine(abox)
            label = (n, "base")
            engine.completion
            box_is, dia_is = engine._role_indices()
            roles = ([I] + [P.Role("box", i) for i in box_is]
                     + [P.Role("dia", i) for i in dia_is])
            pairs = [names[:2] for names in (_names(abox, S.OBJ),
                                             _names(abox, S.FEAT))
                     if len(names) >= 2]
            for first, second in pairs:
                for role in roles:
                    label = (n, f"sep:{role}:{first}:{second}")
                    engine.ask_separation(first, second, role)
                label = (n, f"ident:{first}:{second}")
                engine.ask_identity(first, second)
            for lhs, rhss, sort in ((BOX1, (I, DIA1), S.OBJ),
                                    (DIA1, (I, BOX1), S.FEAT)):
                for pivot in _names(abox, sort)[:1]:
                    for rhs in rhss:
                        label = (n, f"seprel:{lhs}:{rhs}:{pivot}")
                        engine.ask_relation_separation(lhs, rhs, pivot)
            for c1, c2 in fuzz.subsumption_pairs(abox)[:1]:
                label = (n, f"negsub:{c1}:{c2}")
                engine.ask_negative_subsumption(c1, c2)
            extras = fuzz.sample_extras(rng, abox)
            label = (n, "extras:" + ",".join(r.label for r in extras))
            T.saturate(abox, tuple(extras), max_steps=1_000_000)
    finally:
        T.saturate = inner


def main():
    count = resumed = mismatches = 0

    def visit(label, comp, again):
        nonlocal count, resumed, mismatches
        line = _line(comp)
        print(printed(label, line))
        count += 1
        if again is not None:
            _, sset, verdict = _line(again())
            resumed += 1
            if verdict != line[2] or (verdict == "consistent"
                                      and sset != line[1]):
                mismatches += 1

    each_run(fuzz.consistent_corpus(CORPUS_SEED, CORPUS_SIZE), visit)
    print("runs", count, file=sys.stderr)
    print("resumed", resumed, "differ from scratch", mismatches,
          file=sys.stderr)


if __name__ == "__main__":
    main()
