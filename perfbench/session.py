"""One query-answering session in a fresh interpreter.

Usage: python3 perfbench/session.py SPEC_JSON [--trace]

Reads a workload written by ``run.py`` (KB file plus queries with their
expected answers), then pays each cost in the order a user does:

1. set-up: KB text -> ``parse_kb`` -> ``QueryEngine(kb)`` -> ``.completion``;
2. the first ``build_model`` of the base completion, ``model_to_dict``
   and JSON encoding: what ``polardl model`` does after set-up;
3. the lookup batch, answered from the cached completion;
4. the extension batch, each query saturating again.

Every answer is checked against its expected value.  The result is one
JSON object on stdout.  With ``--trace`` each call into a polardl layer
is recorded as a span and ``polardl.tableaux.saturate`` is wrapped so
that saturations become child spans of the query that started them; the
spans and the per-layer figures are part of the result, and every time
is wall time.  Without it no wrapper is installed, and each step is
timed in reference seconds by ``speed.Meter``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import speed
import workloads as W

import polardl as P
from polardl import tableaux as T

BASE_RULE_LABELS = ("input", "create", "I", "and_A", "or_X", "box", "dia",
                    "box_y", "bsq_y", "dia_b", "bdia_b", "and_inv", "or_inv",
                    "adj_box", "adj_dia", "neg_b", "neg_x", "append_x",
                    "append_a")


class Tracer:
    """In-memory spans: name, start, end, parent id and attributes."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.t0 = time.perf_counter()

    def open(self, name, **attrs):
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "start": time.perf_counter() - self.t0, "end": None,
                "attrs": attrs}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span, **attrs):
        span["end"] = time.perf_counter() - self.t0
        span["attrs"].update(attrs)
        self._stack.pop()

    def call(self, name, fn, *args):
        span = self.open(name)
        try:
            return fn(*args)
        finally:
            self.close(span)

    def wrap_saturate(self):
        inner = T.saturate

        def saturate(assertions, rules=T.BASE_RULES, **kwargs):
            span = self.open("tableaux.saturate")
            comp = inner(assertions, rules, **kwargs)
            self.close(span, facts=len(comp.assertions),
                       clash=not comp.is_consistent)
            return comp
        T.saturate = saturate

    def children(self, span):
        return [s for s in self.spans if s["parent"] == span["id"]]


def _bind(q, kb, engine):
    """The library call for one query, with its arguments parsed ahead
    of time so that the timed batch holds only the calls."""
    k, a = q["kind"], q["args"]
    ind = lambda name: P.parse_individual(name, kb)     # noqa: E731
    con = lambda text: P.parse_concept(text, kb)        # noqa: E731
    role = P.Role.parse
    if k == "rel":
        return engine.ask_relational, (ind(a[0]), role(a[1]), ind(a[2]))
    if k == "neg_rel":
        return engine.ask_negative_relational, (
            P.rel(role(a[1]), ind(a[0]), ind(a[2])),)
    if k == "list_related":
        return engine.list_related, (ind(a[0]), role(a[1]), a[2])
    if k == "member":
        return engine.ask_membership, (ind(a[0]), con(a[1]))
    if k == "neg_member":
        return engine.ask_negative_membership, (ind(a[0]), con(a[1]))
    if k == "list_members":
        return engine.list_members, (con(a[0]), a[1])
    if k == "subsume":
        return engine.ask_subsumption, (con(a[0]), con(a[1]))
    if k == "neg_subsume":
        return engine.ask_negative_subsumption, (con(a[0]), con(a[1]))
    if k == "disj":
        return engine.ask_disjunctive, ([P.parse_term(t, kb) for t in a],)
    if k == "sep":
        return engine.ask_separation, (ind(a[1]), ind(a[2]), role(a[0]))
    if k == "sep_rel":
        return engine.ask_relation_separation, (role(a[0]), role(a[1]),
                                                ind(a[2]))
    if k == "dif":
        return engine.ask_differentiation, (ind(a[0]), ind(a[1]), role(a[2]))
    if k == "identity":
        return engine.ask_identity, (ind(a[0]), ind(a[1]))
    raise ValueError(f"unknown query kind {k!r}")


def check_model(exported, want):
    """Problems with the exported model: input facts or atom memberships
    it lacks."""
    problems = []
    inc = exported["incidence"]
    for b, y in want["incidence"]:
        if y not in inc.get(b, ()):
            problems.append(f"model lacks {b} I {y}")
    for key, role in (("box", "box_roles"), ("dia", "dia_roles")):
        pairs = {(i, l, r) for i, ps in exported[role].items() for l, r in ps}
        for i, left, right in want[key]:
            if (str(i), left, right) not in pairs:
                problems.append(f"model lacks {left} R{key}{i} {right}")
    for name, sides in want["atoms"].items():
        got = exported["atoms"].get(name, {"extent": [], "intent": []})
        for side, members in sides.items():
            missing = set(members) - set(got[side])
            if missing:
                problems.append(f"model {side} of {name} lacks {sorted(missing)}")
    return problems


def _ask(calls):
    return [fn(*args) for fn, args in calls]


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def run_session(spec, trace=False):
    """Run one session; returns the result dict printed by ``main``."""
    with open(spec["kb_path"], encoding="utf-8") as fh:
        text = fh.read()
    tracer = Tracer() if trace else None
    if tracer:
        tracer.wrap_saturate()
        call = tracer.call
    else:
        call = lambda name, fn, *args: fn(*args)        # noqa: E731
    # the traced run reports wall times and takes no speed samples
    meter = speed.Meter(calibrate=not tracer)
    failures = []

    def note(problem):
        if len(failures) < 20:
            failures.append(problem)

    # 1. set-up
    def setup():
        kb = call("parser.parse_kb", P.parse_kb, text)
        engine = call("tbox.unravel", P.QueryEngine, kb)
        call("tableaux.completion", lambda: engine.completion)
        return kb, engine
    kb, engine = meter.run("setup", call, "session.setup", setup)
    attempted = 2 + len(spec["lookups"]) + len(spec["extension"])
    if not engine.completion.is_consistent:     # no query can be answered
        meter.stop()
        return {"setup_s": meter.reference["setup"], "attempted": attempted,
                "failed": attempted, "invariants": [],
                "failures": ["the knowledge base came out inconsistent"]}
    failed = 0
    invariants = []

    # 2. model export, where `polardl model` pays it: right after set-up
    def export():
        model = call("model.build_model", P.build_model, engine.completion)
        exported = call("model.model_to_dict", P.model_to_dict, model)
        blob = call("model.json", lambda: json.dumps(
            dict(exported, command="model"), sort_keys=True, indent=2))
        return model, exported, blob
    model, exported, blob = meter.run("model", call, "session.model", export)
    problems = check_model(exported, spec["model_check"])
    if problems:
        failed += 1
        note("; ".join(problems[:5]))
    export = {"objects": len(model.polarity.objects),
              "features": len(model.polarity.features),
              "bytes": len(blob.encode())}
    del model, exported, blob

    # 3. lookups, each asked once: no query in the batch may start a
    # saturation.  4. extension queries, each saturating again.
    batches = {}
    for name in ("lookups", "extension"):
        batches[name] = [_bind(q, kb, engine) for q in spec[name]]
        if tracer:
            batches[name] = [(call, ("queries." + q["kind"], fn) + args)
                             for q, (fn, args) in zip(spec[name], batches[name])]
    runs_before = engine.saturation_runs
    for name in ("lookups", "extension"):
        answers = meter.run(name, call, "session." + name, _ask, batches[name])
        if name == "lookups" and engine.saturation_runs != runs_before:
            invariants.append(f"the lookup batch started "
                              f"{engine.saturation_runs - runs_before} "
                              f"saturations")
        for q, ans in zip(spec[name], answers):
            if not W.answer_ok(q["expect"], ans.value):
                failed += 1
                note(f"{q['kind']} {q['args']}: got {ans.value!r}, "
                     f"expected {q['expect']!r}")
    runs = engine.saturation_runs
    meter.stop()

    result = {
        "setup_s": meter.reference["setup"],
        "model_s": meter.reference["model"],
        "lookup_s": meter.reference["lookups"],
        "lookups": len(spec["lookups"]),
        "extension_s": meter.reference["extension"],
        "wall": meter.wall,
        "attempted": attempted, "failed": failed, "failures": failures,
        "invariants": invariants,
    }
    if tracer:
        span = tracer.open("tableaux.saturate_warm")
        T.saturate(engine.abox)
        tracer.close(span)
        result["layers"] = _layers(tracer, engine, kb, export, runs)
        result["spans"] = tracer.spans
    return result


def _layers(tracer, engine, kb, export, runs):
    """Per-layer figures of one traced session."""
    spans = tracer.spans
    dur = lambda s: s["end"] - s["start"]              # noqa: E731
    first = {}
    for s in spans:
        first.setdefault(s["name"], s)
    base = tracer.children(first["tableaux.completion"])[0]
    comp = engine.completion
    out = {
        "parser.parse_s": dur(first["parser.parse_kb"]),
        "parser.assertions": len(kb.abox),
        "tbox.unravel_s": dur(first["tbox.unravel"]),
        "tbox.unraveled_assertions": len(engine.abox),
        "tableaux.saturate_s": dur(base),
        "tableaux.facts": len(comp.assertions),
        "tableaux.facts_per_s": len(comp.assertions) / dur(base),
        "tableaux.saturate_warm_s": dur(tracer.children(
            first["tableaux.saturate_warm"])[0]),
        "tableaux.runs": runs,
        "model.build_s": dur(first["model.build_model"]),
        "model.export_s": dur(first["model.model_to_dict"])
                          + dur(first["model.json"]),
        "model.objects": export["objects"],
        "model.features": export["features"],
        "model.export_bytes": export["bytes"],
    }
    for label in BASE_RULE_LABELS:
        out[f"tableaux.added.{label}"] = comp.stats.get(label, 0)
    per_kind = {}
    for s in spans:
        if s["name"].startswith("queries."):
            per_kind.setdefault(s["name"][len("queries."):], []).append(s)
    names = {"rel": "relational", "member": "membership",
             "subsume": "subsumption", "disj": "disjunctive",
             "neg_rel": "neg_relational", "list_related": "list_related",
             "list_members": "list_members"}
    for kind, name in names.items():
        out[f"queries.{name}_us"] = 1e6 * _median(
            [dur(s) for s in per_kind.get(kind, [])])
    names = {"neg_member": "neg_membership", "neg_subsume": "neg_subsumption",
             "sep": "separation", "sep_rel": "relation_separation",
             "dif": "differentiation", "identity": "identity"}
    clash, noclash, self_s = [], [], 0.0
    for kind, name in names.items():
        group = per_kind.get(kind, [])
        out[f"queries.{name}_s"] = _median([dur(s) for s in group])
        for s in group:
            sats = [c for c in tracer.children(s)
                    if c["name"] == "tableaux.saturate"]
            (clash if any(c["attrs"]["clash"] for c in sats)
             else noclash).append(dur(s))
            self_s += dur(s) - sum(dur(c) for c in sats)
    out["queries.extension_clash_s"] = _median(clash)
    out["queries.extension_noclash_s"] = _median(noclash)
    out["queries.extension_self_s"] = self_s
    return out


def main(argv):
    with open(argv[0], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run_session(spec, trace="--trace" in argv[1:])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
