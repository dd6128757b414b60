"""Batch command-line front end.

Subcommands:

    check KB                 decide ABox consistency (exit 1 when inconsistent)
    ask KB <query flags>     answer one query (or --batch FILE for many)
    model KB [--csv]         export the saturated model
    trace KB                 dump the full derivation as JSON lines

Machine-readable output goes to stdout, diagnostics to stderr.  With
--format json every path prints a JSON document, including errors other
than argparse usage errors.  Identical invocations produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys

from .errors import PolardlError
from .parser import (parse_concept, parse_individual, parse_kb, parse_term,
                     KnowledgeBase)
from .queries import QueryEngine, _steps_payload
from .model import build_model, model_to_csv, model_to_dict
from .syntax import Role
from . import syntax as S


# the destinations of the query flags, at most one per query
_QUERIES = ("rel", "list_related", "member", "list_members", "subsume",
            "disj", "sep", "sep_rel", "dif", "identity", "equiv")
# modifier destination -> the queries it changes
_MODIFIERS = {"neg": ("rel", "member", "subsume"),
              "side": ("list_related", "list_members"),
              "include_synthetic": ("list_related", "list_members"),
              "role": ("dif",)}


def _query_flags() -> argparse.ArgumentParser:
    """The flags of one query, shared by `ask` and --batch lines."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--include-synthetic", action="store_true",
                   help="also list synthetic names (list queries)")
    p.add_argument("--neg", action="store_true",
                   help="negate a --rel/--member/--subsume query")
    p.add_argument("--side", default=None,
                   help="left|right for --list-related, extent|intent for --list-members")
    p.add_argument("--role", default=None, help="role for --dif (default I)")
    q = p.add_mutually_exclusive_group()
    q.add_argument("--rel", nargs=3, metavar=("LHS", "ROLE", "RHS"))
    q.add_argument("--list-related", nargs=2, metavar=("NAME", "ROLE"))
    q.add_argument("--member", nargs=2, metavar=("NAME", "CONCEPT"))
    q.add_argument("--list-members", nargs=1, metavar="CONCEPT")
    q.add_argument("--subsume", nargs=2, metavar=("C1", "C2"))
    q.add_argument("--disj", action="append", metavar="TERM",
                   help="repeatable positive term; true if any is entailed")
    q.add_argument("--sep", nargs=3, metavar=("ROLE", "FIRST", "SECOND"))
    q.add_argument("--sep-rel", nargs=3, metavar=("LHSROLE", "RHSROLE", "PIVOT"))
    q.add_argument("--dif", nargs=2, metavar=("FIRST", "SECOND"))
    q.add_argument("--identity", nargs=2, metavar=("FIRST", "SECOND"))
    q.add_argument("--equiv", metavar="OTHER_KB")
    return p


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _check_query(args, error):
    """Reject, through the parser's `error`, a modifier on a query it does
    not change, and a query flag or modifier beside --batch."""
    query = next((q for q in _QUERIES if getattr(args, q) is not None), None)
    given = [m for m in _MODIFIERS if getattr(args, m) not in (None, False)]
    if getattr(args, "batch", None) is not None and (query or given):
        error(f"{_flag(query or given[0])} is not allowed with --batch; "
              "put it on the batch lines")
    for m in given:
        if query not in _MODIFIERS[m]:
            error(f"{_flag(m)} applies only to "
                  + ", ".join(map(_flag, _MODIFIERS[m])))


class _LineParser(argparse.ArgumentParser):
    """Parses one --batch line: a bad line, -h included, raises instead of
    printing to stdout or exiting the process."""

    def __init__(self):
        super().__init__(prog="polardl ask --batch line", add_help=False,
                         parents=[_query_flags()])

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polardl", description="lattice description logic reasoner")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("kb", help="knowledge base file")
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--max-steps", type=int, default=None)

    p_check = sub.add_parser("check", help="decide ABox consistency")
    common(p_check)
    p_check.set_defaults(run=_cmd_check)
    p_check.add_argument("--trace", action="store_true",
                         help="include the full derivation")

    p_ask = sub.add_parser("ask", help="answer a query",
                           parents=[_query_flags()])
    common(p_ask)
    p_ask.set_defaults(run=_cmd_ask, usage_error=p_ask.error)
    p_ask.add_argument("--batch", metavar="FILE",
                       help="file of query lines, one query per line; "
                            "--trace applies to every line")

    p_model = sub.add_parser("model", help="export the saturated model")
    common(p_model)
    p_model.set_defaults(run=_cmd_model)
    p_model.add_argument("--csv", action="store_true",
                         help="incidence table instead of JSON")

    p_trace = sub.add_parser("trace", help="dump the derivation")
    common(p_trace)
    p_trace.set_defaults(run=_cmd_trace)
    return ap


# what bad input raises: OSError, a file that cannot be read (a KB or an
# --equiv file); ValueError, a role name or term the input cannot form;
# RecursionError, input nested deeper than the recursive parser and term
# walkers reach
_INPUT_ERRORS = (PolardlError, OSError, ValueError, RecursionError)


def _load(path: str) -> KnowledgeBase:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_kb(fh.read())


def _steps_lines(steps):
    return [f"  {i + 1}. [{s['rule']}] {', '.join(s['premises'])} "
            f"=> {s['added']}" for i, s in enumerate(steps)]


def _error_payload(exc) -> dict:
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


def _cmd_check(args, kb: KnowledgeBase, engine: QueryEngine) -> int:
    comp = engine.completion
    status = "consistent" if comp.is_consistent else "inconsistent"
    payload = {
        "command": "check",
        "status": status,
        "input_assertions": len(comp.input_assertions),
        "completion_size": len(comp.assertions),
        "rule_applications": dict(sorted(comp.stats.items())),
    }
    lines = [status,
             f"input assertions: {payload['input_assertions']}",
             f"completion size: {payload['completion_size']}"]
    if comp.clash is not None:
        term, negation = comp.clash
        steps = _steps_payload(comp.clash_certificate())
        payload["clash"] = {"term": str(term), "negation": str(negation),
                            "steps": steps}
        lines.append(f"clash: {term} vs {negation}")
        lines.extend(_steps_lines(steps))
    else:
        payload["clash"] = None
    if args.trace:
        payload["trace"] = _steps_payload(comp.steps())
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print("\n".join(lines))
    return 0 if comp.is_consistent else 1


def _run_ask_query(args, kb: KnowledgeBase, engine: QueryEngine) -> dict:
    neg = "negative-" if args.neg else ""
    if args.rel:
        lhs = parse_individual(args.rel[0], kb)
        role = Role.parse(args.rel[1])
        rhs = parse_individual(args.rel[2], kb)
        if args.neg:
            ans = engine.ask_negative_relational(S.rel(role, lhs, rhs))
        else:
            ans = engine.ask_relational(lhs, role, rhs)
        query = {"type": neg + "relational", "term": str(S.rel(role, lhs, rhs))}
    elif args.list_related:
        anchor = parse_individual(args.list_related[0], kb)
        role = Role.parse(args.list_related[1])
        side = args.side or "right"
        ans = engine.list_related(anchor, role, side,
                                  include_synthetic=args.include_synthetic)
        query = {"type": "list-related", "anchor": str(anchor),
                 "role": str(role), "side": side}
    elif args.member:
        ind = parse_individual(args.member[0], kb)
        concept = parse_concept(args.member[1], kb)
        ans = (engine.ask_negative_membership if args.neg
               else engine.ask_membership)(ind, concept)
        query = {"type": neg + "membership", "individual": str(ind),
                 "concept": str(concept)}
    elif args.list_members:
        concept = parse_concept(args.list_members[0], kb)
        side = args.side or "extent"
        ans = engine.list_members(concept, side,
                                  include_synthetic=args.include_synthetic)
        query = {"type": "list-members", "concept": str(concept),
                 "side": side}
    elif args.subsume:
        c1 = parse_concept(args.subsume[0], kb)
        c2 = parse_concept(args.subsume[1], kb)
        ans = (engine.ask_negative_subsumption if args.neg
               else engine.ask_subsumption)(c1, c2)
        query = {"type": neg + "subsumption", "c1": str(c1), "c2": str(c2)}
    elif args.disj:
        terms = [parse_term(t, kb) for t in args.disj]
        ans = engine.ask_disjunctive(terms)
        query = {"type": "disjunctive", "terms": [str(t) for t in terms]}
    elif args.sep:
        role = Role.parse(args.sep[0])
        first = parse_individual(args.sep[1], kb)
        second = parse_individual(args.sep[2], kb)
        ans = engine.ask_separation(first, second, role)
        query = {"type": "separation", "role": str(role),
                 "first": str(first), "second": str(second)}
    elif args.sep_rel:
        lhs = Role.parse(args.sep_rel[0])
        rhs = Role.parse(args.sep_rel[1])
        pivot = parse_individual(args.sep_rel[2], kb)
        ans = engine.ask_relation_separation(lhs, rhs, pivot)
        query = {"type": "relation-separation", "lhs": str(lhs),
                 "rhs": str(rhs), "pivot": str(pivot)}
    elif args.dif:
        first = parse_individual(args.dif[0], kb)
        second = parse_individual(args.dif[1], kb)
        role = args.role or "I"
        ans = engine.ask_differentiation(first, second, Role.parse(role))
        query = {"type": "differentiation", "first": str(first),
                 "second": str(second), "role": role}
    elif args.identity:
        first = parse_individual(args.identity[0], kb)
        second = parse_individual(args.identity[1], kb)
        ans = engine.ask_identity(first, second)
        query = {"type": "identity-distinguishable", "first": str(first),
                 "second": str(second)}
    elif args.equiv:
        other = QueryEngine(_load(args.equiv), max_steps=engine.max_steps)
        ans = engine.ask_equivalence(other)
        query = {"type": "equivalence", "other": args.equiv}
    else:
        raise PolardlError("no query flag given")
    payload = {"command": "ask", "query": query, "answer": ans.value}
    if args.trace and ans.certificate is not None:
        payload["certificate"] = ans.certificate
    return payload


def _cmd_ask(args, kb: KnowledgeBase, engine: QueryEngine) -> int:
    if args.batch:
        # a bad line gets an error record and the batch goes on; exit 2
        # when any line failed
        ap = _LineParser()
        with open(args.batch, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh
                     if ln.strip() and not ln.strip().startswith("#")]
        failed = False
        for line in lines:
            try:
                sub = ap.parse_args(shlex.split(line))
                _check_query(sub, ap.error)
                sub.trace = sub.trace or args.trace
                payload = _run_ask_query(sub, kb, engine)
            except (*_INPUT_ERRORS, argparse.ArgumentError) as exc:
                failed = True
                payload = _error_payload(exc)
                print(f"error: {line}: {exc}", file=sys.stderr)
            print(json.dumps(payload, sort_keys=True))
        return 2 if failed else 0
    payload = _run_ask_query(args, kb, engine)
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(json.dumps(payload["answer"], sort_keys=True))
        if args.trace and "certificate" in payload:
            cert = payload["certificate"]
            if cert.get("kind") == "clash":
                print("clash derivation:")
                for line in _steps_lines(cert["steps"]):
                    print(line)
            else:
                print(json.dumps(cert, sort_keys=True))
    return 0


def _cmd_model(args, kb: KnowledgeBase, engine: QueryEngine) -> int:
    m = build_model(engine.completion)
    if args.csv:
        sys.stdout.write(model_to_csv(m))
    else:
        payload = {"command": "model"}
        payload.update(model_to_dict(m))
        print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def _cmd_trace(args, kb: KnowledgeBase, engine: QueryEngine) -> int:
    for step in _steps_payload(engine.completion.steps()):
        print(json.dumps(step, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = _arg_parser().parse_args(argv)
    if args.command == "ask":
        _check_query(args, args.usage_error)
    try:
        kb = _load(args.kb)
        return args.run(args, kb, QueryEngine(kb, max_steps=args.max_steps))
    except _INPUT_ERRORS as exc:
        if getattr(args, "format", "text") == "json":
            print(json.dumps(_error_payload(exc), sort_keys=True))
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
