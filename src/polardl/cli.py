"""Batch command-line front end.

Subcommands:

    check KB                 decide ABox consistency (exit 1 when inconsistent)
    ask KB <query flags>     answer one query (or --batch FILE for many)
    model KB [--csv]         export the saturated model
    trace KB                 dump the full derivation as JSON lines

Machine-readable output goes to stdout, diagnostics to stderr.  With
--format json every path prints a JSON document, errors included: a usage
error prints argparse's message on stderr and an `ArgumentError` record on
stdout.  Identical invocations produce byte-identical output.

One table, `_FLAGS`, holds the flags of a query: a query flag's row gives
its arity, argument kinds, modifiers, engine call and query record, and
`ask` and the --batch line parser are built from it.  A --batch line
skips argparse when `_plain_line` reads it: bare or single-quoted words
apart by spaces, every flag spelled in full, no argument starting with
"-".  Any other line goes through `shlex.split` and argparse, which stays
the only source of usage errors.
"""

from __future__ import annotations

import argparse
import json
import re
import shlex
import sys
from functools import cache
from itertools import cycle
from typing import Callable, NamedTuple

from .errors import PolardlError
from .parser import (parse_concept, parse_individual, parse_kb, parse_term,
                     KnowledgeBase)
from .queries import QueryEngine, _steps_payload
from .model import build_model, model_to_csv, model_to_dict
from .syntax import Role
from . import syntax as S


class _Flag(NamedTuple):
    """A flag of a query line; a query flag has `ask` and `record`."""
    dest: str                       # "list_related" for --list-related
    nargs: int | str | None = None  # argparse's; 0 a switch, "append" --disj
    metavar: str | tuple[str, ...] | None = None
    kinds: str = ""                 # letters of `read`, cycled over args
    modifiers: tuple[str, ...] = ()  # the modifiers that change the query
    ask: Callable | None = None     # (engine, args, *values) -> Answer
    record: Callable | None = None  # (args, *values) -> the query record
    help: str | None = None


def _record(args, spec: str, *values) -> dict:
    """The query record: `spec` holds its type, then a key per value."""
    kind, *keys = spec.split()
    return {"type": "negative-" + kind if args.neg else kind,
            **{key: str(value) for key, value in zip(keys, values)}}


_FLAGS = (  # in usage order
    _Flag("trace", 0),
    _Flag("include_synthetic", 0,
          help="also list synthetic names (list queries)"),
    _Flag("neg", 0, help="negate a --rel/--member/--subsume query"),
    _Flag("side", help="left|right for --list-related, "
                       "extent|intent for --list-members"),
    _Flag("role", help="role for --dif (default I)"),
    _Flag("rel", 3, ("LHS", "ROLE", "RHS"), "iri", ("neg",),
          lambda e, a, l, r, h: e.ask_negative_relational(S.rel(r, l, h))
          if a.neg else e.ask_relational(l, r, h),
          lambda a, l, r, h: _record(a, "relational term", S.rel(r, l, h))),
    _Flag("list_related", 2, ("NAME", "ROLE"), "ir",
          ("side", "include_synthetic"),
          lambda e, a, x, r: e.list_related(
              x, r, a.side or "right", include_synthetic=a.include_synthetic),
          lambda a, x, r: _record(a, "list-related anchor role side", x, r,
                                  a.side or "right")),
    _Flag("member", 2, ("NAME", "CONCEPT"), "ic", ("neg",),
          lambda e, a, x, c: (e.ask_negative_membership if a.neg
                              else e.ask_membership)(x, c),
          lambda a, x, c: _record(a, "membership individual concept", x, c)),
    _Flag("list_members", 1, "CONCEPT", "c", ("side", "include_synthetic"),
          lambda e, a, c: e.list_members(
              c, a.side or "extent", include_synthetic=a.include_synthetic),
          lambda a, c: _record(a, "list-members concept side", c,
                               a.side or "extent")),
    _Flag("subsume", 2, ("C1", "C2"), "cc", ("neg",),
          lambda e, a, c1, c2: (e.ask_negative_subsumption if a.neg
                                else e.ask_subsumption)(c1, c2),
          lambda a, c1, c2: _record(a, "subsumption c1 c2", c1, c2)),
    _Flag("disj", "append", "TERM", "t", (),
          lambda e, a, *terms: e.ask_disjunctive(terms),
          lambda a, *ts: {"type": "disjunctive", "terms": [str(t) for t in ts]},
          "repeatable positive term; true if any is entailed"),
    _Flag("sep", 3, ("ROLE", "FIRST", "SECOND"), "rii", (),
          lambda e, a, r, x, y: e.ask_separation(x, y, r),
          lambda a, *v: _record(a, "separation role first second", *v)),
    _Flag("sep_rel", 3, ("LHSROLE", "RHSROLE", "PIVOT"), "rri", (),
          lambda e, a, r1, r2, x: e.ask_relation_separation(r1, r2, x),
          lambda a, *v: _record(a, "relation-separation lhs rhs pivot", *v)),
    _Flag("dif", 2, ("FIRST", "SECOND"), "ii", ("role",),
          lambda e, a, x, y: e.ask_differentiation(
              x, y, Role.parse(a.role or "I")),
          lambda a, x, y: _record(a, "differentiation first second role",
                                  x, y, a.role or "I")),
    _Flag("identity", 2, ("FIRST", "SECOND"), "ii", (),
          lambda e, a, x, y: e.ask_identity(x, y),
          lambda a, *v: _record(a, "identity-distinguishable first second", *v)),
    _Flag("equiv", None, "OTHER_KB", "f", (),
          lambda e, a, path: e.ask_equivalence(
              QueryEngine(_load(path), max_steps=e.max_steps)),
          lambda a, path: _record(a, "equivalence other", path)),
)
_QUERIES = tuple(f for f in _FLAGS if f.ask)
# modifier -> the queries it changes, in the order _check_query tests them
_MODIFIERS = {m: [q.dest for q in _QUERIES if m in q.modifiers]
              for f in _QUERIES for m in f.modifiers}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _query_flags(cls=argparse.ArgumentParser) -> argparse.ArgumentParser:
    """The flags of one query, shared by `ask` and --batch lines."""
    p = cls(add_help=False)
    queries = p.add_mutually_exclusive_group()
    for f in _FLAGS:
        how = ({"action": "store_true"} if f.nargs == 0
               else {"action": "append", "metavar": f.metavar}
               if f.nargs == "append" else
               {"nargs": f.nargs, "metavar": f.metavar})
        (queries if f.ask else p).add_argument(_flag(f.dest), help=f.help,
                                               **how)
    return p


def _check_query(args, error):
    """Reject, through the parser's `error`, a modifier on a query it does
    not change, and a query flag or modifier beside --batch."""
    query = next((q.dest for q in _QUERIES
                  if getattr(args, q.dest) is not None), None)
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

    def error(self, message):
        raise argparse.ArgumentError(None, message)


# a plain line: bare and single-quoted words, apart from each other by spaces
_WORD = r"""([^ '"\\\t\r\n]+)|'([^']*)'"""
_PLAIN = re.compile(f"(?:{_WORD})(?: +(?:{_WORD}))*")
_WORDS = re.compile(_WORD)
_BY_FLAG = {_flag(f.dest): f for f in _FLAGS}


def _plain_line(line: str):
    """The Namespace `_LineParser` gives for a plain line when argparse
    has nothing to resolve in it: every flag spelled in full, one query
    flag and no argument that starts with "-".  None for any other line."""
    if not _PLAIN.fullmatch(line):
        return None
    words = [word or quoted for word, quoted in _WORDS.findall(line)]
    args = {f.dest: False if f.nargs == 0 else None for f in _FLAGS}
    query, i = None, 0
    while i < len(words):
        f = _BY_FLAG.get(words[i])
        count = 1 if f is None or f.nargs in (None, "append") else f.nargs
        values = words[i + 1:i + 1 + count]
        if f is None or len(values) < count or (f.ask and query not in (
                None, f.dest)) or any(v.startswith("-") for v in values):
            return None
        query = f.dest if f.ask else query
        # argparse keeps the last of a repeated flag, appends for --disj
        args[f.dest] = (True if f.nargs == 0 else values[0] if f.nargs is None
                        else (args[f.dest] or []) + values
                        if f.nargs == "append" else values)
        i += 1 + count
    return argparse.Namespace(**args)


class _ArgvParser(argparse.ArgumentParser):
    """Parses the command line: a usage error prints what argparse prints,
    then raises instead of exiting, so that main can add a JSON record."""

    def error(self, message):
        # a subcommand's error reaches the top-level parser too: print once
        raised = sys.exc_info()[1]
        if not getattr(raised, "printed", False):
            self.print_usage(sys.stderr)
            print(f"{self.prog}: error: {message}", file=sys.stderr)
            raised = argparse.ArgumentError(None, message)
            raised.printed = True
        raise raised


def _arg_parser() -> argparse.ArgumentParser:
    ap = _ArgvParser(
        prog="polardl", description="lattice description logic reasoner")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, text, run, parents in (
            ("check", "decide ABox consistency", _cmd_check, []),
            ("ask", "answer a query", _cmd_ask, [_query_flags()]),
            ("model", "export the saturated model", _cmd_model, []),
            ("trace", "dump the derivation", _cmd_trace, [])):
        p = sub.add_parser(name, help=text, parents=parents)
        p.add_argument("kb", help="knowledge base file")
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--max-steps", type=int, default=None)
        p.set_defaults(run=run, usage_error=p.error)
    sub.choices["check"].add_argument("--trace", action="store_true",
                                      help="include the full derivation")
    sub.choices["ask"].add_argument(
        "--batch", metavar="FILE", help="file of query lines, one query per "
        "line; --trace applies to every line")
    sub.choices["model"].add_argument("--csv", action="store_true",
                                      help="incidence table instead of JSON")
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


def _run_ask_query(args, kb: KnowledgeBase, engine: QueryEngine,
                   concept=None) -> dict:
    read = {"i": lambda text: parse_individual(text, kb), "r": Role.parse,
            "c": concept or (lambda text: parse_concept(text, kb)),
            "t": lambda text: parse_term(text, kb), "f": str}
    q = next((q for q in _QUERIES if getattr(args, q.dest) is not None),
             None)
    if q is None:
        raise PolardlError("no query flag given")
    given = getattr(args, q.dest)
    texts = [given] if q.nargs is None else given
    values = [read[kind](text) for kind, text in zip(cycle(q.kinds), texts)]
    ans = q.ask(engine, args, *values)
    payload = {"command": "ask", "query": q.record(args, *values),
               "answer": ans.value}
    if args.trace and ans.certificate is not None:
        payload["certificate"] = ans.certificate
    return payload


def _cmd_ask(args, kb: KnowledgeBase, engine: QueryEngine) -> int:
    if args.batch:
        # a bad line gets an error record, the batch goes on, exit code 2;
        # each concept text is parsed once, if it parses
        concept = cache(lambda text: parse_concept(text, kb))
        ap = _query_flags(_LineParser)
        with open(args.batch, "r", encoding="utf-8") as fh:
            lines = [ln for ln in map(str.strip, fh)
                     if ln and not ln.startswith("#")]
        failed = False
        for line in lines:
            try:
                sub = _plain_line(line) or ap.parse_args(shlex.split(line))
                _check_query(sub, ap.error)
                sub.trace = sub.trace or args.trace
                payload = _run_ask_query(sub, kb, engine, concept)
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
                print("\n".join(["clash derivation:",
                                 *_steps_lines(cert["steps"])]))
            else:
                print(json.dumps(cert, sort_keys=True))
    return 0


def _cmd_model(args, kb: KnowledgeBase, engine: QueryEngine) -> int:
    m = build_model(engine.completion)
    if args.csv:
        sys.stdout.write(model_to_csv(m))
    else:
        print(json.dumps({"command": "model", **model_to_dict(m)},
                         sort_keys=True, indent=2))
    return 0


def _cmd_trace(args, kb: KnowledgeBase, engine: QueryEngine) -> int:
    for step in _steps_payload(engine.completion.steps()):
        print(json.dumps(step, sort_keys=True))
    return 0


def main(argv=None) -> int:
    try:
        args = _arg_parser().parse_args(argv)
        if args.command == "ask":
            _check_query(args, args.usage_error)
    except argparse.ArgumentError as exc:
        # printed; with --format json (as argparse reads it) a record too
        only_format = _LineParser(add_help=False)
        only_format.add_argument("--format", nargs="?")
        if only_format.parse_known_args(argv)[0].format == "json":
            print(json.dumps(_error_payload(exc), sort_keys=True))
        return 2
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
