"""Command-line front end.

Subcommands: phi, q, graph, verify-main, criterion, tables, sweep.
`--group` takes a group spec, whose grammar `groups.FiniteGroup.from_spec`
describes and parses.  Every integer on the command line, in a spec, a range
or a flag, is ASCII digits with an optional leading minus sign.

Exit status: 0 on success / all verdicts passing, 1 when any verdict
fails (a counterexample is printed: on stderr for `verify-main --format
csv`, whose rows carry no verdicts), 2 on usage errors and on a group too
large to build in memory.

`run(argv)` may be called many times in one process. It builds the
argument parser once, on the first call, and reuses it on every later call:
argparse returns a fresh namespace from every parse and parsing leaves the
parser unchanged. Each subcommand's parser names its handler. A handler
returns its text and the verdicts it decided, each with a `passed` flag
(none for phi, q and graph); `run` dispatches to the handler, decides the
exit status from those verdicts and writes the text once, to stdout or to
`--out`.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import sys
from collections.abc import Iterable
from functools import partial

from . import numtheory, powergraph, verify
from .groups import DEFAULT_ORDER_CAP, FiniteGroup, OrderCapError, SpecError, _ascii_int, _shown


def parse_group_spec(spec: str, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Build a group from its spec string: `FiniteGroup.from_spec`."""
    return FiniteGroup.from_spec(spec, cap)


def _int_flag(text: str) -> int:
    """An integer flag's value, read by `_ascii_int`; argparse names the flag
    and the fault of a bad one, not the function that read it."""
    try:
        return _ascii_int(text)
    except SpecError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise SpecError(f"bad range {_shown(text)}: expected A..B")
    start, stop = _ascii_int(lo), _ascii_int(hi)
    if stop < start:
        raise SpecError(f"empty range {_shown(text)}")
    return start, stop


def _emit(text: str, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise SpecError(f"cannot write {out_path}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _json(payload) -> str:
    return json.dumps(payload, sort_keys=True) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupsum",
        description="Totient sums, power graphs, and exact verification for finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats, handler):
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", default=None, help="write output to a file")
        p.add_argument("--cap", type=_int_flag, default=DEFAULT_ORDER_CAP,
                       help="maximum constructible group order")
        p.set_defaults(handler=handler)

    p_phi = sub.add_parser("phi", help="totient sum of a group, or of C_n via --n")
    source = p_phi.add_mutually_exclusive_group(required=True)
    source.add_argument("--group")
    source.add_argument("--n", type=_int_flag)
    common(p_phi, ["text", "json"], _cmd_phi)

    p_q = sub.add_parser("q", help="the rational Q of n, reduced")
    p_q.add_argument("--n", type=_int_flag, required=True)
    common(p_q, ["text", "json"], _cmd_q)

    p_graph = sub.add_parser("graph", help="directed power graph of a group")
    p_graph.add_argument("--group", required=True)
    common(p_graph, ["dot", "json"], _cmd_graph)

    p_vm = sub.add_parser("verify-main", help="maximality checks over the catalog")
    orders = p_vm.add_mutually_exclusive_group(required=True)
    orders.add_argument("--n", type=_int_flag)
    orders.add_argument("--range", dest="range_", metavar="A..B")
    p_vm.add_argument("--jobs", type=_int_flag, default=1)
    common(p_vm, ["text", "json", "csv"], _cmd_verify_main)

    p_cr = sub.add_parser("criterion", help="normal-Sylow witness criterion for a group")
    p_cr.add_argument("--group", required=True)
    common(p_cr, ["text", "json"], _cmd_criterion)

    p_tb = sub.add_parser("tables", help="reproduce the tabulated Q values and spot checks")
    common(p_tb, ["text", "json"], _cmd_tables)

    p_sw = sub.add_parser("sweep", help="exhaustive arithmetic invariants up to a limit")
    p_sw.add_argument("--limit", type=_int_flag, default=10000)
    common(p_sw, ["text", "json"], _cmd_sweep)

    return parser


def _cmd_phi(args) -> tuple[str, Iterable]:
    if args.group is not None:
        value = parse_group_spec(args.group, args.cap).phi()
        label = args.group
    else:
        value = numtheory.phi_cyclic_sum(args.n)
        label = f"cyclic:{args.n}"
    if args.format == "json":
        return _json({"group": label, "phi": value}), ()
    return f"{value}\n", ()


def _cmd_q(args) -> tuple[str, Iterable]:
    value = numtheory.format_rational(numtheory.q_of(args.n))
    if args.format == "json":
        return _json({"n": args.n, "Q": value}), ()
    return value + "\n", ()


def _cmd_graph(args) -> tuple[str, Iterable]:
    graph = powergraph.build(parse_group_spec(args.group, args.cap))
    if args.format == "json":
        return powergraph.export_json(graph) + "\n", ()
    return powergraph.export_dot(graph), ()


def _cmd_verify_main(args) -> tuple[str, Iterable]:
    if args.jobs < 1:
        raise SpecError(f"--jobs must be at least 1, got {args.jobs}")
    lo, hi = (args.n, args.n) if args.n is not None else _parse_range(args.range_)
    ns = range(lo, hi + 1)
    # checked before any order is verified; an order below 1 fails first, in verify_main
    if lo >= 1 and hi > args.cap:
        raise OrderCapError(max(lo, args.cap + 1), args.cap)
    worker = partial(verify.verify_main, cap=args.cap)
    jobs = min(args.jobs, os.cpu_count() or 1, len(ns))
    if jobs > 1:
        import multiprocessing  # here, not at the top: it costs every start-up ~10 ms

        with multiprocessing.Pool(jobs) as pool:
            # one order per task: consecutive chunks would hand one worker
            # all of the dearest orders
            reports = pool.map(worker, ns, chunksize=1)
    else:
        reports = [worker(n) for n in ns]

    if args.format == "csv":
        # the CSV has no verdict column, so a failing verdict (a report-level
        # one may fail while every row passes) is named on stderr
        for report in reports:
            for key, verdict in report.verdicts.items():
                if not verdict.passed:
                    print(f"n={report.n}  {key}: {verdict.detail} {verdict.counterexample}",
                          file=sys.stderr)
        return verify.reports_to_csv(reports), reports
    if args.format == "json":
        return verify.reports_to_json(reports) + "\n", reports
    lines = []
    for report in reports:
        lines.append(
            f"n={report.n}: phi(C_n)={report.phi_cyclic}, "
            f"{len(report.rows)} groups, {'pass' if report.passed else 'FAIL'}"
        )
        for key, verdict in report.verdicts.items():
            if not verdict.passed:
                lines.append(f"  {key}: {verdict.detail} {verdict.counterexample}")
    return "\n".join(lines) + "\n", reports


# The fields of a witness record but its element, which its template holds.
_WITNESS_SHAPE = operator.attrgetter(
    "contained_in_gen", "cyclic", "normal", "witness_order", "satisfied", "sylow_order",
    "sylow_prime", "unique")


def _criterion_json(group: FiniteGroup, verdicts: dict, outcomes: list) -> str:
    """The text of `json.dumps(payload, sort_keys=True) + "\n"` for the
    criterion's payload, written directly: a group may have hundreds of
    witnesses whose records differ only in the element, so each record is
    its shape's template with the element written in."""
    templates = {}  # shape -> the record's text before and after the element
    records = []
    for o in outcomes:
        shape = _WITNESS_SHAPE(o)
        if shape not in templates:
            contained, cyclic, normal, order, satisfied, sylow_order, sylow_prime, unique = (
                map(json.dumps, shape))
            templates[shape] = (
                f'{{"contained_in_gen": {contained}, "cyclic": {cyclic}, "element": ',
                f', "normal": {normal}, "order": {order}, "satisfied": {satisfied}, '
                f'"sylow_order": {sylow_order}, "sylow_prime": {sylow_prime}, '
                f'"unique": {unique}}}',
            )
        head, tail = templates[shape]
        records.append(f"{head}{o.witness}{tail}")
    verdict_text = json.dumps({key: v.to_json_dict() for key, v in verdicts.items()},
                              sort_keys=True)
    return (f'{{"group": {json.dumps(group.name)}, "n": {group.order}, '
            f'"verdicts": {verdict_text}, "witnesses": [{", ".join(records)}]}}\n')


def _cmd_criterion(args) -> tuple[str, Iterable]:
    group = parse_group_spec(args.group, args.cap)
    verdicts, outcomes = verify.verify_criterion(group)
    n = group.order

    if args.format == "json":
        return _criterion_json(group, verdicts, outcomes), verdicts.values()

    if n == 1:
        return "no witness; trivial group\n", verdicts.values()
    lines = []
    for o in outcomes:
        tag = "ok" if o.satisfied else "VIOLATED"
        extra = " (identity exception)" if o.identity_exception else ""
        lines.append(
            f"witness {o.witness} (order {o.witness_order}): "
            f"Sylow-{o.sylow_prime} of order {o.sylow_order} "
            f"unique={o.unique} normal={o.normal} cyclic={o.cyclic} "
            f"in <g>={o.contained_in_gen} [{tag}]{extra}"
        )
    if not outcomes:
        fact = group._order_factorization()
        p = fact.largest_prime
        best = numtheory.q_of(fact) * max(group.order_totients().values())
        best_str = numtheory.format_rational(best)
        if best == n:
            comparison = f"n = Q*phi(o(g)) = {best_str}"
        else:
            comparison = f"max Q*phi(o(g)) = {best_str} < n = {n}"
        lines.append(f"no witness; {comparison}; Sylow-{p} count = {group.count_sylow(p)}")
    contra = verdicts["cor-contrapositive"]
    lines.append(f"contrapositive: {contra.detail} [{'ok' if contra.passed else 'VIOLATED'}]")
    return "\n".join(lines) + "\n", verdicts.values()


def _cmd_tables(args) -> tuple[str, Iterable]:
    rows = numtheory.table1()
    spot = verify.table2_spot_check()

    if args.format == "json":
        payload = {
            "table1": [
                {
                    "ell": r.ell,
                    "prime": r.prime,
                    "q_first": numtheory.format_rational(r.q_first),
                    "q_skip": None if r.q_skip is None else numtheory.format_rational(r.q_skip),
                }
                for r in rows
            ],
            "table2": {key: v.to_json_dict() for key, v in sorted(spot.items())},
        }
        return _json(payload), spot.values()

    lines = ["special values of Q:", "  ell  prime  Q(first)  Q(skip)"]
    for r in rows:
        skip = "*" if r.q_skip is None else numtheory.format_rational(r.q_skip)
        lines.append(
            f"  {r.ell:>3}  {r.prime:>5}  {numtheory.format_rational(r.q_first):>8}  {skip:>8}"
        )
    lines.append("")
    lines.append("exceptional-case spot checks (minimal exponents):")
    for key, v in spot.items():
        lines.append(
            f"  {key}: n={v.n} o(g)={v.witness_order} "
            f"n/phi(o(g))={numtheory.format_rational(v.ratio)} "
            f"{v.case.relation} Q={numtheory.format_rational(v.q)} -- "
            f"{v.case.printed} {v.case.relation} Q "
            f"{'reproduced' if v.passed else 'NOT REPRODUCED'}"
        )
        for note in v.notes:
            lines.append(f"      note: {note}")
    return "\n".join(lines) + "\n", spot.values()


def _cmd_sweep(args) -> tuple[str, Iterable]:
    verdicts = verify.verify_numtheory_sweep(args.limit)
    if args.format == "json":
        return _json({key: v.to_json_dict() for key, v in verdicts.items()}), verdicts.values()
    lines = []
    for key in sorted(verdicts):
        v = verdicts[key]
        suffix = "" if v.counterexample is None else f" counterexample: {v.counterexample}"
        lines.append(f"{key}: {'pass' if v.passed else 'FAIL'} ({v.detail}){suffix}")
    return "\n".join(lines) + "\n", verdicts.values()


_parser: argparse.ArgumentParser | None = None  # built by the first `run`


def run(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text, checked = args.handler(args)
        _emit(text, args.out)
    except (ValueError, MemoryError) as exc:  # every usage error is a ValueError
        message = f"out of memory: {exc}" if isinstance(exc, MemoryError) else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    return 0 if all(v.passed for v in checked) else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
