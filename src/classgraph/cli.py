"""Command-line interface: analyze, verify, atlas, and graph subcommands.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
I/O error.  The environment variable CLASSGRAPH_MAX_ORDER overrides the
default order cap; the --max-order flag overrides both.  Either must be >= 1.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .construct import (GroupSpec, atlas_group, atlas_names, atlas_order, builtin_atlas,
                        group_to_spec, parse_corpus, serialize_corpus)
from .errors import (ClassGraphError, DuplicateName, InvalidParameter, OrderCapExceeded,
                     UnknownAtlasGroup)
from .graph import build_graph, to_dot
from .numtheory import is_prime
from .perm import Group
from .verify import run_corpus, verify_pair

ENV_MAX_ORDER = "CLASSGRAPH_MAX_ORDER"


def _max_order(args) -> int | None:
    if getattr(args, "max_order", None) is not None:
        return args.max_order
    env = os.environ.get(ENV_MAX_ORDER)
    if not env:
        return None
    try:
        return _positive_int(env)
    except argparse.ArgumentTypeError:
        problem = "is below 1" if env.lstrip("+-").isdecimal() else "is not an integer"
        raise InvalidParameter(f"{ENV_MAX_ORDER}={env!r} {problem}") from None


def _prime(text: str) -> int:
    """A prime given as an argument; argparse exits 2 on anything else."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a prime, not {text!r}")
    if not is_prime(int(text)):
        raise argparse.ArgumentTypeError(f"{int(text)} is not prime")
    return int(text)


def _primes_mode(text: str) -> tuple:
    """The --primes value as a ``run_corpus`` prime mode; argparse exits 2 on error."""
    if text == "all":
        return ("all",)
    if text.startswith("upto:"):
        bound = text[len("upto:"):]
        if not bound.isdecimal() or int(bound) < 2:
            raise argparse.ArgumentTypeError(f"'upto:N' needs an integer N >= 2, not {bound!r}")
        return ("upto", int(bound))
    toks = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not toks or not all(tok.isdecimal() for tok in toks):
        raise argparse.ArgumentTypeError(
            f"expected 'all', 'upto:N' or a comma-separated list of primes, not {text!r}")
    primes = [_prime(tok) for tok in toks]
    if len(set(primes)) != len(primes):
        raise argparse.ArgumentTypeError(f"a prime is repeated in {text!r}")
    return ("list", primes)


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"needs an integer >= 1, not {text!r}")
    return int(text)


def _load_specs(path: Path, sources: dict[str, str]) -> list[GroupSpec]:
    """The records of a corpus file or of each ``*.jsonl`` file in a directory;
    ``sources`` maps the names taken so far to where they came from."""
    specs: list[GroupSpec] = []
    for f in sorted(path.glob("*.jsonl")) if path.is_dir() else [path]:
        for spec in parse_corpus(f.read_text(encoding="utf-8")):
            if spec.name in sources:
                raise DuplicateName(
                    f"duplicate group name {spec.name!r} in {sources[spec.name]} and {f}")
            sources[spec.name] = str(f)
            specs.append(spec)
    return specs


def _require_atlas_order(name: str, max_order: int | None) -> None:
    # an atlas group is refused by its declared order, before it is built
    if max_order is not None and (order := atlas_order(name)) > max_order:
        raise OrderCapExceeded(name, max_order, order)


def _resolve_group(ref: str, max_order: int | None) -> Group:
    if ref.startswith("atlas:"):
        name = ref[len("atlas:"):]
        try:
            _require_atlas_order(name, max_order)
            return atlas_group(name)
        except UnknownAtlasGroup:
            raise UnknownAtlasGroup(
                f"no atlas group named {name!r}; run `classgraph atlas --list`") from None
    specs = _load_specs(Path(ref), {})
    if len(specs) != 1:
        raise ClassGraphError(
            f"{ref!r} holds {len(specs)} records; --group needs exactly one")
    return specs[0].build(max_order=max_order)


def _print_report(report) -> None:
    h = report.hypotheses
    print(f"{report.group_name} (order {report.group_order}), p = {report.prime}")
    if h:  # empty when computing the hypotheses raised
        print(f"  hypotheses: p-separable={h['p_separable']} "
              f"triangle-free={h['triangle_free']} "
              f"noncentral-complement={h['H_noncentral']}")
        g = report.graph_summary
        print(f"  graph: sizes={g['vertex_sizes']} edges={g['edges']} "
              f"shape={g['shape']}")
    for c in report.checks:
        print(f"  [{c.status:7s}] {c.check_id}: {c.detail}")


def cmd_analyze(args) -> int:
    cap = _max_order(args)
    G = _resolve_group(args.group, cap)
    report = verify_pair(G, args.prime)
    if args.dot:
        Path(args.dot).write_text(to_dot(build_graph(G, args.prime)),
                                  encoding="utf-8")
    if args.json:
        print(report.to_json(), end="")
    else:
        _print_report(report)
    return 1 if report.counts()["fail"] else 0


def cmd_verify(args) -> int:
    cap = _max_order(args)
    groups: list[Group] = []
    sources: dict[str, str] = {}
    if args.atlas or not args.corpus:
        for name in atlas_names():
            _require_atlas_order(name, cap)
            sources[name] = "the built-in atlas"
        groups.extend(e.group for e in builtin_atlas())
    if args.corpus:
        specs = _load_specs(Path(args.corpus), sources)
        if not specs:  # a run that checks nothing must not pass
            raise ClassGraphError(f"no group records in {args.corpus}")
        groups.extend(spec.build(max_order=cap) for spec in specs)
    summary = run_corpus(groups, args.primes, jobs=args.jobs)

    counts = summary.counts()
    for r in summary.counterexamples():
        print(f"COUNTEREXAMPLE-SEVERITY: {r.group_name} at p={r.prime}")
    print(f"pairs={len(summary.reports)} pass={counts['pass']} "
          f"fail={counts['fail']} skipped={counts['skipped']}")
    if args.report:
        Path(args.report).write_text(summary.to_json(), encoding="utf-8")
        print(f"report written to {args.report}")
    return summary.exit_code()


def cmd_atlas(args) -> int:
    entries = builtin_atlas()
    if args.emit:
        out = Path(args.emit)
        out.mkdir(parents=True, exist_ok=True)
        for entry in entries:
            spec = group_to_spec(entry.group, entry.tags)
            safe = "".join(ch if ch.isalnum() else "_" for ch in entry.group.name)
            (out / f"{safe}.jsonl").write_text(serialize_corpus([spec]),
                                               encoding="utf-8")
        print(f"wrote {len(entries)} corpus files to {out}")
        return 0
    for entry in entries:
        primes = ",".join(str(p) for p in entry.primes)
        print(f"{entry.group.name:22s} order={entry.group.order:<6d} "
              f"degree={entry.group.degree:<4d} primes={primes:12s} "
              f"tags={';'.join(entry.tags)}")
    return 0


def cmd_graph(args) -> int:
    cap = _max_order(args)
    G = _resolve_group(args.group, cap)
    graph = build_graph(G, args.prime)
    Path(args.dot).write_text(to_dot(graph), encoding="utf-8")
    edges = sum(mask.bit_count() for mask in graph.neighbours) // 2
    print(f"{len(graph.vertices)} vertices, {edges} edges, "
          f"shape {graph.shape} -> {args.dot}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="classgraph",
        description="Common-divisor graphs on p-regular conjugacy classes: "
                    "analysis and structural verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--max-order", type=_positive_int, default=None,
                       help="order cap for group closures")

    p = sub.add_parser("analyze", help="verify one (group, prime) pair")
    p.add_argument("--group", required=True,
                   help="corpus file with one record, or atlas:NAME")
    p.add_argument("--prime", required=True, type=_prime)
    p.add_argument("--dot", help="also write the graph in DOT format")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="run all checks over a corpus")
    p.add_argument("--corpus", help="corpus file or directory of .jsonl files")
    p.add_argument("--atlas", action="store_true",
                   help="include the built-in atlas (default when no corpus)")
    p.add_argument("--primes", type=_primes_mode, default="all",
                   help="'all' (dividing primes plus one more), 'upto:N', "
                        "or a comma-separated list")
    p.add_argument("--report", help="write the JSON report here")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="parallel worker processes, one task per group, "
                        "capped at the number of groups")
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("atlas", help="list built-in groups or emit them as corpus files")
    p.add_argument("--list", action="store_true", help="list entries (default)")
    p.add_argument("--emit", metavar="DIR", help="write one corpus file per group")
    p.set_defaults(func=cmd_atlas)

    p = sub.add_parser("graph", help="export a class graph as DOT")
    p.add_argument("--group", required=True)
    p.add_argument("--prime", required=True, type=_prime)
    p.add_argument("--dot", required=True)
    add_common(p)
    p.set_defaults(func=cmd_graph)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ClassGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
