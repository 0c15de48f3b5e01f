"""Command-line interface.

Subcommands: generate, augment, check, partition, regcheck, sweep,
preset.  Graphs travel in the edge-list text format ("n m" header, one
"u v" line per edge); verdicts and reports are emitted as JSON.  Exit
code 0 only on fully successful runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .augment import augment_bernoulli, augment_uniform
from .checkers import (
    chromatic_number,
    clique_number,
    contains_kr,
    count_kr,
    diameter,
    diameter_at_most,
    is_k_connected,
    max_clique,
    max_subgraph_density,
    minimum_coloring,
    vertex_connectivity,
)
from .core import read_edge_list, write_edge_list
from .harness import (
    GENERATORS,
    SweepConfig,
    run_sweep,
    deterministic_lower_bound_check,
    theorem_preset,
)
from .partition import dense_partition
from .regularity import RegularityParams, full_pair_report
from .seeds import SeedSpec


def _parse_value(text: str):
    """key=value values: JSON first (ints, lists, ...), then exact
    fractions like 1/4 or 0.2, then plain strings."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        pass
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return text


def _parse_kv(pairs: list[str]) -> dict:
    out = {}
    for item in pairs:
        if "=" not in item:
            raise SystemExit(f"expected key=value, got {item!r}")
        key, _, val = item.partition("=")
        out[key] = _parse_value(val)
    return out


def _jsonable(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, (set, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and math.isinf(value):
        return "infinite"
    return value


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2, default=_jsonable))


def _read_graph(path: str):
    if path == "-":
        return read_edge_list(sys.stdin)
    return read_edge_list(path)


def _write_graph(g, path: str | None) -> None:
    if path is None or path == "-":
        write_edge_list(g, sys.stdout)
    else:
        write_edge_list(g, path)


def cmd_generate(args) -> int:
    params = _parse_kv(args.params)
    family = params.pop("family", None) or args.family
    if family is None:
        raise SystemExit("generate needs family=NAME (or --family)")
    if family not in GENERATORS:
        raise SystemExit(f"unknown family {family!r}; known: {sorted(GENERATORS)}")
    g = GENERATORS[family](params, SeedSpec(args.seed))
    _write_graph(g, args.out)
    return 0


def cmd_augment(args) -> int:
    g = _read_graph(args.infile)
    seed = SeedSpec(args.seed)
    if args.model == "uniform":
        if args.m is None:
            raise SystemExit("uniform model needs --m")
        result = augment_uniform(g, args.m, seed)
    else:
        if args.p is None:
            raise SystemExit("bernoulli model needs --p")
        result = augment_bernoulli(g, args.p, seed)
    _write_graph(result.graph, args.out)
    if args.added_out:
        Path(args.added_out).write_text(
            "".join(f"{u} {v}\n" for u, v in result.added), encoding="ascii"
        )
    return 0


def cmd_check(args) -> int:
    g = _read_graph(args.infile)
    spec = args.property
    name, _, arg = spec.partition(":")
    doc: dict = {"property": spec, "n": g.n, "edges": g.edge_count}
    if arg and name in ("kappa", "chi", "omega", "density"):
        raise SystemExit(f"property {name!r} takes no argument, got {spec!r}")
    if name == "clique":
        verdict = contains_kr(g, int(arg))
        doc.update(holds=verdict.holds, witness=_jsonable(verdict.witness))
    elif name == "cliquecount":
        doc.update(value=count_kr(g, int(arg)))
    elif name == "diam" and arg:
        verdict = diameter_at_most(g, int(arg))
        doc.update(holds=verdict.holds, witness=_jsonable(verdict.witness))
    elif name == "diam":
        doc.update(value=_jsonable(diameter(g)))
    elif name == "kconn":
        verdict = is_k_connected(g, int(arg))
        doc.update(
            holds=verdict.holds,
            witness=_jsonable(verdict.witness),
            reason=verdict.reason,
        )
    elif name == "kappa":
        doc.update(value=vertex_connectivity(g))
    elif name == "chi":
        doc.update(value=chromatic_number(g), witness=minimum_coloring(g))
    elif name == "omega":
        doc.update(value=clique_number(g), witness=list(max_clique(g)))
    elif name == "density":
        dm = max_subgraph_density(g)
        doc.update(value=_jsonable(dm.value), witness=list(dm.witness_set))
    else:
        raise SystemExit(
            f"unknown property {spec!r}; use clique:R, cliquecount:R, diam[:T], "
            "kconn:K, kappa, chi, omega, or density"
        )
    _emit(doc)
    return 0


def cmd_partition(args) -> int:
    g = _read_graph(args.infile)
    result = dense_partition(g, args.k)
    _emit(
        {
            "k": args.k,
            "t": result.t,
            "parts": [list(p) for p in result.parts],
            "certified_connectivity": list(result.per_part_connectivity),
            "seed_subgraphs": [list(s) for s in result.seed_subgraphs],
        }
    )
    return 0


def _parse_ids(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


def cmd_regcheck(args) -> int:
    g = _read_graph(args.infile)
    a, b = _parse_ids(args.A), _parse_ids(args.B)
    params = RegularityParams(Fraction(args.eps), Fraction(args.delta), args.k)
    y = _parse_ids(args.Y) if args.Y else None
    report = full_pair_report(g, a, b, params, y=y)
    _emit(
        {
            "A": a,
            "B": b,
            "eps": _jsonable(params.eps),
            "delta": _jsonable(params.delta),
            "k": params.k,
            "density": _jsonable(report.density),
            "is_regular": report.is_regular,
            "violating_pair": _jsonable(report.violating_pair),
            "union_bad_tuples": report.union_bad_tuples,
            "intersection_bad_tuples": report.intersection_bad_tuples,
        }
    )
    return 0


def cmd_sweep(args) -> int:
    doc = json.loads(Path(args.config).read_text())
    config = SweepConfig.from_json_dict(doc)
    if args.seed is not None:
        config = SweepConfig.from_json_dict(
            {**config.to_json_dict(), "master_seed": {"seed": args.seed, "stream_id": 0}}
        )
    if args.out:
        config = SweepConfig.from_json_dict(
            {**config.to_json_dict(), "output_path": args.out}
        )
    result = run_sweep(config)
    if not config.output_path:
        sys.stdout.write(result.to_csv())
    return 0


def cmd_preset(args) -> int:
    params = _parse_kv(args.params)
    if args.seed is not None:
        params["master_seed"] = args.seed
    if args.csv:
        params["output_path"] = args.csv
    samples = params.pop("samples", 100) if args.bound_check else None
    config = theorem_preset(args.name, args.n, params)
    if args.bound_check:
        if "d" not in params or "k" not in params:
            raise SystemExit("--bound-check needs d=... and k=... parameters")
        verdict = deterministic_lower_bound_check(
            args.name,
            args.n,
            params["d"],
            params["k"],
            samples=samples,
            seed=args.seed or 0,
        )
        _emit({"holds": verdict.holds, "reason": verdict.reason})
        return 0 if verdict.holds else 1
    if args.run:
        result = run_sweep(config)
        if not config.output_path:
            sys.stdout.write(result.to_csv())
    else:
        print(json.dumps(config.to_json_dict(), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sprinkle",
        description="Random-edge augmentation of dense graphs: generators, "
        "exact checkers, and Monte Carlo threshold sweeps.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a base graph as an edge list")
    p.add_argument("params", nargs="*", help="family=NAME plus keyword parameters, e.g. family=two_cliques n=200")
    p.add_argument("--family", help="alternative to family=NAME")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("augment", help="add random edges to an edge-list graph")
    p.add_argument("--model", choices=("uniform", "bernoulli"), required=True)
    p.add_argument("--m", type=int, help="edge count for the uniform model")
    p.add_argument("--p", type=float, help="probability for the bernoulli model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--in", dest="infile", default="-", help="input path (default stdin)")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--added-out", help="also write the added edges here")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("check", help="run an exact property checker")
    p.add_argument(
        "--property",
        required=True,
        help="clique:R | cliquecount:R | diam[:T] | kconn:K | kappa | chi | omega | density",
    )
    p.add_argument("infile")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("partition", help="partition into highly connected parts")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("infile")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("regcheck", help="epsilon-regularity report for a bipartite pair")
    p.add_argument("--A", required=True, help="comma-separated vertex ids")
    p.add_argument("--B", required=True, help="comma-separated vertex ids")
    p.add_argument("--eps", required=True, help="rational, e.g. 1/4 or 0.25")
    p.add_argument("--delta", required=True, help="rational")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--Y", help="subset of B for the intersection count (default B)")
    p.add_argument("infile")
    p.set_defaults(func=cmd_regcheck)

    p = sub.add_parser("sweep", help="run a sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="CSV output path (overrides config output_path)")
    p.add_argument("--seed", type=int, help="override the config master seed")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("preset", help="emit or run a packaged theorem experiment")
    p.add_argument("--name", required=True, help="thm2 | thm3 | thm4 | thm5 | thm6")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("params", nargs="*", help="keyword parameters, e.g. d=0.2 k=4")
    p.add_argument("--run", action="store_true", help="run the sweep instead of emitting config")
    p.add_argument("--csv", help="CSV output path when running")
    p.add_argument("--seed", type=int, help="master seed override")
    p.add_argument(
        "--bound-check",
        action="store_true",
        help="run the deterministic lower-bound certificate (thm6)",
    )
    p.set_defaults(func=cmd_preset)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
