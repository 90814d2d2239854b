"""Command-line entry point: every module behind reproducible, scriptable runs.

Exit codes: 0 success, 1 domain error (message names the violated
precondition), 2 usage error.  All outputs are deterministic functions of
the arguments; ``--manifest`` records the run so it can be replayed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__, closeknit, diffusion, experiments, io, ramsey, sierpinski, twopart
from .catalog import named_graph
from .errors import DomainError
from .graphs import LabeledGraph, decode, encode, gnp_sample

_FORMATS = ("graph6", "json", "dot")


# --- input parsing -------------------------------------------------------


def load_graph(source: str) -> LabeledGraph:
    """A named shorthand (K6, S3, P3, C5, E2) or a .g6 / .json file path."""
    try:
        return named_graph(source)
    except DomainError:
        pass
    path = Path(source)
    if not path.exists():
        raise DomainError(
            f"{source!r} is neither a known graph name nor an existing file"
        )
    text = path.read_text().strip()
    if text.startswith("{"):
        return io.from_json_edges(text)
    return io.from_graph6(text)


def emit_graph(g: LabeledGraph, fmt: str) -> str:
    if fmt == "graph6":
        return io.to_graph6(g) + "\n"
    if fmt == "json":
        return io.to_json_edges(g) + "\n"
    if fmt == "dot":
        return io.to_dot(g)
    raise DomainError(f"unknown format {fmt!r}")


# Argument types: a malformed value raises ArgumentTypeError, so argparse
# exits 2 with a usage message.


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"expected a number such as 1/4, got {text!r}") from exc


class _CommaList(tuple):
    """Values parsed from a comma-separated argument; ``text`` keeps the
    argument as given, which config hashes and manifests record."""

    text = ""


def _comma_list(text: str, parse_part, expected: str) -> _CommaList:
    try:
        parsed = _CommaList(x for part in text.split(",") for x in parse_part(part))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from exc
    parsed.text = text
    return parsed


def _int_list(text: str) -> _CommaList:
    """``1,2,3``; empty for no labels."""
    return _comma_list(
        text, lambda part: [int(part)] if text.strip() else [], "integers such as 1,2,3"
    )


def _levels(text: str) -> _CommaList:
    """``2,3`` or ranges such as ``1-4``."""

    def levels(part: str):
        lo, sep, hi = part.partition("-")
        return range(int(lo), int(hi) + 1) if sep else [int(part)]

    return _comma_list(text, levels, "levels such as 2,3 or 1-4")


def _payoffs(text: str) -> _CommaList:
    """Four numbers ``a,b,c,d``."""
    parts = _comma_list(text, lambda part: [Fraction(part)], "numbers a,b,c,d")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"payoffs must be four numbers a,b,c,d, got {text!r}")
    return parts


def _json_dump(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _coloring_json(coloring: dict[tuple[int, int], str] | None):
    if coloring is None:
        return None
    return [[i, j, color] for (i, j), color in sorted(coloring.items())]


def _certificate_json(cert: ramsey.HostCertificate) -> dict:
    return {
        "host_graph6": io.to_graph6(cert.host),
        "pattern_graph6": io.to_graph6(cert.pattern),
        "verified": cert.verified,
        "colorings_checked": cert.colorings_checked,
        "witness": _coloring_json(cert.witness),
    }


def _config_hash(params: dict) -> str:
    canonical = json.dumps(params, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# --- subcommand handlers --------------------------------------------------


def _cmd_gen_sierpinski(args) -> str:
    gasket = sierpinski.build(args.level, max_level=args.max_level)
    if args.coords_out:
        coords = {str(v): list(rc) for v, rc in gasket.coords.items()}
        Path(args.coords_out).write_text(_json_dump(coords))
        args._extra_paths.append(str(args.coords_out))
    return emit_graph(gasket.graph, args.format)


def _cmd_gen_gnp(args) -> str:
    return emit_graph(gnp_sample(args.n, args.p, args.seed), args.format)


def _cmd_gen_plant(args) -> str:
    g = load_graph(args.graph)
    pattern = load_graph(args.pattern)
    planted = experiments.plant_occurrence(g, pattern, args.subset)
    return emit_graph(planted, args.format)


def _cmd_encode_canonical(args) -> str:
    return encode(load_graph(args.graph)).bits + "\n"


def _cmd_decode_canonical(args) -> str:
    try:
        is_file = Path(args.bits).exists()
    except OSError:
        is_file = False
    text = Path(args.bits).read_text().strip() if is_file else args.bits
    return emit_graph(decode(text, args.n), args.format)


def _cmd_encode_alt(args) -> str:
    g = load_graph(args.graph)
    side = twopart.SideInfo.for_generator(
        args.gen, g.n, ordered=None if args.ordering == "auto" else args.ordering == "ordered"
    )
    enc = twopart.encode_two_part(encode(g), args.occ, side)
    blob = twopart.to_bytes(enc, side)
    Path(args.out).write_bytes(blob)
    args._extra_paths.append(str(args.out))
    report = twopart.length_report(side.n, side.k, side.ordered)
    out_path = str(args.out)
    args.out = None  # the binary is the file output; the report goes to stdout
    return _json_dump(
        {
            "out": out_path,
            "canonical_bits": report.canonical_bits,
            "encoded_bits": enc.length_bits(side),
            "gain": report.gain,
        }
    )


def _cmd_decode_alt(args) -> str:
    enc, side = twopart.from_bytes(Path(args.alt).read_bytes())
    bits = twopart.decode_two_part(enc, side)
    if args.format == "bits":
        return bits.bits + "\n"
    return emit_graph(decode(bits, side.n), args.format)


def _cmd_closeknit_ratio(args) -> str:
    report = closeknit.min_ratio(load_graph(args.graph), args.group)
    return _json_dump(
        {
            "group": list(report.group),
            "min_ratio": str(report.min_ratio),
            "argmin": list(report.argmin),
        }
    )


def _cmd_closeknit_cert(args) -> str:
    result = closeknit.is_rk_closeknit(load_graph(args.graph), args.r, args.k)
    payload: dict = {
        "r": str(result.r),
        "k": result.k,
        "success": result.success,
        "groups_examined": result.groups_examined,
    }
    if result.success:
        payload["witness"] = {str(v): list(grp) for v, grp in sorted(result.witness.items())}
    else:
        payload["failed_vertex"] = result.failed_vertex
    return _json_dump(payload)


def _cmd_closeknit_scan(args) -> str:
    graphs = {
        level: sierpinski.build(level).graph for level in args.levels
    }
    scan = closeknit.family_scan(graphs, args.r, k_cap=args.k_cap)
    return _json_dump(
        {
            "r": str(Fraction(args.r)),
            "k_cap": args.k_cap,
            "minimal_k": {str(level): k for level, k in scan.items()},
        }
    )


def _cmd_ramsey_occurrences(args) -> str:
    subsets = ramsey.find_induced_occurrences(
        load_graph(args.graph), load_graph(args.pattern), limit=args.limit
    )
    return _json_dump({"count": len(subsets), "subsets": [list(s) for s in subsets]})


def _cmd_ramsey_host_check(args) -> str:
    cert = ramsey.is_host(
        load_graph(args.host), load_graph(args.pattern), max_edges=args.max_edges
    )
    return _json_dump(_certificate_json(cert))


def _cmd_ramsey_oracle(args) -> str:
    hosts = [load_graph(name.strip()) for name in args.hosts.split(",")]
    result = ramsey.induced_ramsey_oracle(
        load_graph(args.pattern), hosts, max_edges=args.max_edges
    )
    return _json_dump(
        {
            "scope": "minimum over the declared candidate list only",
            "found_index": result.found_index,
            "found_order": result.host.n if result.host else None,
            "certificates": [_certificate_json(c) for c in result.certificates],
        }
    )


def _cmd_ramsey_union(args) -> str:
    construction = ramsey.construct_union(load_graph(args.g1), load_graph(args.g2))
    if args.format == "roles":
        return _json_dump(
            {
                "graph6": io.to_graph6(construction.graph),
                "g1_vertices": list(construction.g1_vertices),
                "g2_vertices": list(construction.g2_vertices),
            }
        )
    return emit_graph(construction.graph, args.format)


def _cmd_ramsey_split(args) -> str:
    result = ramsey.split_union(
        load_graph(args.graph),
        load_graph(args.pattern),
        mode=args.mode,
        max_edges=args.max_edges,
    )
    return _json_dump(
        {
            "mode": result.mode,
            "g1_vertices": list(result.g1_vertices),
            "g2_vertices": list(result.g2_vertices),
        }
    )


def _cmd_ramsey_bounds(args) -> str:
    report = ramsey.bounds_report(load_graph(args.pattern), args.c, args.c_d)
    return _json_dump(
        {
            "pattern_size": report.pattern_size,
            "max_degree": report.max_degree,
            "c": report.c,
            "c_d": report.c_d,
            "chvatal": report.chvatal,
            "luczak_rodl": report.luczak_rodl,
            "incompressible_lower": report.incompressible_lower,
            "incompressible_upper": report.incompressible_upper,
        }
    )


def _cmd_ramsey_crossover(args) -> str:
    level = ramsey.poly_exp_crossover_level(Fraction(args.c_d))
    return _json_dump({"c_d": str(Fraction(args.c_d)), "max_level": level})


def _diffusion_config(args, n: int) -> diffusion.DiffusionConfig:
    if args.config:
        try:
            payload = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise DomainError(f"cannot read diffusion config {args.config}: {exc}")
        return diffusion.DiffusionConfig(
            epsilon=payload.get("epsilon", 0.0),
            init_adopters=tuple(payload.get("init_adopters", ())),
            horizon=payload.get("horizon", 200 * n),
            seed=payload.get("seed", 0),
            schedule=payload.get("schedule", "uniform-random"),
        )
    horizon = args.horizon if args.horizon else 200 * n
    return diffusion.DiffusionConfig(
        epsilon=args.epsilon,
        init_adopters=tuple(args.init),
        horizon=horizon,
        seed=args.seed,
        schedule=args.schedule,
    )


def _cmd_diffuse_run(args) -> str:
    g = load_graph(args.graph)
    config = _diffusion_config(args, g.n)
    game = diffusion.CoordinationGame(*args.payoffs)
    trace = diffusion.run(g, game, config)
    if args.trace_out:
        lines = ["revision,adopters"]
        lines.extend(f"{t},{c}" for t, c in enumerate(trace.adoption_counts))
        Path(args.trace_out).write_text("\n".join(lines) + "\n")
        args._extra_paths.append(str(args.trace_out))
    return _json_dump(
        {
            "n": g.n,
            "r_star": str(diffusion.risk_threshold(game)),
            "revisions": len(trace.adoption_counts) - 1,
            "hitting_time": trace.hitting_time,
            "final_adopters": list(trace.final_adopters),
        }
    )


def _cmd_diffuse_stats(args) -> str:
    g = load_graph(args.graph)
    config = _diffusion_config(args, g.n)
    game = diffusion.CoordinationGame(*args.payoffs)
    stats = diffusion.hitting_time_stats(
        g, game, config, args.trials, jobs=args.jobs
    )
    return _json_dump(
        {
            "n": g.n,
            "r_star": str(diffusion.risk_threshold(game)),
            "trials": stats.trials,
            "success_rate": stats.success_rate,
            "median_hit": stats.median_hit,
            "quartiles": list(stats.quartiles) if stats.quartiles else None,
        }
    )


def _cmd_experiment_containment(args) -> str:
    result = experiments.containment_experiment(
        args.n,
        load_graph(args.pattern),
        args.trials,
        args.seed,
        p=args.p,
        jobs=args.jobs,
    )
    return _json_dump(
        {
            "n": result.n,
            "pattern_size": result.pattern_size,
            "trials": result.trials,
            "mean_count": result.mean_count,
            "containment_frequency": result.containment_frequency,
            "expected_isomorphic": str(result.expected_isomorphic),
        }
    )


def _cmd_experiment_sweep(args) -> str:
    rows = experiments.threshold_sweep(
        list(args.levels), list(args.n_values), args.trials, args.seed
    )
    metadata = {
        "config_hash": _config_hash(
            {"levels": args.levels.text, "n_values": args.n_values.text, "trials": args.trials}
        ),
        "master_seed": args.seed,
        "version": __version__,
    }
    return experiments.table_to_csv(rows, metadata)


def _cmd_experiment_link(args) -> str:
    config = diffusion.DiffusionConfig(
        epsilon=args.epsilon,
        init_adopters=(),
        horizon=args.horizon if args.horizon else 1,
        seed=args.seed,
        schedule=args.schedule,
    )
    rows = experiments.closeknit_diffusion_link(
        list(args.levels),
        diffusion.CoordinationGame(*args.payoffs),
        config,
        args.trials,
        jobs=args.jobs,
        auto_horizon=not args.horizon,
    )
    metadata = {
        "config_hash": _config_hash(
            {
                "levels": args.levels.text,
                "payoffs": args.payoffs.text,
                "epsilon": args.epsilon,
                "trials": args.trials,
            }
        ),
        "master_seed": args.seed,
        "version": __version__,
    }
    return experiments.table_to_csv(rows, metadata)


# --- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gasketlab",
        description="Sierpinski gasket graphs: codecs, close-knit ratios, "
        "induced-Ramsey checks, and adoption dynamics.",
    )
    parser.add_argument("--manifest", type=Path, help="write a run manifest JSON")
    top = parser.add_subparsers(dest="command", required=True)

    def sub(group, name, func, **kwargs):
        sp = group.add_parser(name, **kwargs)
        sp.set_defaults(func=func)
        sp.add_argument("--out", type=Path, help="write output here instead of stdout")
        sp.add_argument("--manifest", type=Path, help="write a run manifest JSON")
        return sp

    # gen
    gen = top.add_parser("gen", help="generate graphs").add_subparsers(
        dest="subcommand", required=True
    )
    sp = sub(gen, "sierpinski", _cmd_gen_sierpinski)
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--max-level", type=int, default=sierpinski.MAX_LEVEL_DEFAULT)
    sp.add_argument("--format", choices=_FORMATS, default="graph6")
    sp.add_argument("--coords-out", type=Path)
    sp = sub(gen, "gnp", _cmd_gen_gnp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--format", choices=_FORMATS, default="graph6")
    sp = sub(gen, "plant", _cmd_gen_plant)
    sp.add_argument("--graph", required=True)
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--subset", type=_int_list, required=True)
    sp.add_argument("--format", choices=_FORMATS, default="graph6")

    # encode / decode
    enc = top.add_parser("encode", help="canonical and two-part codecs").add_subparsers(
        dest="subcommand", required=True
    )
    sp = sub(enc, "canonical", _cmd_encode_canonical)
    sp.add_argument("--graph", required=True)
    sp = enc.add_parser("alt")
    sp.set_defaults(func=_cmd_encode_alt)
    sp.add_argument("--graph", required=True)
    sp.add_argument("--occ", type=_int_list, required=True)
    sp.add_argument("--gen", required=True, help="generator id, e.g. sierpinski:2")
    sp.add_argument(
        "--ordering", choices=("auto", "ordered", "unordered"), default="auto"
    )
    sp.add_argument("--out", type=Path, required=True)
    sp.add_argument("--manifest", type=Path, help="write a run manifest JSON")

    dec = top.add_parser("decode", help="inverse codecs").add_subparsers(
        dest="subcommand", required=True
    )
    sp = sub(dec, "canonical", _cmd_decode_canonical)
    sp.add_argument("--bits", required=True, help="bit string or path to one")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--format", choices=_FORMATS, default="graph6")
    sp = sub(dec, "alt", _cmd_decode_alt)
    sp.add_argument("--alt", type=Path, required=True)
    sp.add_argument("--format", choices=_FORMATS + ("bits",), default="bits")

    # closeknit
    ck = top.add_parser("closeknit", help="close-knit ratios and certificates").add_subparsers(
        dest="subcommand", required=True
    )
    sp = sub(ck, "ratio", _cmd_closeknit_ratio)
    sp.add_argument("--graph", required=True)
    sp.add_argument("--group", type=_int_list, required=True, help="comma-separated labels")
    sp = sub(ck, "cert", _cmd_closeknit_cert)
    sp.add_argument("--graph", required=True)
    sp.add_argument("--r", type=_fraction, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp = sub(ck, "scan", _cmd_closeknit_scan)
    sp.add_argument("--levels", type=_levels, required=True, help="e.g. 1-4 or 2,3")
    sp.add_argument("--r", type=_fraction, required=True)
    sp.add_argument("--k-cap", type=int, default=8)

    # ramsey
    rm = top.add_parser("ramsey", help="induced occurrences, hosts, unions, bounds").add_subparsers(
        dest="subcommand", required=True
    )
    sp = sub(rm, "occurrences", _cmd_ramsey_occurrences)
    sp.add_argument("--graph", required=True)
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--limit", type=int)
    sp = sub(rm, "host-check", _cmd_ramsey_host_check)
    sp.add_argument("--host", required=True)
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--max-edges", type=int, default=ramsey.COLORING_EDGE_BUDGET)
    sp = sub(rm, "oracle", _cmd_ramsey_oracle)
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--hosts", required=True, help="comma-separated candidates, in order")
    sp.add_argument("--max-edges", type=int, default=ramsey.COLORING_EDGE_BUDGET)
    sp = sub(rm, "union", _cmd_ramsey_union)
    sp.add_argument("--g1", required=True)
    sp.add_argument("--g2", required=True)
    sp.add_argument("--format", choices=_FORMATS + ("roles",), default="roles")
    sp = sub(rm, "split", _cmd_ramsey_split)
    sp.add_argument("--graph", required=True)
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--mode", choices=("fast", "proof-faithful"), default="fast")
    sp.add_argument("--max-edges", type=int, default=ramsey.COLORING_EDGE_BUDGET)
    sp = sub(rm, "bounds", _cmd_ramsey_bounds)
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--c", type=float, default=1.0)
    sp.add_argument("--c-d", type=float, default=3.0)
    sp = sub(rm, "crossover", _cmd_ramsey_crossover)
    sp.add_argument("--c-d", required=True)

    # diffuse
    df = top.add_parser("diffuse", help="adoption dynamics").add_subparsers(
        dest="subcommand", required=True
    )

    def add_diffuse_common(sp):
        sp.add_argument("--graph", required=True)
        sp.add_argument("--payoffs", type=_payoffs, required=True, help="a,b,c,d")
        sp.add_argument("--epsilon", type=float, default=0.0)
        sp.add_argument("--init", type=_int_list, default="", help="initial adopters, e.g. 1,2,3")
        sp.add_argument("--horizon", type=int, default=0, help="0 = 200*n")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument(
            "--schedule", choices=("uniform-random", "round-robin"), default="uniform-random"
        )
        sp.add_argument(
            "--config", type=Path,
            help="JSON file with epsilon/init_adopters/horizon/seed/schedule; "
            "replaces the individual flags",
        )

    sp = sub(df, "run", _cmd_diffuse_run)
    add_diffuse_common(sp)
    sp.add_argument("--trace-out", type=Path)
    sp = sub(df, "stats", _cmd_diffuse_stats)
    add_diffuse_common(sp)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--jobs", type=int, default=1)

    # experiment
    ex = top.add_parser("experiment", help="sampling experiments and sweeps").add_subparsers(
        dest="subcommand", required=True
    )
    sp = sub(ex, "containment", _cmd_experiment_containment)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--p", type=float, default=0.5)
    sp.add_argument("--jobs", type=int, default=1)
    sp = sub(ex, "threshold-sweep", _cmd_experiment_sweep)
    sp.add_argument("--levels", type=_levels, required=True)
    sp.add_argument("--n-values", type=_int_list, required=True, help="comma-separated host sizes")
    sp.add_argument("--trials", type=int, default=50)
    sp.add_argument("--seed", type=int, default=0)
    sp = sub(ex, "link", _cmd_experiment_link)
    sp.add_argument("--levels", type=_levels, required=True)
    sp.add_argument("--payoffs", type=_payoffs, required=True, help="a,b,c,d")
    sp.add_argument("--epsilon", type=float, default=0.02)
    sp.add_argument("--horizon", type=int, default=0, help="0 = 200*n per level")
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument(
        "--schedule", choices=("uniform-random", "round-robin"), default="uniform-random"
    )
    sp.add_argument("--jobs", type=int, default=1)

    return parser


def _manifest(args, paths: list[str]) -> dict:
    params = {}
    for key, value in sorted(vars(args).items()):
        if key in ("func", "manifest", "_extra_paths") or key.startswith("_"):
            continue
        if isinstance(value, _CommaList):
            value = value.text
        params[key] = str(value) if not isinstance(value, (int, float, bool, str, type(None))) else value
    return {
        "subcommand": f"{args.command} {getattr(args, 'subcommand', '')}".strip(),
        "parameters": params,
        "master_seed": getattr(args, "seed", None),
        "versions": {"gasketlab": __version__},
        "output_paths": paths,
    }


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._extra_paths = []
    try:
        text = args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    paths = list(args._extra_paths)
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text)
        paths.append(str(out))
    else:
        sys.stdout.write(text)
    if args.manifest:
        Path(args.manifest).write_text(_json_dump(_manifest(args, paths)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
