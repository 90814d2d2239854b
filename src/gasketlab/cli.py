"""Command-line entry point: every module behind reproducible, scriptable runs.

Exit codes: 0 success, 1 domain error (message names the violated
precondition) or a file that cannot be read or written (message names the
path), 2 usage error.  All outputs are deterministic functions of
the arguments; ``--manifest`` records the run so it can be replayed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(f"{str(path)!r} is not UTF-8 text: {exc}") from exc


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
    text = _read_text(path).strip()
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


def _json_default(value: object) -> object:
    """A report dataclass is written as its fields, a ``Fraction`` as ``p/q``."""
    if isinstance(value, Fraction):
        return str(value)
    if dataclasses.is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _json_dump(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, default=_json_default) + "\n"


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
    text = _read_text(Path(args.bits)).strip() if is_file else args.bits
    return emit_graph(decode(text, args.n), args.format)


def _cmd_encode_alt(args) -> str:
    g = load_graph(args.graph)
    side = twopart.SideInfo.for_generator(
        args.gen, g.n, ordered=None if args.ordering == "auto" else args.ordering == "ordered"
    )
    enc = twopart.encode_two_part(encode(g), args.occ, side)
    Path(args.out).write_bytes(twopart.to_bytes(enc, side))
    out_path = str(args.out)
    args._extra_paths.append(out_path)
    args.out = None  # the binary is the file output; the report goes to stdout
    report = twopart.length_report(side.n, side.k, side.ordered)
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
    return _json_dump(closeknit.min_ratio(load_graph(args.graph), args.group))


def _cmd_closeknit_cert(args) -> str:
    result = closeknit.is_rk_closeknit(load_graph(args.graph), args.r, args.k)
    payload: dict = {
        "r": result.r,
        "k": result.k,
        "success": result.success,
        "groups_examined": result.groups_examined,
    }
    if result.success:
        payload["witness"] = {str(v): grp for v, grp in result.witness.items()}
    else:
        payload["failed_vertex"] = result.failed_vertex
    return _json_dump(payload)


def _cmd_closeknit_scan(args) -> str:
    graphs = {level: sierpinski.build(level).graph for level in args.levels}
    scan = closeknit.family_scan(graphs, args.r, k_cap=args.k_cap)
    return _json_dump(
        {
            "r": args.r,
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
        load_graph(args.graph), load_graph(args.pattern), mode=args.mode, max_edges=args.max_edges
    )
    return _json_dump(result)


def _cmd_ramsey_bounds(args) -> str:
    return _json_dump(ramsey.bounds_report(load_graph(args.pattern), args.c, args.c_d))


def _cmd_ramsey_crossover(args) -> str:
    level = ramsey.poly_exp_crossover_level(args.c_d)
    return _json_dump({"c_d": args.c_d, "max_level": level})


# Value types of the diffusion config keys.  JSON true/false load as bool,
# which is an int subclass, so they are rejected separately.
_CONFIG_TYPES = {
    "epsilon": ((int, float), "a number"),
    "horizon": (int, "an integer"),
    "seed": (int, "an integer"),
    "schedule": (str, "a string"),
    "init_adopters": (list, "a list of integers"),
}


def _check_config(payload, path: Path) -> None:
    if not isinstance(payload, dict):
        raise DomainError(f"diffusion config {path} must be a JSON object")
    for key, (types, expected) in _CONFIG_TYPES.items():
        if key not in payload:
            continue
        value = payload[key]
        ok = isinstance(value, types) and not isinstance(value, bool)
        if ok and key == "init_adopters":
            ok = all(isinstance(v, int) and not isinstance(v, bool) for v in value)
        if not ok:
            raise DomainError(
                f"diffusion config key {key!r} must be {expected}, got {json.dumps(value)}"
            )


def _diffusion_config(args) -> diffusion.DiffusionConfig:
    """The config from ``--config`` (which replaces the flags) or from the
    flags; an absent key defaults as its flag does, and no horizon is 200*n."""
    if args.config:
        try:
            values = json.loads(_read_text(args.config))
        except DomainError:  # non-UTF-8 text, already naming the path
            raise
        except (OSError, ValueError, RecursionError) as exc:  # ValueError: JSON, int digits
            raise DomainError(f"cannot read diffusion config {args.config}: {exc}")
        _check_config(values, args.config)
    else:
        values = {
            "epsilon": args.epsilon,
            "init_adopters": args.init,
            "seed": args.seed,
            "schedule": args.schedule,
            "horizon": args.horizon or None,
        }
    return diffusion.DiffusionConfig(
        epsilon=values.get("epsilon", 0.0),
        init_adopters=tuple(values.get("init_adopters", ())),
        horizon=values.get("horizon"),
        seed=values.get("seed", 0),
        schedule=values.get("schedule", "uniform-random"),
    )


def _cmd_diffuse_run(args) -> str:
    g = load_graph(args.graph)
    config = _diffusion_config(args)
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
            "r_star": diffusion.risk_threshold(game),
            "revisions": len(trace.adoption_counts) - 1,
            "hitting_time": trace.hitting_time,
            "final_adopters": trace.final_adopters,
        }
    )


def _cmd_diffuse_stats(args) -> str:
    g = load_graph(args.graph)
    config = _diffusion_config(args)
    game = diffusion.CoordinationGame(*args.payoffs)
    stats = diffusion.hitting_time_stats(g, game, config, args.trials)
    return _json_dump(
        {
            "n": g.n,
            "r_star": diffusion.risk_threshold(game),
            "trials": stats.trials,
            "success_rate": stats.success_rate,
            "median_hit": stats.median_hit,
            "quartiles": stats.quartiles,
        }
    )


def _cmd_experiment_containment(args) -> str:
    return _json_dump(
        experiments.containment_experiment(
            args.n, load_graph(args.pattern), args.trials, args.seed, p=args.p
        )
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
        horizon=args.horizon or None,
        seed=args.seed,
        schedule=args.schedule,
    )
    rows = experiments.closeknit_diffusion_link(
        list(args.levels),
        diffusion.CoordinationGame(*args.payoffs),
        config,
        args.trials,
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it
    unchanged)."""
    parser = argparse.ArgumentParser(
        prog="gasketlab",
        description="Sierpinski gasket graphs: codecs, close-knit ratios, "
        "induced-Ramsey checks, and adoption dynamics.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    def sub(group, name, func, **out_options):
        """A subcommand parser; the only place ``--out`` and ``--manifest``
        are declared, so both follow the subcommand."""
        sp = group.add_parser(name)
        sp.set_defaults(func=func)
        out_options.setdefault("help", "write output here instead of stdout")
        sp.add_argument("--out", type=Path, **out_options)
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
    sp = sub(enc, "alt", _cmd_encode_alt, required=True, help="write the two-part binary here")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--occ", type=_int_list, required=True)
    sp.add_argument("--gen", required=True, help="generator id, e.g. sierpinski:2")
    sp.add_argument(
        "--ordering", choices=("auto", "ordered", "unordered"), default="auto"
    )

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
    sp.add_argument("--c-d", type=_fraction, required=True)

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
    sp.add_argument("--jobs", type=int, default=1, help="ignored; trials run in order")

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
    sp.add_argument("--jobs", type=int, default=1, help="ignored; trials run in order")
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
    sp.add_argument("--jobs", type=int, default=1, help="ignored; trials run in order")

    return parser


def _manifest(args, paths: list[str]) -> dict:
    params = {}
    for key, value in sorted(vars(args).items()):
        if key in ("func", "manifest") or key.startswith("_"):
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
    args = build_parser().parse_args(argv)
    args._extra_paths = []
    try:
        text = args.func(args)
        paths = list(args._extra_paths)
        if args.out:
            Path(args.out).write_text(text)
            paths.append(str(args.out))
        else:
            sys.stdout.write(text)
        if args.manifest:
            Path(args.manifest).write_text(_json_dump(_manifest(args, paths)))
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
