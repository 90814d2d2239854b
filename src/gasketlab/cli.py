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
from .catalog import UnknownGraphName, named_graph
from .errors import DomainError
from .graphs import LabeledGraph, as_subset, decode, encode, gnp_sample

_FORMATS = ("graph6", "json", "dot")


# --- input parsing -------------------------------------------------------


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(f"{str(path)!r} is not UTF-8 text: {exc}") from exc


def load_graph(source: str) -> LabeledGraph:
    """A named shorthand (K6, S3, P3, C5, E2) or a .g6 / .json file path.

    With no such file, a name's own error (an over-cap K448, say) is raised.
    """
    try:
        return named_graph(source)
    except DomainError as exc:
        name_error = exc
    path = Path(source)
    if not path.exists():
        if not isinstance(name_error, UnknownGraphName):
            raise name_error
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
    """``2,3`` or ranges such as ``1-4``.  A range ends at its first level
    past ``sierpinski.MAX_LEVEL_DEFAULT``, which every command refuses, so
    a huge range is never expanded."""

    def levels(part: str):
        lo, sep, hi = part.partition("-")
        if not sep:
            return [int(part)]
        lo = int(lo)
        return range(lo, min(int(hi), max(lo, sierpinski.MAX_LEVEL_DEFAULT + 1)) + 1)

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


def _as_given(value: object) -> object:
    """An argument as config hashes and manifests record it: a comma list as
    the text given, anything else as parsed."""
    return value.text if isinstance(value, _CommaList) else value


def _csv_table(rows: list[dict], args, keys: tuple[str, ...]) -> str:
    """``rows`` as CSV, headed by the hash of the ``keys`` arguments as
    given, the master seed and the version."""
    params = {key: _as_given(getattr(args, key)) for key in keys}
    canonical = json.dumps(params, sort_keys=True, default=str)
    metadata = {
        "config_hash": hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16],
        "master_seed": args.seed,
        "version": __version__,
    }
    return experiments.table_to_csv(rows, metadata)


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
    blob = twopart.to_bytes(enc, side)
    report = twopart.length_report(side.n, side.k, side.ordered)
    Path(args.out).write_bytes(blob)  # after every check, so a refusal leaves no file
    args._extra_paths.append(str(args.out))
    return _json_dump(
        {
            "out": str(args.out),
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
    levels = sierpinski.check_levels(args.levels)
    graphs = {level: sierpinski.build(level).graph for level in levels}
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


def _diffusion_config(args, g: LabeledGraph) -> diffusion.DiffusionConfig:
    """The config from ``--config`` (which replaces the flags) or from the
    flags; an absent key defaults as its flag does, and no horizon is 200*n.
    A config file's keys that name no field are ignored.  The initial
    adopters are checked against ``g``, and an error names their source."""
    if args.config:
        config = _config_file(args.config)
        source = f"diffusion config {args.config}: init_adopters"
    else:
        config = diffusion.DiffusionConfig(
            epsilon=args.epsilon,
            init_adopters=args.init,
            horizon=args.horizon or None,
            seed=args.seed,
            schedule=args.schedule,
        )
        source = "--init"
    try:
        as_subset(config.init_adopters, g.n)
    except DomainError as exc:
        raise DomainError(f"{source}: {exc}") from None
    return config


def _config_file(path: Path) -> diffusion.DiffusionConfig:
    try:
        values = json.loads(_read_text(path))
    except DomainError:  # non-UTF-8 text, already naming the path
        raise
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: JSON, int digits
        raise DomainError(f"cannot read diffusion config {path}: {exc}")
    if not isinstance(values, dict):
        raise DomainError(f"diffusion config {path} must be a JSON object")
    known = {f.name for f in dataclasses.fields(diffusion.DiffusionConfig)}
    try:
        return diffusion.DiffusionConfig(**{k: v for k, v in values.items() if k in known})
    except DomainError as exc:
        raise DomainError(f"diffusion config {path}: {exc}") from None


def _cmd_diffuse_run(args) -> str:
    g = load_graph(args.graph)
    config = _diffusion_config(args, g)
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
    config = _diffusion_config(args, g)
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
    return _csv_table(rows, args, ("levels", "n_values", "trials"))


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
    return _csv_table(rows, args, ("levels", "payoffs", "epsilon", "trials"))


# --- parser ---------------------------------------------------------------

# The flags that several subcommands take, each with its keywords.  A row of
# _COMMANDS names one of these, or gives a (flag, keywords) pair of its own.
_FLAGS = {
    "--graph": dict(required=True),
    "--pattern": dict(required=True),
    "--n": dict(type=int, required=True),
    "--r": dict(type=_fraction, required=True),
    "--seed": dict(type=int, default=0),
    "--trials": dict(type=int, required=True),
    "--levels": dict(type=_levels, required=True),
    "--format": dict(choices=_FORMATS, default="graph6"),
    "--max-edges": dict(type=int, default=ramsey.COLORING_EDGE_BUDGET),
    "--payoffs": dict(type=_payoffs, required=True, help="a,b,c,d"),
    "--epsilon": dict(type=float, default=0.0),
    "--horizon": dict(type=int, default=0, help="0 = 200*n"),
    "--schedule": dict(choices=("uniform-random", "round-robin"), default="uniform-random"),
    "--jobs": dict(type=int, default=1, help="ignored; trials run in order"),
}
_DIFFUSE = (
    "--graph", "--payoffs", "--epsilon",
    ("--init", dict(type=_int_list, default="", help="initial adopters, e.g. 1,2,3")),
    "--horizon", "--seed", "--schedule",
    ("--config", dict(type=Path, help="JSON file with epsilon/init_adopters/horizon/seed/"
                      "schedule; replaces the individual flags")),
)

# (group, group help, rows): a row is (subcommand, handler, flags), in help
# order.  Every subcommand also takes --out and --manifest, declared in
# build_parser; a row's own "--out" pair replaces the default one, and its
# handler writes that file itself while its text goes to stdout.
_COMMANDS = (
    ("gen", "generate graphs", (
        ("sierpinski", _cmd_gen_sierpinski, (
            ("--level", dict(type=int, required=True)),
            ("--max-level", dict(type=int, default=sierpinski.MAX_LEVEL_DEFAULT)),
            "--format", ("--coords-out", dict(type=Path)))),
        ("gnp", _cmd_gen_gnp, (
            "--n", ("--p", dict(type=float, required=True)), "--seed", "--format")),
        ("plant", _cmd_gen_plant, (
            "--graph", "--pattern", ("--subset", dict(type=_int_list, required=True)), "--format")),
    )),
    ("encode", "canonical and two-part codecs", (
        ("canonical", _cmd_encode_canonical, ("--graph",)),
        ("alt", _cmd_encode_alt, (
            ("--out", dict(type=Path, required=True, help="write the two-part binary here")),
            "--graph",
            ("--occ", dict(type=_int_list, required=True)),
            ("--gen", dict(required=True, help="generator id, e.g. sierpinski:2")),
            ("--ordering", dict(choices=("auto", "ordered", "unordered"), default="auto")))),
    )),
    ("decode", "inverse codecs", (
        ("canonical", _cmd_decode_canonical, (
            ("--bits", dict(required=True, help="bit string or path to one")), "--n", "--format")),
        ("alt", _cmd_decode_alt, (
            ("--alt", dict(type=Path, required=True)),
            ("--format", dict(choices=_FORMATS + ("bits",), default="bits")))),
    )),
    ("closeknit", "close-knit ratios and certificates", (
        ("ratio", _cmd_closeknit_ratio, (
            "--graph",
            ("--group", dict(type=_int_list, required=True, help="comma-separated labels")))),
        ("cert", _cmd_closeknit_cert, ("--graph", "--r", ("--k", dict(type=int, required=True)))),
        ("scan", _cmd_closeknit_scan, (
            ("--levels", dict(type=_levels, required=True, help="e.g. 1-4 or 2,3")),
            "--r", ("--k-cap", dict(type=int, default=8)))),
    )),
    ("ramsey", "induced occurrences, hosts, unions, bounds", (
        ("occurrences", _cmd_ramsey_occurrences, (
            "--graph", "--pattern", ("--limit", dict(type=int)))),
        ("host-check", _cmd_ramsey_host_check, (
            ("--host", dict(required=True)), "--pattern", "--max-edges")),
        ("oracle", _cmd_ramsey_oracle, (
            "--pattern",
            ("--hosts", dict(required=True, help="comma-separated candidates, in order")),
            "--max-edges")),
        ("union", _cmd_ramsey_union, (
            ("--g1", dict(required=True)), ("--g2", dict(required=True)),
            ("--format", dict(choices=_FORMATS + ("roles",), default="roles")))),
        ("split", _cmd_ramsey_split, (
            "--graph", "--pattern",
            ("--mode", dict(choices=("fast", "proof-faithful"), default="fast")),
            "--max-edges")),
        ("bounds", _cmd_ramsey_bounds, (
            "--pattern", ("--c", dict(type=float, default=1.0)),
            ("--c-d", dict(type=float, default=3.0)))),
        ("crossover", _cmd_ramsey_crossover, (("--c-d", dict(type=_fraction, required=True)),)),
    )),
    ("diffuse", "adoption dynamics", (
        ("run", _cmd_diffuse_run, (*_DIFFUSE, ("--trace-out", dict(type=Path)))),
        ("stats", _cmd_diffuse_stats, (*_DIFFUSE, "--trials", "--jobs")),
    )),
    ("experiment", "sampling experiments and sweeps", (
        ("containment", _cmd_experiment_containment, (
            "--n", "--pattern", "--trials", "--seed", ("--p", dict(type=float, default=0.5)),
            "--jobs")),
        ("threshold-sweep", _cmd_experiment_sweep, (
            "--levels",
            ("--n-values", dict(type=_int_list, required=True, help="comma-separated host sizes")),
            ("--trials", dict(type=int, default=50)), "--seed")),
        ("link", _cmd_experiment_link, (
            "--levels", "--payoffs", ("--epsilon", dict(type=float, default=0.02)),
            ("--horizon", dict(type=int, default=0, help="0 = 200*n per level")),
            ("--trials", dict(type=int, default=100)), "--seed", "--schedule", "--jobs")),
    )),
)


_OUT = dict(type=Path, help="write output here instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process from ``_COMMANDS``
    (parsing leaves it unchanged).  ``--out`` and ``--manifest`` are
    declared only here, so both follow the subcommand."""
    parser = argparse.ArgumentParser(
        prog="gasketlab",
        description="Sierpinski gasket graphs: codecs, close-knit ratios, "
        "induced-Ramsey checks, and adoption dynamics.",
    )
    top = parser.add_subparsers(dest="command", required=True)
    for group, group_help, rows in _COMMANDS:
        subs = top.add_parser(group, help=group_help).add_subparsers(
            dest="subcommand", required=True
        )
        for name, func, flags in rows:
            sp = subs.add_parser(name)
            specs = dict((f, _FLAGS[f]) if isinstance(f, str) else f for f in flags)
            own_out = specs.pop("--out", None)
            sp.set_defaults(func=func, _text_out=own_out is None)
            sp.add_argument("--out", **own_out or _OUT)
            sp.add_argument("--manifest", type=Path, help="write a run manifest JSON")
            for flag, keywords in specs.items():
                sp.add_argument(flag, **keywords)
    return parser


def _manifest(args, paths: list[str]) -> dict:
    params = {}
    for key, value in sorted(vars(args).items()):
        if key in ("func", "manifest") or key.startswith("_"):
            continue
        value = _as_given(value)
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
        if args.out and args._text_out:
            Path(args.out).write_text(text)
            paths.append(str(args.out))
        else:
            sys.stdout.write(text)
        if args.manifest:
            Path(args.manifest).write_text(_json_dump(_manifest(args, paths)))
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: ran out of memory on this input", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
