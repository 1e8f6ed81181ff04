"""Command-line interface: run, report, sweep, validate."""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from .harness import (MalformedRowError, export_records, report, run_scenario,
                      stats_payload)
from .scenario import ConfigError, load_document, load_scenario, parse_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def resolve_scenario(name_or_path: str) -> Path:
    p = Path(name_or_path)
    if p.exists():
        return p
    shipped = resources.files("tsnsim") / "scenarios" / f"{name_or_path}.json"
    with resources.as_file(shipped) as sp:
        if sp.exists():
            return sp
    raise FileNotFoundError(f"no such scenario: {name_or_path}")


def _write_stats(payload: dict, out_dir: Path) -> None:
    """Write stats.json and one histogram TSV per timestamp kind."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "stats.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for kind, st in payload["kinds"].items():
        with open(out_dir / f"histogram_{kind}.tsv", "w") as fh:
            for bin_start, count in st["histogram"]:
                fh.write(f"{bin_start}\t{count}\n")


def _write_outputs(result, out_dir: Path, bin_width: int):
    payload = stats_payload(result.records, bin_width, drops=result.drops,
                            metadata=result.metadata)
    _write_stats(payload, out_dir)
    export_records(result.records, out_dir / "records.csv")
    return payload


class _RunError(Exception):
    """A scenario that failed as it ran or wrote its outputs: exit 3."""


def _run_and_write(cfg, seed, out_dir: Path, where: str = ""):
    """(result, stats payload) of cfg's run, its outputs written to out_dir."""
    try:
        result = run_scenario(cfg, seed=seed)
        return result, _write_outputs(result, out_dir, cfg.run.histogram_bin_ns)
    except Exception as exc:
        raise _RunError(f"runtime error{where}: {exc}") from exc


def cmd_run(args) -> int:
    cfg = load_scenario(resolve_scenario(args.scenario))
    result, payload = _run_and_write(cfg, args.seed, Path(args.out))
    print(f"{len(result.records)} records -> {args.out}")
    for kind, st in payload["kinds"].items():
        print(f"  {kind}: mean {st['mean_ns']:.1f} ns, "
              f"p80 radius {st['p80_radius_ns']} ns, max {st['max_ns']} ns")
    return EXIT_OK


def cmd_report(args) -> int:
    if args.bin_width < 1:
        print(f"--bin-width must be at least 1, got {args.bin_width}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        payload = report(args.csv, args.bin_width)
    except OSError as exc:  # missing, a directory, unreadable
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    except MalformedRowError as exc:
        print(f"malformed CSV: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    try:
        _write_stats(payload, Path(args.out) if args.out else Path(args.csv).parent)
    except OSError as exc:  # --out names a file, or is not writable
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(json.dumps(payload["kinds"], indent=2, sort_keys=True))
    return EXIT_OK


def _set_dotted(doc: dict, dotted: str, value):
    keys = dotted.split(".")
    node = doc
    for k in keys[:-1]:
        node = node.setdefault(k, {})
        if not isinstance(node, dict):
            raise ConfigError([f"{dotted}: {k} is not an object"])
    node[keys[-1]] = value


def cmd_sweep(args) -> int:
    """Parse the scenario at every value first, then run each."""
    doc = load_document(resolve_scenario(args.scenario))
    parse_scenario(doc)
    variants = []
    for raw in args.values.split(","):
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        variant = json.loads(json.dumps(doc))
        try:
            _set_dotted(variant, args.param, value)
            variants.append((f"{args.param}={value}", parse_scenario(variant)))
        except ConfigError as exc:
            exc.args = (f"{args.param}={value}: {exc}",)  # as main prints it
            raise
    for name, cfg in variants:
        result, _ = _run_and_write(cfg, args.seed, Path(args.out) / name, f" at {name}")
        print(f"{name}: {len(result.records)} records")
    return EXIT_OK


def cmd_validate(args) -> int:
    load_scenario(resolve_scenario(args.scenario))
    print("ok")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tsnsim",
                                     description="Deterministic TSN data-path simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a scenario and write records + stats")
    p.add_argument("scenario", help="scenario file or shipped scenario name")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override run.seed")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="recompute stats from a records CSV")
    p.add_argument("csv")
    p.add_argument("--out", default=None)
    p.add_argument("--bin-width", type=int, default=100)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("sweep", help="run a scenario over several parameter values")
    p.add_argument("scenario")
    p.add_argument("--param", required=True, help="dotted config key, e.g. run.seed")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="check a scenario file")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:  # run.seed's rule
            raise ConfigError([f"--seed: must be >= 0, got {args.seed}"])
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    except _RunError as exc:
        print(exc, file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
