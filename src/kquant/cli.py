"""Command line entry point.

    kquant list
    kquant run --experiment bergman-expansion [--config lab.cfg] [--k 8,16,32]
               [--resolution 512] [--seed 7] [--out reports] [--format csv,json,svg]

Config files are flat key = value text; command line flags override file
keys.  The exit code is 0 exactly when every verdict of every requested
experiment passes, and 2 for a bad config or input file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .geometry import KQuantError
from .lab import EXPERIMENTS, ExperimentConfig, run_experiment
from .reporting import emit_report


def _parse_config_file(path: str) -> dict:
    fields = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise KQuantError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    return fields


def _coerce(fields: dict) -> dict:
    out = {}
    for key, value in fields.items():
        if key in ("resolution", "n_theta", "seed"):
            out[key] = int(value)
        elif key == "k_list":
            out[key] = tuple(int(t) for t in value.replace(",", " ").split())
        elif key == "formats":
            out[key] = tuple(t.strip() for t in value.split(","))
        elif key == "potential":
            toks = value.split()
            try:
                out[key] = tuple(float(t) for t in toks)
            except ValueError:
                out[key] = value
        else:
            out[key] = value
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="kquant", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="enumerate experiments")
    runp = sub.add_parser("run", help="run an experiment and emit reports")
    runp.add_argument("--experiment", required=True, help="experiment name or 'all'")
    runp.add_argument("--config", help="flat key = value config file")
    runp.add_argument("--k", help="comma-separated degree list")
    runp.add_argument("--resolution", type=int)
    runp.add_argument("--seed", type=int)
    runp.add_argument("--out", help="output directory")
    runp.add_argument("--format", help="comma-separated: csv,json,svg")
    args = parser.parse_args(argv)

    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0

    fields: dict = {}
    try:
        if args.config:
            fields.update(_coerce(_parse_config_file(args.config)))
        if args.k:
            fields["k_list"] = tuple(int(t) for t in args.k.split(","))
    except (KQuantError, OSError, ValueError) as err:
        print(f"invalid config: {err}", file=sys.stderr)
        return 2
    if args.resolution is not None:
        fields["resolution"] = args.resolution
    if args.seed is not None:
        fields["seed"] = args.seed
    if args.out:
        fields["out_dir"] = args.out
    if args.format:
        fields["formats"] = tuple(t.strip() for t in args.format.split(","))

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    all_pass = True
    for name in names:
        try:
            cfg = ExperimentConfig(experiment=name, **{k: v for k, v in fields.items() if k != "experiment"})
        except (KQuantError, TypeError) as err:
            print(f"invalid config for {name}: {err}", file=sys.stderr)
            return 2
        try:
            report = run_experiment(cfg)
        except KQuantError as err:  # set-up errors, such as a bad potential file
            print(f"invalid input for {name}: {err}", file=sys.stderr)
            return 2
        paths = emit_report(report, list(cfg.formats), cfg.out_dir)
        status = "PASS" if report.passed else "FAIL"
        print(f"{status} {name}")
        for v in report.verdicts:
            rel = v.comparison
            print(f"    {v.criterion}: {v.value:.6g} {rel} {v.threshold:.6g} -> {'ok' if v.passed else 'FAIL'}")
        for p in paths:
            print(f"    wrote {p}")
        all_pass = all_pass and report.passed
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
