"""Command line entry point.

    kquant list
    kquant run --experiment bergman-expansion [--config lab.cfg] [--k 8,16,32]
               [--resolution 512] [--seed 7] [--out reports] [--format csv,json,svg]

Config files are flat key = value text; command line flags override file
keys.  The exit code is 0 exactly when every verdict of every requested
experiment passes, and 2 for a bad config or input file or a report that
cannot be written.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .geometry import KQuantError
from .lab import EXPERIMENTS, ExperimentConfig, run_experiment
from .reporting import emit_report, report_path


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


def _check_outputs(cfg: ExperimentConfig) -> None:
    """Raise KQuantError unless the output directory exists or its nearest
    existing ancestor can hold it, and each report file in it can be written."""
    path = Path(cfg.out_dir).absolute()
    ancestor = next(p for p in (path, *path.parents) if p.exists())
    if not ancestor.is_dir() or not os.access(ancestor, os.W_OK):
        raise KQuantError(f"cannot create output directory {cfg.out_dir}: {ancestor} is not a writable directory")
    for fmt in cfg.formats:
        report = report_path(cfg.out_dir, cfg.experiment, fmt)
        if report.is_dir() or (report.exists() and not os.access(report, os.W_OK)):
            raise KQuantError(f"cannot write report file {report}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="kquant", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="enumerate experiments")
    runp = sub.add_parser("run", help="run an experiment and emit reports")
    runp.add_argument("--experiment", required=True, help="experiment name or 'all'")
    runp.add_argument("--config", help="flat key = value config file")
    runp.add_argument("--k", help="degree list, comma- or space-separated")
    runp.add_argument("--resolution")
    runp.add_argument("--seed")
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
        flags = dict(k_list=args.k, formats=args.format, resolution=args.resolution, seed=args.seed, out_dir=args.out)
        fields.update(_coerce({key: value for key, value in flags.items() if value}))
    except (KQuantError, OSError, ValueError) as err:
        print(f"invalid config: {err}", file=sys.stderr)
        return 2

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    fields.pop("experiment", None)
    configs = []
    for name in names:  # every config is checked before the first run
        try:
            configs.append(ExperimentConfig(experiment=name, **fields))
            _check_outputs(configs[-1])
        except (KQuantError, TypeError) as err:
            print(f"invalid config for {name}: {err}", file=sys.stderr)
            return 2
    all_pass = True
    for name, cfg in zip(names, configs):
        try:
            report = run_experiment(cfg)
        except KQuantError as err:  # set-up errors, such as a bad potential file
            print(f"invalid input for {name}: {err}", file=sys.stderr)
            return 2
        status = "PASS" if report.passed else "FAIL"
        print(f"{status} {name}")
        for v in report.verdicts:
            rel = v.comparison
            print(f"    {v.criterion}: {v.value:.6g} {rel} {v.threshold:.6g} -> {'ok' if v.passed else 'FAIL'}")
        try:
            paths = emit_report(report, list(cfg.formats), cfg.out_dir)
        except RuntimeError as err:  # the output changed after the pre-run check
            print(f"cannot write the report of {name}: {err}", file=sys.stderr)
            return 2
        for p in paths:
            print(f"    wrote {p}")
        all_pass = all_pass and report.passed
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
