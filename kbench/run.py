"""Benchmark of kquant: four workloads, end-to-end and per-layer metrics.

    python3 kbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 kbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory, never from an installed copy.  A run alternates set-ups
(a fresh import of kquant, the pass's inputs, a warm-up) and timed passes
over the workload's operations until ``--seconds`` have elapsed, with at
least one pass.  Every pass therefore starts with the program's caches
cold, as a single ``kquant run`` does, and its outputs are checked after
the clock stops.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics: ``wall_s`` (median duration of a timed pass),
``setup_s`` (median duration of a set-up: importing kquant, building the
pass's grids and inputs, and the warm-up) and ``peak_rss_mib`` (peak
resident set of the process).  With ``--trace 1`` the layer functions are
wrapped (see spans.py) and the last line holds the per-layer metrics: the
median set-up figure plus the median pass figure.  Results and spans are also
written under ``kbench/results/``.  ``--workload all`` runs each workload in
a process of its own and prints one summary line per workload.
"""

from __future__ import annotations

import os

# One BLAS thread: on a small shared machine a second thread makes the
# timings depend on what else runs.  Set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import gc
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
from spans import Tracer
from workloads import FULL, WORKLOADS, warm_up

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 5

# The metric names and units are those BENCHMARK.json declares.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
FIELDS = {"calls": 0, "self_s": 1, "iterations": 2}  # columns of a span record


def import_kquant():
    """Import kquant from the checkout's src/, dropping any earlier import."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "kquant" or m.startswith("kquant.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    import kquant

    if Path(kquant.__file__).resolve().parent != SRC / "kquant":
        raise ImportError(f"kquant imported from {kquant.__file__}, not from {SRC}")
    return kquant


def set_up(workload, seed, size, tracer=None):
    """Import kquant afresh, build the pass's inputs and warm up; return the operations."""
    kq = import_kquant()
    if tracer is not None:
        tracer.install(kq)
    ops = workload(kq, seed, size)
    warm_up(kq)
    return ops


def timed_pass(ops) -> tuple[float, dict, set]:
    """Run every operation under the clock; return (seconds, outputs, names that raised)."""
    outs, raised = {}, set()
    gc.collect()
    start = perf_counter()
    for op in ops:
        try:
            outs[op.name] = op.run()
        except Exception:  # a failed operation is counted, and the pass goes on
            raised.add(op.name)
    return perf_counter() - start, outs, raised


def failed_ops(ops, outs, raised) -> list[str]:
    """Names of the operations that raised or whose output fails its check."""
    failed = []
    for op in ops:
        try:
            ok = op.name not in raised and bool(op.check(outs[op.name], outs))
        except Exception:  # a check that cannot evaluate an output fails it
            ok = False
        if not ok:
            failed.append(op.name)
    return failed


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def layer_metrics(setup_stats, pass_stats) -> dict:
    """Median set-up figure plus median pass figure of every layer metric."""

    def median_total(phases, name, field):
        col = FIELDS[field]
        return statistics.median(
            sum(rec[col] for (fn, _), rec in stats.items() if fn == name) for stats in phases
        )

    metrics = {}
    for metric, unit in LAYER_UNITS.items():
        name, field = metric.rsplit(".", 1)
        value = median_total(setup_stats, name, field) + median_total(pass_stats, name, field)
        metrics[metric] = {"value": value, "unit": unit}
    return metrics


def span_table(setup_stats, pass_stats) -> list[dict]:
    """Per (function, degree) rows: median set-up and median pass figures."""
    keys = set().union(*setup_stats, *pass_stats)
    rows = []
    for key in sorted(keys, key=lambda key: (key[0], key[1] or 0)):
        row = {"function": key[0], "degree": key[1]}
        for phase, phases in (("setup", setup_stats), ("pass", pass_stats)):
            for field, col in FIELDS.items():
                row[f"{phase}_{field}"] = statistics.median(s.get(key, [0, 0.0, 0])[col] for s in phases)
        rows.append(row)
    return rows


def run_one(name: str, seed: int, seconds: float, trace: bool, size) -> dict:
    """Set up, then pass, until ``seconds`` of passes have elapsed.

    Every pass follows a set-up of its own, so its caches start cold and the
    set-up samples spread over the whole run; the first pass follows
    SETUP_REPEATS set-ups.
    """
    workload = WORKLOADS[name]
    tracer = Tracer() if trace else None
    setups, setup_stats, walls, pass_stats, pass_usage = [], [], [], [], []
    attempted, failed, unexpected = 0, 0, set()
    began = None
    while began is None or perf_counter() - began < seconds:
        for _ in range(1 if setups else SETUP_REPEATS):
            start = perf_counter()
            ops = set_up(workload, seed, size, tracer)
            setups.append(perf_counter() - start)
            if trace:
                setup_stats.append(tracer.take())
        began = began or perf_counter()
        before = resource.getrusage(resource.RUSAGE_SELF)
        wall, outs, raised = timed_pass(ops)
        after = resource.getrusage(resource.RUSAGE_SELF)
        walls.append(wall)
        pass_usage.append(
            {
                "user_s": after.ru_utime - before.ru_utime,
                "sys_s": after.ru_stime - before.ru_stime,
                "minor_faults": after.ru_minflt - before.ru_minflt,
            }
        )
        if trace:
            pass_stats.append(tracer.take())
        bad = failed_ops(ops, outs, raised)
        del outs  # the next pass starts without this pass's outputs held
        attempted += len(ops)
        failed += len(bad)
        unexpected.update(op.name for op in ops if op.name in bad and not op.known_fault)
    if trace:
        metrics = layer_metrics(setup_stats, pass_stats)
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    result = {"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "pass_walls_s": walls,
        "pass_usage": pass_usage,
        "setup_samples_s": setups,
        "operations": [op.name for op in ops],
        "known_faults": [op.name for op in ops if op.known_fault],
        "unexpected_failures": sorted(unexpected),
        "result": result,
    }
    if trace:
        record["spans"] = span_table(setup_stats, pass_stats)
    return record


def write_record(record: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    tag = "trace" if record["trace"] else "plain"
    path = RESULTS / f"{record['workload']}-seed{record['seed']}-{tag}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")


def run_all(args) -> int:
    summary, status = {}, 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exit code {proc.returncode}, no result")
            status = 2
            continue
        result = json.loads(lines[-1])
        status = max(status, proc.returncode)
        summary[name] = result
        figures = "  ".join(
            f"{k}={m['value']:.6g}{m['unit']}" for k, m in result["metrics"].items()
            if not args.trace or k.endswith(".self_s")
        )
        print(
            f"{name}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']}  {figures}"
        )
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kquant" / "__init__.py").is_file():
        print(f"kbench: no kquant sources at {SRC}; run from the root of a kquant checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    record = run_one(args.workload, args.seed % 2**32, args.seconds, bool(args.trace), FULL)
    write_record(record)
    env = record["environment"]
    print(
        f"# {record['workload']} seed={record['seed']} passes={len(record['pass_walls_s'])} "
        f"numpy={env['numpy']} blas={env['blas']} blas_threads={env['blas_threads']}"
    )
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
