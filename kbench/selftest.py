"""Self-test of the benchmark, at a tiny size.

    python3 kbench/selftest.py

Runs every workload once at the tiny size, plainly and traced, and requires
that no operation fails other than the known fault.  Then it perturbs one
output of each workload by about 1e-6 (rho_k of the round metric shifted by
1e-6, for instance) and requires the checks to count that operation as
failed.  Exits 0 when every test holds.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import numpy as np
import run
from workloads import TINY, WORKLOADS

SEED = 7
K2 = TINY.ks2d[0]
KH = TINY.high_ks[0]
KP = TINY.psi_ks[0]


def _shift(field, by=1e-6):
    return replace(field, values=field.values + by)


def _skew(form):
    entries = form.entries.copy()
    entries[0, 1] += 1e-6 * np.max(np.abs(entries))
    return replace(form, entries=entries)


# For each workload: (operation, perturbation of its output).
PERTURBATIONS = {
    "twist-paths": [(f"psi_potential-{KP}", _shift)],
    "radial-high-degree": [
        (f"bergman0-{KH}", _shift),
        (f"gram0-{KH}", lambda H: replace(H, entries=H.entries * (1.0 + 1e-6))),
        (f"fs-{KH}", _shift),
        (f"i_k-{KH}", lambda v: v + 1e-6),
    ],
    "full2d": [
        (f"bergman-invariant-{K2}", lambda pair: (_shift(pair[0]), pair[1])),
        (f"fs-{K2}", _shift),
        (f"hilb-{K2}", _skew),
        (f"psi_potential-{K2}", _shift),
        ("metric_data", lambda md: replace(md, density=md.density + 1e-6)),
    ],
    "classical-energies": [
        ("calabi", lambda vals: [v + 1e-6 for v in vals]),
        ("mabuchi_energy", lambda vals: [-1e-6] + list(vals[1:])),
    ],
}


def main() -> int:
    problems = []
    for name, workload in WORKLOADS.items():
        ops = run.set_up(workload, SEED, TINY)
        _, outs, raised = run.timed_pass(ops)
        failed = run.failed_ops(ops, outs, raised)
        faults = {op.name for op in ops if op.known_fault}
        if set(failed) - faults:
            problems.append(f"{name}: unexpected failures {sorted(set(failed) - faults)}")
        for op_name, perturb in PERTURBATIONS[name]:
            bent = dict(outs, **{op_name: perturb(outs[op_name])})
            if op_name not in run.failed_ops(ops, bent, raised):
                problems.append(f"{name}: perturbed {op_name} passed its check")
        print(f"{name}: {len(ops)} operations, failed {failed}")

    tracer = run.Tracer()
    ops = run.set_up(WORKLOADS["radial-high-degree"], SEED, TINY, tracer)
    setup_stats = tracer.take()
    _, outs, raised = run.timed_pass(ops)
    pass_stats = tracer.take()
    metrics = run.layer_metrics([setup_stats], [pass_stats])
    if sorted(metrics) != sorted(run.LAYER_UNITS):
        problems.append("traced run does not report every layer metric")
    if any(m["value"] <= 0 for m in metrics.values()):
        problems.append("a layer metric reads zero although the warm-up touches every layer")
    for layer in ("quantize.hilb", "quantize.fs", "quantize.bergman", "functionals.i_k",
                  "functionals.fk_prime", "quantize.sigma_balanced_iterate", "lab.run_experiment"):
        if not any(fn == layer for fn, _ in pass_stats):
            problems.append(f"the traced pass recorded no span of {layer}")
    if set(run.failed_ops(ops, outs, raised)) - {op.name for op in ops if op.known_fault}:
        problems.append("the traced run changes a checked result")

    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
