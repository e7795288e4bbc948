"""Acceptance gate: every criterion at its pinned tolerance.

Each test prints one PASS/FAIL line.  Criteria 1 and 2 exercise the
quantization maps directly; the remaining ten run the named experiments with
their default (pinned) configurations and assert every verdict.
"""

import numpy as np
import pytest

from kquant import (
    ACCEPTANCE,
    ExperimentConfig,
    bergman,
    build_grid,
    fs,
    hilb,
    metric_data,
    potential_from_radial_coeffs,
    potential_from_values,
    run_experiment,
    sections_dim,
    zero_potential,
)

RES = 512


def _announce(num, name, passed, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})")


def _run_and_check(num, name, **cfg_kwargs):
    cfg = ExperimentConfig(**cfg_kwargs)
    report = run_experiment(cfg)
    detail = "; ".join(
        f"{v.criterion}={v.value:.3g} {v.comparison} {v.threshold:.3g}" for v in report.verdicts
    )
    _announce(num, name, report.passed, detail)
    assert report.passed, f"{name}: {detail}"
    return report


@pytest.fixture(scope="module")
def radial_grid():
    return build_grid("radial", RES)


@pytest.fixture(scope="module")
def grid2d():
    return build_grid("full2d", 96, 64)


def test_criterion_01_balanced_round_metric(radial_grid):
    flat = zero_potential(radial_grid)
    md = metric_data(flat)
    rho_err = 0.0
    fs_err = 0.0
    for k in range(1, 17):
        rho = bergman(flat, k, md=md)
        rho_err = max(rho_err, float(np.max(np.abs(rho.values - (k + 1)))))
        proj = fs(hilb(flat, k, md=md), radial_grid)
        fs_err = max(fs_err, float(np.max(np.abs(proj.values))))
    rho_tol, fs_tol = ACCEPTANCE["balanced_rho_sup"], ACCEPTANCE["balanced_fs_sup"]
    passed = rho_err <= rho_tol and fs_err <= fs_tol
    _announce(1, "balanced round metric", passed, f"sup|rho-(k+1)|={rho_err:.2e}, sup|fs o hilb|={fs_err:.2e}")
    assert rho_err <= rho_tol
    assert fs_err <= fs_tol


def test_criterion_02_projection_identity(radial_grid, grid2d):
    rng = np.random.default_rng(42)
    pots = [
        potential_from_radial_coeffs(radial_grid, rng.uniform(-0.05, 0.05, 4))
        for _ in range(7)
    ]
    x1 = 2.0 * np.sqrt(grid2d.u * (1.0 - grid2d.u))[:, None] * np.cos(grid2d.theta)[None, :]
    for _ in range(3):
        c = rng.uniform(-0.03, 0.03, 3)
        vals = c[0] * x1 + c[1] * (grid2d.u**2)[:, None] + c[2] * grid2d.u[:, None]
        pots.append(potential_from_values(grid2d, vals, invariant=False))
    worst = 0.0
    for pot in pots:
        md = metric_data(pot)
        for k in (4, 8, 16):
            lhs = fs(hilb(pot, k, md=md), pot.grid).values
            rho = bergman(pot, k, md=md).values
            rhs = pot.values + np.log(rho / sections_dim(k)) / k
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    passed = worst <= ACCEPTANCE["identity_sup"]
    _announce(2, "projection identity", passed, f"sup defect={worst:.2e}")
    assert worst <= ACCEPTANCE["identity_sup"]


def test_criterion_03_density_expansion():
    _run_and_check(3, "density-of-states expansion", experiment="bergman-expansion", resolution=RES)


def test_criterion_04_twist_potential_expansion():
    _run_and_check(4, "twist potential expansion", experiment="psi-expansion", resolution=RES)


def test_criterion_05_path_independence():
    _run_and_check(5, "path independence", experiment="path-independence", resolution=RES)


def test_criterion_06_second_derivative_formula():
    _run_and_check(6, "second-derivative formula", experiment="hessian-check", resolution=RES)


def test_criterion_07_concavity_threshold():
    _run_and_check(7, "concavity along projection path", experiment="i-concavity", resolution=RES)


def test_criterion_08_z_convexity():
    _run_and_check(8, "convexity along form geodesics", experiment="z-convexity", resolution=RES)


def test_criterion_09_compare_energies():
    _run_and_check(9, "L/Z comparison", experiment="compare-LZ", resolution=RES)


def test_criterion_10_energy_quantization():
    _run_and_check(10, "energy quantization", experiment="quantize-E", resolution=RES)


def test_criterion_11_almost_balanced():
    _run_and_check(11, "almost-balanced slope", experiment="almost-balanced", resolution=RES)


def test_criterion_12_minimization():
    _run_and_check(12, "energy minimization", experiment="minimization", resolution=RES)
