"""Helpers that only the tests use: reference routes and views of public data."""

from pathlib import Path

import numpy as np

from kquant import delta_i_sigma, fs, identity_lift
from kquant.functionals import S_NODES, S_WEIGHTS


def path_integral_by_node(path, one_form) -> float:
    """The path rule one node at a time: the oracle for the block evaluation."""
    total = 0.0
    for s, w in zip(S_NODES, S_WEIGHTS):
        total += w * one_form(path.phi(s), path.dphi(s))
    return float(total)


def z_first_variation(geo, grid, s: float, lift=None) -> float:
    """dZ/ds along the geodesic, through the chain rule on its two terms.

    d(i_k)/ds = 2 sum lambda_a; the embedding-potential velocity is the
    exact ratio -(1/k) sum 2 lam e^{-2 lam s}|tau|^2 / sum e^{-2 lam s}|tau|^2
    fed to the twisted Aubin differential.
    """
    k = geo.degree
    lift = identity_lift(k) if lift is None else lift
    pot = fs(geo.form_at(s), grid)
    vel = -grid.geodesic_slope(geo, s) / k
    return float(delta_i_sigma(pot, vel, k, lift)) + float(2.0 * np.sum(geo.lambdas))


def geodesic_distance(geo) -> float:
    """Length of the form-space geodesic: the l2 norm of 2 lambda."""
    return float(np.sqrt(np.sum((2.0 * geo.lambdas) ** 2)))


def map_points(lift, z):
    """The point map z -> scale * z of a lift."""
    return lift.scale * z


def section_matrix(lift) -> np.ndarray:
    """The lift's action diag(scale^j) on the monomial sections."""
    return np.diag(np.asarray(lift.scale, dtype=complex) ** np.arange(lift.degree + 1))


def hermitian_defect(form) -> float:
    return float(np.max(np.abs(form.entries - form.entries.conj().T)))


def write_iteration_csv(log, path) -> None:
    lines = ["iter,residual,min_eigenvalue,energy"]
    for i, (r, m, e) in enumerate(zip(log.residuals, log.min_eigenvalues, log.energies)):
        lines.append(f"{i},{r:.17g},{m:.17g},{e:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")
