"""Helpers that only the tests use: reference routes and views of public data."""

from pathlib import Path

import numpy as np

import kquant.functionals
from kquant import (
    SBAR,
    circle_group,
    delta_i_sigma,
    extremal_field,
    fs,
    holomorphy_potential,
    identity_lift,
    linear_path,
    metric_data,
)
from kquant.functionals import S_NODES, S_WEIGHTS


def path_integral_by_node(path, one_form) -> float:
    """The path rule one node at a time: the oracle for the block evaluation."""
    total = 0.0
    for s, w in zip(S_NODES, S_WEIGHTS):
        total += w * one_form(path.phi(s), path.dphi(s))
    return float(total)


def path_primitive(pot, density_of) -> float:
    """Primitive at phi of the one-form eta -> int eta g(phi) d mu_phi, by the
    path rule along the straight segment from 0, which integrates the closed
    one-forms used here exactly.  The rule is looked up on the module at call
    time, so a test may swap in the node-by-node loop."""

    def one_form(p, vel):
        md = metric_data(p)
        return md.integrate(vel * density_of(p, md))

    return kquant.functionals._path_integral(linear_path(pot), one_form)


def path_energies(pot, V) -> dict[str, float]:
    """The K-energy, the moment energy of V and the modified K-energy of V's
    circle of an invariant potential by the path rule: the oracle for the
    closed forms."""
    K = path_primitive(pot, lambda p, md: -(md.scalar - SBAR))

    def moment(W):
        return path_primitive(pot, lambda p, md: holomorphy_potential(W, p, md))

    return {"mabuchi": K, "moment": moment(V), "relative": moment(extremal_field(circle_group(V), pot.grid)) + K}


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
    return np.diag(lift.scale ** np.arange(lift.degree + 1.0))


def hermitian_defect(form) -> float:
    return float(np.max(np.abs(form.entries - form.entries.conj().T)))


# ---------------------------------------------------------------------------
# Chart derivatives and the dense 2D section-table route, kept as oracles


def rho_of(grid):
    """rho = |z|^2 = u/(1-u) at the radial nodes."""
    return grid.u / (1.0 - grid.u)


def radial_d_drho(grid, values):
    """d/drho of a radial field: (1-u)^2 d/du."""
    return (1.0 - grid.u) ** 2 * grid.apply_radial(grid.D, values)


def radial_ddbar(grid, values):
    """Mixed chart derivative d_z d_zbar of a radial field: (rho f')'."""
    return radial_d_drho(grid, rho_of(grid) * radial_d_drho(grid, values))


def angular_symbol(grid):
    """The FFT frequencies m of the angular axis."""
    return np.fft.fftfreq(grid.n_theta, d=1.0 / grid.n_theta)


def full2d_d_drho(grid, values):
    return ((1.0 - grid.u) ** 2)[:, None] * (grid.radial.D @ values)


def full2d_d_dtheta(grid, values):
    spec = np.fft.fft(values, axis=-1)
    return np.real(np.fft.ifft(1j * angular_symbol(grid) * spec, axis=-1))


def full2d_ddbar(grid, values):
    """d_z d_zbar f = (rho f_rho)_rho + f_theta_theta / (4 rho), through the angular FFT."""
    spec = np.fft.fft(values, axis=-1)
    rho = rho_of(grid)[:, None]
    radial = full2d_d_drho(grid, rho * full2d_d_drho(grid, spec))
    angular = -(angular_symbol(grid) ** 2) * spec / (4.0 * rho)
    return np.real(np.fft.ifft(radial + angular, axis=-1))


def laplace_floor(grid, F):
    """Forward error bound n eps |D| (u(1-u) |D| |F|) of the radial products in Delta_0 F."""
    absD = np.abs(grid.radial.D)
    uu = grid.broadcast(grid.u * (1.0 - grid.u))
    return grid.resolution * np.finfo(float).eps * grid.apply_radial(absD, uu * grid.apply_radial(absD, np.abs(F)))


def fft_base_laplace(grid, values):
    """Delta_0 f = -(d_z d_zbar f)/A_0 by the FFT route."""
    return -full2d_ddbar(grid, values) / ((1.0 - grid.u) ** 2)[:, None]


def fft_base_inner_grad(grid, f, g):
    """(rho f_rho g_rho + f_theta g_theta / (4 rho))/A_0 by the FFT route."""
    rho = rho_of(grid)[:, None]
    fr, gr = full2d_d_drho(grid, f), full2d_d_drho(grid, g)
    ft, gt = full2d_d_dtheta(grid, f), full2d_d_dtheta(grid, g)
    return (rho * fr * gr + ft * gt / (4.0 * rho)) / ((1.0 - grid.u) ** 2)[:, None]


def section_table(grid, k):
    """s_j at the 2D nodes weighted by the base half-norm, shape (n_u * n_theta, k+1)."""
    mag = np.exp(0.5 * grid.radial.log_section_norms(k))
    phase = np.exp(1j * grid.theta[:, None] * np.arange(k + 1)[None, :])
    return (mag[:, None, :] * phase[None, :, :]).reshape(-1, k + 1)


def dense_gram(grid, k, weight):
    """sum_nodes weight conj(s_a) s_b, assembled as P^dagger P."""
    P = section_table(grid, k) * np.sqrt(weight.ravel())[:, None]
    return P.conj().T @ P


def table_contraction(grid, k, coeffs, scales=None):
    """sum_a scales_a |tau_a|^2 at the 2D nodes, tau_a = sum_j coeffs[j, a] s_j."""
    tau_sq = np.abs(section_table(grid, k) @ coeffs) ** 2
    scales = np.ones(coeffs.shape[1]) if scales is None else scales
    return (tau_sq @ scales).reshape(grid.shape)


def table_log_density(grid, form):
    """log sum_a |tau_a|^2 over the basis tau = s L^{-dagger}, orthonormal for H = L L^dagger."""
    Linv = np.linalg.inv(np.linalg.cholesky(form.dense()))
    return np.log(table_contraction(grid, form.degree, Linv.conj().T))


def table_geodesic_slope(grid, geo, s):
    w = np.exp(-2.0 * geo.lambdas * s)
    num = table_contraction(grid, geo.degree, geo.coeffs, 2.0 * geo.lambdas * w)
    return num / table_contraction(grid, geo.degree, geo.coeffs, w)


def write_iteration_csv(log, path) -> None:
    lines = ["iter,residual,min_eigenvalue,energy"]
    for i, (r, m, e) in enumerate(zip(log.residuals, log.min_eigenvalues, log.energies)):
        lines.append(f"{i},{r:.17g},{m:.17g},{e:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")
