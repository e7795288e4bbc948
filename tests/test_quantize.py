import math

import numpy as np
import pytest

from kquant import (
    AutomorphismLift,
    HermForm,
    KQuantError,
    NotPositiveDefiniteError,
    balanced_residual,
    bergman,
    fs,
    hilb,
    identity_lift,
    metric_data,
    potential_from_radial_coeffs,
    potential_from_values,
    psi_potential,
    sections_dim,
    sigma_balanced_iterate,
    sigma_lift,
    rotation_field,
    zero_potential,
)

from helpers import hermitian_defect, radial_ddbar, rho_of, write_iteration_csv


def eigh_contraction(form: HermForm, grid) -> np.ndarray:
    """Radial section density through an eigendecomposition orthonormalization."""
    H = 0.5 * (form.entries + form.entries.conj().T)
    vals, vecs = np.linalg.eigh(H)
    if vals.min() <= 0.0:
        raise NotPositiveDefiniteError("form is not positive definite")
    C = vecs / np.sqrt(vals)[None, :]  # columns: H-orthonormal coefficients
    Hinv = C @ C.conj().T
    return np.exp(grid.log_section_norms(form.degree)) @ np.real(np.diag(Hinv))


def beta_moment(j: int, k: int) -> float:
    """Oracle int_0^inf t^j (1+t)^(-k-2) dt = j! (k-j)! / (k+1)!."""
    return math.exp(
        math.lgamma(j + 1) + math.lgamma(k - j + 1) - math.lgamma(k + 2)
    )


def test_section_basis_dimensions(flat):
    assert hilb(flat, 1).dimension == 2
    assert hilb(flat, 3).dimension == 4


def test_degree_zero_raises(radial, flat):
    with pytest.raises(KQuantError):
        hilb(flat, 0)
    with pytest.raises(KQuantError):
        bergman(flat, 0)
    with pytest.raises(KQuantError):
        fs(HermForm(np.ones((1, 1), dtype=complex), 0), radial)


def test_degree_one_norms_sum_to_one(radial):
    norms = np.exp(radial.log_section_norms(1))
    assert np.max(np.abs(norms.sum(axis=1) - 1.0)) <= 1e-14


@pytest.mark.parametrize("k", [1, 2, 5, 12])
def test_gram_diagonal_beta_oracle(radial, flat, k):
    H = hilb(flat, k)
    oracle = np.array([beta_moment(j, k) for j in range(k + 1)])
    assert np.max(np.abs(np.real(np.diag(H.entries)) - oracle)) <= 1e-13
    off = H.entries - np.diag(np.diag(H.entries))
    assert np.max(np.abs(off)) == 0.0


def test_gram_constant_shift_scaling(radial, bump):
    k, c = 6, 0.31
    H = hilb(bump, k)
    Hc = hilb(bump.shifted(c), k)
    assert np.max(np.abs(Hc.entries - np.exp(-k * c) * H.entries)) <= 1e-12


def test_gram_hermitian_positive(grid2d):
    x1 = 2.0 * np.sqrt(grid2d.u * (1.0 - grid2d.u))[:, None] * np.cos(grid2d.theta)[None, :]
    pot = potential_from_values(grid2d, 0.03 * x1, invariant=False)
    H = hilb(pot, 8)
    assert hermitian_defect(H) <= 1e-14
    assert H.min_eigenvalue() > 0.0


def test_fs_of_base_gram_is_zero(radial, flat):
    for k in (1, 8, 16):
        pot = fs(hilb(flat, k), radial)
        assert np.max(np.abs(pot.values)) <= 1e-9


def test_fs_scaling_law(radial, flat):
    H = hilb(flat, 8)
    p1 = fs(H, radial)
    p2 = fs(HermForm(None, 8, log_diag=H.log_diag + np.log(2.5)), radial)
    assert np.max(np.abs(p2.values - (p1.values - np.log(2.5) / 8))) <= 1e-12


def test_fs_rejects_non_positive(grid2d):
    bad = HermForm(np.diag([1.0, -0.5]).astype(complex), 1)
    with pytest.raises(NotPositiveDefiniteError):
        fs(bad, grid2d)


def test_fs_factorization_independence(radial, grid2d, bump):
    # the log-diagonal contraction and an eigendecomposition orthonormalization
    # give the same section density
    H = hilb(bump, 10)
    d1 = np.exp(radial.log_density(H))
    d2 = eigh_contraction(H, radial)
    assert np.max(np.abs(d1 - d2)) / np.max(d1) <= 1e-12


def test_bergman_flat_is_dimension(radial, flat):
    for k in (1, 7, 16):
        rho = bergman(flat, k)
        assert np.max(np.abs(rho.values - sections_dim(k))) <= 1e-8
        assert rho.min() > 0.0


def test_bergman_trace_identity(radial, bump):
    md = metric_data(bump)
    for k in (4, 16, 64):
        rho = bergman(bump, k, md=md)
        assert abs(md.integrate(rho.values) - sections_dim(k)) <= 1e-8


def test_projection_identity_two_routes(radial, bump):
    # fs(hilb(phi)) = phi + log(rho/N)/k pointwise, via independent paths
    md = metric_data(bump)
    for k in (4, 8, 16):
        lhs = fs(hilb(bump, k, md=md), radial).values
        rho = bergman(bump, k, md=md).values
        rhs = bump.values + np.log(rho / sections_dim(k)) / k
        assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_gram_equivariance_under_rotation(grid2d):
    x1 = 2.0 * np.sqrt(grid2d.u * (1.0 - grid2d.u))[:, None] * np.cos(grid2d.theta)[None, :]
    pot = potential_from_values(grid2d, 0.03 * x1 + 0.01 * (grid2d.u**2)[:, None], invariant=False)
    k, beta = 8, 0.7
    # phi(e^{i beta} z): each angular frequency m picks up the phase e^{i m beta}
    m = np.fft.fftfreq(grid2d.n_theta, d=1.0 / grid2d.n_theta)
    turned = np.real(np.fft.ifft(np.fft.fft(pot.values, axis=-1) * np.exp(1j * m * beta), axis=-1))
    rotated = potential_from_values(grid2d, turned, invariant=False)
    U = np.diag(np.exp(1j * beta * np.arange(k + 1)))
    lhs = hilb(rotated, k).entries
    rhs = U @ hilb(pot, k).entries @ U.conj().T
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) / scale <= 1e-10


def test_psi_identity_constant(radial, flat):
    psi = psi_potential(identity_lift(6), flat)
    assert np.max(np.abs(psi.values - np.log(7.0 / 6.0))) == 0.0


def test_psi_scaling_closed_form(radial, flat):
    s = 0.22
    lift = AutomorphismLift(scale=np.exp(s), degree=6)
    psi = psi_potential(lift, flat)
    closed = np.log((1.0 + np.exp(2 * s) * rho_of(radial)) / (1.0 + rho_of(radial))) / (2.0 * np.pi)
    gauge = psi.values - closed
    assert np.max(gauge) - np.min(gauge) <= 1e-12


def test_psi_normalization_and_curvature_residual(radial, bump):
    md = metric_data(bump)
    k = 8
    lift = sigma_lift(rotation_field(1.0), k)
    psi = psi_potential(lift, bump, md=md)
    nu = sections_dim(k) / k
    assert abs(md.integrate(np.exp(psi.values)) - nu) <= 1e-12
    # i ddbar psi must equal the pullback defect of the form
    pulled = lift.pullback_potential(bump)
    a0 = (1.0 - radial.u) ** 2  # A_phi = (1-u)^2 * density
    lhs = (a0 * metric_data(pulled).density - a0 * md.density) / (2.0 * np.pi)
    rhs = radial_ddbar(radial, psi.values)
    assert np.max(np.abs(lhs - rhs)) <= 1e-8


def test_psi_expansion_toward_holomorphy_potential(radial, bump):
    from kquant import holomorphy_potential

    md = metric_data(bump)
    theta = holomorphy_potential(rotation_field(1.0), bump)
    sups = []
    for k in (16, 64):
        psi = psi_potential(sigma_lift(rotation_field(1.0), k), bump, md=md)
        sups.append(np.max(np.abs(k * psi.values - (theta + 2.0) / 2.0)))
    assert sups[1] < sups[0] / 2.5


def test_balanced_residual_flat_identity(radial, flat, bump):
    for k in (2, 8, 32):
        assert balanced_residual(flat, k) <= 1e-8
    assert balanced_residual(bump, 8) > 1e-3


def test_iteration_fixed_point_immediately(radial, flat):
    out, log = sigma_balanced_iterate(flat, 8, tol=1e-8)
    assert log.converged and log.iterations == 0


def test_iteration_converges_from_perturbation(radial):
    pot = potential_from_radial_coeffs(radial, [0.02, -0.03, 0.01])
    out, log = sigma_balanced_iterate(pot, 8, max_iter=300, tol=1e-8)
    assert log.converged
    assert log.residuals[-1] <= 1e-8
    # residual history non-increasing on this run
    assert all(b <= a * (1 + 1e-9) for a, b in zip(log.residuals, log.residuals[1:]))
    assert min(log.min_eigenvalues) > 0.0


def test_iteration_budget_exhaustion_flagged(radial, bump):
    out, log = sigma_balanced_iterate(bump, 8, max_iter=2, tol=1e-14)
    assert not log.converged
    assert len(log.residuals) == 3
    assert "no convergence" in log.message


def test_iteration_builds_one_gram_form_per_step(monkeypatch, bump):
    import kquant.geometry
    import kquant.quantize

    calls = {"hilb": 0, "interp_matrix": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(kquant.quantize, "hilb")
    counted(kquant.geometry, "interp_matrix")
    out, log = sigma_balanced_iterate(bump, 8, max_iter=2, tol=0.0)
    assert len(log.residuals) == 3
    assert calls == {"hilb": 3, "interp_matrix": 0}


def test_iteration_rejects_cone_exit_gracefully(radial):
    bad = potential_from_radial_coeffs(radial, [2.5])
    out, log = sigma_balanced_iterate(bad, 4, max_iter=5)
    assert not log.converged
    assert "Kahler" in log.message


def test_iteration_log_csv(tmp_path, radial):
    pot = potential_from_radial_coeffs(radial, [0.01])
    _, log = sigma_balanced_iterate(pot, 4, max_iter=3, tol=1e-13, track_energy=True)
    path = tmp_path / "iter.csv"
    write_iteration_csv(log, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,residual,min_eigenvalue,energy"
    assert len(lines) == len(log.residuals) + 1


def test_radial_contraction_rejects_non_diagonal(radial):
    ent = np.array([[1.0, 0.4], [0.4, 2.0]], dtype=complex)
    with pytest.raises(KQuantError, match="2D"):
        fs(HermForm(ent, 1), radial)


def test_gram_cross_mode_consistency(radial, grid2d):
    # an invariant potential gives the same diagonal Gram form on both grids
    k = 8
    pr = potential_from_radial_coeffs(radial, [0.04, -0.05])
    p2 = potential_from_radial_coeffs(grid2d, [0.04, -0.05])
    Hr = hilb(pr, k)
    H2 = hilb(p2, k)
    off = H2.entries - np.diag(np.diag(H2.entries))
    assert np.max(np.abs(off)) <= 1e-12
    assert np.max(np.abs(np.diag(H2.entries) - np.diag(Hr.entries))) <= 1e-10
