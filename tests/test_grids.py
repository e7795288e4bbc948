import numpy as np
import pytest

from kquant.grids import (
    GridError,
    barycentric_weights,
    build_grid,
    diff_matrix,
    gauss_legendre_01,
    interp_matrix,
)


def test_volume_normalization_radial():
    g = build_grid("radial", 1024)
    assert abs(g.integrate(np.ones_like(g.u)) - 1.0) <= 1e-12


def test_volume_normalization_full2d():
    g = build_grid("full2d", 128, 64)
    assert abs(g.integrate(np.ones((128, 64))) - 1.0) <= 1e-10


def test_volume_error_shrinks_with_resolution():
    # quadrature-order check on the base density (1+rho)^-2 drho = du; the
    # rule integrates it exactly, so the errors sit at the roundoff floor
    errs = []
    for res in (512, 1024):
        g = build_grid("radial", res)
        errs.append(abs(g.integrate(np.ones_like(g.u)) - 1.0))
    assert errs[1] <= max(errs[0] / 4.0, 5e-15)


def test_minimum_resolution_rejected():
    with pytest.raises(GridError):
        build_grid("radial", 7)
    with pytest.raises(GridError):
        build_grid("full2d", 16, 4)
    with pytest.raises(GridError):
        build_grid("spherical", 64)


def test_weights_positive():
    for mode, res in (("radial", 64), ("full2d", 32)):
        g = build_grid(mode, res)
        assert np.all(np.asarray(g.weights) > 0)


def test_gauss_legendre_polynomial_exactness():
    u, w = gauss_legendre_01(16)
    for m in range(0, 31):
        assert abs(np.dot(w, u**m) - 1.0 / (m + 1)) < 1e-14


def test_diff_matrix_on_polynomials():
    u, _ = gauss_legendre_01(48)
    D = diff_matrix(u)
    f = u**5 - 3.0 * u**2 + u
    df = 5.0 * u**4 - 6.0 * u + 1.0
    assert np.max(np.abs(D @ f - df)) < 1e-10


def test_diff_matrix_kills_constants():
    u, _ = gauss_legendre_01(32)
    D = diff_matrix(u)
    assert np.max(np.abs(D @ np.ones_like(u))) < 1e-11


def test_barycentric_interpolation():
    u, _ = gauss_legendre_01(64)
    w = barycentric_weights(u)
    targets = np.linspace(0.05, 0.95, 17)
    P = interp_matrix(u, w, targets)
    f = np.exp(-2.0 * u) * np.sin(3.0 * u)
    exact = np.exp(-2.0 * targets) * np.sin(3.0 * targets)
    assert np.max(np.abs(P @ f - exact)) < 1e-12


def loop_interp_matrix(x, w, targets):
    """Reference barycentric interpolation matrix, built one target row at a time."""
    P = np.zeros((len(targets), len(x)))
    for i, t in enumerate(targets):
        d = t - x
        hit = np.nonzero(d == 0.0)[0]
        if hit.size:
            P[i, hit[0]] = 1.0
            continue
        c = w / d
        P[i, :] = c / c.sum()
    return P


@pytest.mark.parametrize("n", [16, 96, 512])
def test_interp_matrix_matches_row_loop(n):
    u, _ = gauss_legendre_01(n)
    w = barycentric_weights(u)
    lam2 = 1.7
    targets = lam2 * u / (1.0 - u + lam2 * u)
    targets[::5] = u[::5]  # exact node hits among off-node points
    targets = np.concatenate([targets, u[[0, -1]], [0.0, 1.0]])
    assert np.array_equal(interp_matrix(u, w, targets), loop_interp_matrix(u, w, targets))


def test_interp_hits_nodes_exactly():
    u, _ = gauss_legendre_01(32)
    w = barycentric_weights(u)
    P = interp_matrix(u, w, u[[3, 17]])
    f = np.cos(u)
    assert np.max(np.abs(P @ f - f[[3, 17]])) == 0.0


def test_radial_ddbar_matches_closed_form():
    # f = u = rho/(1+rho): rho f_rho = rho/(1+rho)^2, (rho f_rho)_rho = (1-u)^2 (1-2u)
    g = build_grid("radial", 256)
    f = g.u
    exact = (1.0 - g.u) ** 2 * (1.0 - 2.0 * g.u)
    assert np.max(np.abs(g.ddbar(f) - exact)) < 5e-9


def test_full2d_ddbar_radial_reduction():
    g = build_grid("full2d", 64, 32)
    f = np.repeat((g.u**2)[:, None], 32, axis=1)
    gr = build_grid("radial", 64)
    expect = gr.ddbar(gr.u**2)
    assert np.max(np.abs(g.ddbar(f) - expect[:, None])) < 1e-9


def test_full2d_angular_derivative():
    g = build_grid("full2d", 32, 64)
    f = np.cos(g.theta)[None, :] * np.ones((32, 1))
    df = g.d_dtheta(f)
    assert np.max(np.abs(df + np.sin(g.theta)[None, :])) < 1e-12
