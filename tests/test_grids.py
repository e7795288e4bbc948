from fractions import Fraction

import numpy as np
import pytest

from kquant import grids
from kquant.grids import (
    GridError,
    KQuantError,
    barycentric_weights,
    build_grid,
    diff_matrix,
    gauss_legendre_01,
    interp_matrix,
)

from helpers import full2d_d_dtheta, full2d_ddbar, radial_ddbar


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


# The 512-node rule on [0, 1] to 30 digits, from Newton's method on the
# Legendre recurrence in 40-digit arithmetic: index -> (node, weight) for the
# first node, the two middle ones and the last.
GL512 = {
    0: ("0.00000550450780906600635793755048204", "0.0000141263186869673460193725053923"),
    255: ("0.498467518907420301923538403356", "0.00306495258770289287957817553352"),
    256: ("0.501532481092579698076461596644", "0.00306495258770289287957817553352"),
    511: ("0.999994495492190933993642062450", "0.0000141263186869673460193725053923"),
}


def test_gauss_legendre_polynomial_exactness():
    # exact to degree 2n - 1, and an exact mirror image about u = 1/2
    for n in range(1, 41):
        u, w = gauss_legendre_01(n)
        m = np.arange(2 * n)
        assert np.max(np.abs(u[None, :] ** m[:, None] @ w - 1.0 / (m + 1))) <= 2e-15
        assert np.array_equal(w, w[::-1]) and np.array_equal(u + u[::-1], np.ones(n))


def test_gauss_legendre_rule_matches_a_30_digit_reference():
    # numpy's leggauss misses the end weights by 1.1e-10 relative at this size
    u, w = gauss_legendre_01(512)
    for i, (node, weight) in GL512.items():
        assert abs(Fraction(float(u[i])) - Fraction(node)) <= 2e-16
        assert abs(Fraction(float(w[i])) / Fraction(weight) - 1) <= 1e-11


def test_building_a_grid_runs_no_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an eigensolver ran while building a grid")

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(grids, "_GAUSS_RULES", {})  # the rule is built afresh
    g = build_grid("radial", 512)
    assert abs(g.integrate(np.ones(512)) - 1.0) <= 1e-15


def test_gauss_legendre_rule_needs_a_node():
    with pytest.raises(KQuantError):
        gauss_legendre_01(0)


def test_gauss_legendre_rule_is_cached_and_read_only():
    u, w = gauss_legendre_01(24)
    assert gauss_legendre_01(24)[0] is u and build_grid("full2d", 24, 8).u is u
    with pytest.raises(ValueError):
        u[0] = 0.5
    with pytest.raises(ValueError):
        w *= 2.0


def test_radial_grids_read_the_closed_form_barycentric_weights():
    # a radial grid and a full2d grid's radial factor read the closed form of
    # their own rule, and build D from it
    a, b = build_grid("radial", 96), build_grid("full2d", 96, 32).radial
    u, w = gauss_legendre_01(96)
    fresh = barycentric_weights(u, w)
    assert np.array_equal(a.bary, fresh) and np.array_equal(b.bary, fresh)
    assert np.array_equal(a.D, diff_matrix(u, fresh))


def test_diff_matrix_on_polynomials():
    u, w = gauss_legendre_01(48)
    D = diff_matrix(u, barycentric_weights(u, w))
    f = u**5 - 3.0 * u**2 + u
    df = 5.0 * u**4 - 6.0 * u + 1.0
    assert np.max(np.abs(D @ f - df)) < 1e-10


def test_diff_matrix_kills_constants():
    u, w = gauss_legendre_01(32)
    D = diff_matrix(u, barycentric_weights(u, w))
    assert np.max(np.abs(D @ np.ones_like(u))) < 1e-11


@pytest.mark.parametrize("n", [1099, 2048])
def test_diff_matrix_at_high_resolution(n):
    # a product of node differences leaves double range from n = 1099 on;
    # the closed-form weights do not
    u, w = gauss_legendre_01(n)
    D = diff_matrix(u, barycentric_weights(u, w))
    assert np.all(np.isfinite(D))
    assert np.max(np.abs(D @ np.ones_like(u))) < 1e-7
    f = u**5 - 3.0 * u**2 + u
    df = 5.0 * u**4 - 6.0 * u + 1.0
    assert np.max(np.abs(D @ f - df)) < 1e-7


def test_barycentric_interpolation():
    u, gw = gauss_legendre_01(64)
    w = barycentric_weights(u, gw)
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
    u, gw = gauss_legendre_01(n)
    w = barycentric_weights(u, gw)
    lam2 = 1.7
    targets = lam2 * u / (1.0 - u + lam2 * u)
    targets[::5] = u[::5]  # exact node hits among off-node points
    targets = np.concatenate([targets, u[[0, -1]], [0.0, 1.0]])
    assert np.array_equal(interp_matrix(u, w, targets), loop_interp_matrix(u, w, targets))


def loop_barycentric_weights(x):
    """Reference barycentric weights, one node at a time."""
    scale = 4.0 / (x.max() - x.min())
    w = np.ones(len(x))
    for i in range(len(x)):
        d = scale * (x[i] - x)
        d[i] = 1.0
        w[i] = 1.0 / np.prod(d)
    return w / np.abs(w).max()


@pytest.mark.parametrize("n", [16, 64, 96, 128, 512, 1024, 1098])
def test_barycentric_weights_match_row_loop(n):
    # the closed form equals the product on the Gauss-Legendre nodes up to a
    # common factor, within 1e-11 relative node by node up to
    # n = 1098, the last size whose row products stay in double range
    u, w = gauss_legendre_01(n)
    closed, product = barycentric_weights(u, w), loop_barycentric_weights(u)
    closed *= (closed @ product) / (closed @ closed)
    assert np.max(np.abs(closed - product) / np.abs(product)) < 1e-11


def loop_diff_matrix(x, w):
    """Reference differentiation matrix, built one row at a time."""
    D = np.zeros((len(x), len(x)))
    for i in range(len(x)):
        d = x[i] - x
        d[i] = np.inf
        D[i, :] = (w / w[i]) / d
        D[i, i] = -D[i, :].sum()
    return D


@pytest.mark.parametrize("n", [16, 64, 96, 512])
def test_diff_matrix_matches_row_loop(n):
    u, gw = gauss_legendre_01(n)
    w = barycentric_weights(u, gw)
    assert np.array_equal(diff_matrix(u, w), loop_diff_matrix(u, w))


@pytest.mark.parametrize("mode", ["radial", "full2d"])
def test_gradient_norm_pairs_one_derivative_with_itself(mode):
    g = build_grid(mode, 64, 16)
    rng = np.random.default_rng(3)
    f = rng.uniform(-1.0, 1.0, (2,) + g.shape)
    assert np.array_equal(g.base_inner_grad(f, f), g.base_inner_grad(f, f.copy()))


def test_interp_hits_nodes_exactly():
    u, gw = gauss_legendre_01(32)
    w = barycentric_weights(u, gw)
    P = interp_matrix(u, w, u[[3, 17]])
    f = np.cos(u)
    assert np.max(np.abs(P @ f - f[[3, 17]])) == 0.0


def test_radial_ddbar_matches_closed_form():
    # f = u = rho/(1+rho): rho f_rho = rho/(1+rho)^2, (rho f_rho)_rho = (1-u)^2 (1-2u)
    g = build_grid("radial", 256)
    f = g.u
    exact = (1.0 - g.u) ** 2 * (1.0 - 2.0 * g.u)
    assert np.max(np.abs(radial_ddbar(g, f) - exact)) < 5e-9


def test_full2d_ddbar_radial_reduction():
    g = build_grid("full2d", 64, 32)
    f = np.repeat((g.u**2)[:, None], 32, axis=1)
    gr = build_grid("radial", 64)
    expect = radial_ddbar(gr, gr.u**2)
    assert np.max(np.abs(full2d_ddbar(g, f) - expect[:, None])) < 1e-9


def test_full2d_angular_derivative():
    g = build_grid("full2d", 32, 64)
    f = np.cos(g.theta)[None, :] * np.ones((32, 1))
    df = full2d_d_dtheta(g, f)
    assert np.max(np.abs(df + np.sin(g.theta)[None, :])) < 1e-12
