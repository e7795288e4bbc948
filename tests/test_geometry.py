import numpy as np
import pytest

from kquant import (
    SBAR,
    AutomorphismLift,
    KQuantError,
    NonKahlerError,
    VectorFieldSpec,
    build_grid,
    holomorphy_potential,
    i_sigma_k,
    identity_lift,
    load_potential,
    metric_data,
    potential_from_radial_coeffs,
    potential_from_values,
    rotation_field,
    save_potential,
    sections_dim,
    sigma_balanced_iterate,
    sigma_lift,
    zero_potential,
)
from kquant.geometry import TWIST_RATE_DEFAULT, _profile_fields
from kquant.grids import interp_matrix

from helpers import map_points, section_matrix


def test_flat_scalar_curvature_exact(flat):
    md = metric_data(flat)
    assert np.max(np.abs(md.scalar - 2.0)) == 0.0


def test_constant_potential_same_metric(radial, flat):
    md0 = metric_data(flat)
    mdc = metric_data(flat.shifted(0.37))
    a0 = (1.0 - radial.u) ** 2  # A_phi = (1-u)^2 * density
    assert np.max(np.abs(a0 * mdc.density - a0 * md0.density)) < 1e-14
    assert np.max(np.abs(mdc.scalar - md0.scalar)) < 1e-12


def test_gauss_bonnet_random_potentials(radial):
    rng = np.random.default_rng(0)
    for _ in range(5):
        pot = potential_from_radial_coeffs(radial, rng.uniform(-0.05, 0.05, 4))
        md = metric_data(pot)
        assert abs(md.integrate(md.scalar) - SBAR) <= 1e-8
        assert abs(md.integrate(np.ones_like(radial.u)) - 1.0) <= 1e-8


def test_gauss_bonnet_full2d(grid2d):
    x1 = 2.0 * np.sqrt(grid2d.u * (1.0 - grid2d.u))[:, None] * np.cos(grid2d.theta)[None, :]
    pot = potential_from_values(grid2d, 0.02 * x1 + 0.01 * (grid2d.u**2)[:, None], invariant=False)
    md = metric_data(pot)
    assert abs(md.integrate(md.scalar) - SBAR) <= 1e-8
    assert abs(md.integrate(np.ones_like(md.density)) - 1.0) <= 1e-10


def test_spectral_and_exact_profiles_agree(radial, bump):
    md_exact = metric_data(bump)
    md_spec = metric_data(bump.with_values(bump.values.copy()))
    interior = (radial.u > 0.02) & (radial.u < 0.98)
    assert np.max(np.abs(md_exact.scalar - md_spec.scalar)[interior]) < 1e-6
    assert np.max(np.abs(md_exact.density - md_spec.density)) < 1e-8


def polynomial_profile_fields(u, profile):
    """Reference: the profile fields through numpy.polynomial, one call per step."""
    from numpy.polynomial import polynomial as P

    c0, cs = profile
    phi = np.concatenate(([c0], np.asarray(cs, dtype=float)))
    uu = np.array([0.0, 1.0, -1.0])
    g1 = P.polymul(uu, P.polyder(phi)) if len(phi) > 1 else np.array([0.0])
    dens_c = P.polyadd(np.array([1.0]), P.polyder(g1))
    ddens_c = P.polyder(dens_c)
    W = P.polymul(uu, ddens_c)
    dens, ddens = P.polyval(u, dens_c), P.polyval(u, ddens_c)
    scalar = (2.0 * dens**2 - P.polyval(u, P.polyder(W)) * dens + P.polyval(u, W) * ddens) / dens**3
    return P.polyval(u, g1), dens, scalar


@pytest.mark.parametrize("n", [16, 512])
def test_profile_fields_match_numpy_polynomial(n):
    u = build_grid("radial", n).u
    rng = np.random.default_rng(n)
    profiles = [(0.0, ()), (0.0, (0.0,)), (0.3, (0.05, 0.0)), (0.0, (0.0, 0.0, 0.2))]
    profiles += [(rng.uniform(-1, 1), tuple(rng.uniform(-0.1, 0.1, m))) for m in range(1, 7) for _ in range(5)]
    for profile in profiles:
        for got, want in zip(_profile_fields(u, profile), polynomial_profile_fields(u, profile)):
            assert np.array_equal(got, want)


def test_laplacian_self_adjoint_and_mean_zero(radial, bump):
    md = metric_data(bump)
    rng = np.random.default_rng(1)
    u_f = potential_from_radial_coeffs(radial, rng.uniform(-1, 1, 4)).values
    v_f = potential_from_radial_coeffs(radial, rng.uniform(-1, 1, 4)).values
    lu, lv = md.laplace(u_f), md.laplace(v_f)
    assert abs(md.integrate(lu)) <= 1e-9
    s1, s2 = md.integrate(u_f * lv), md.integrate(v_f * lu)
    assert abs(s1 - s2) / abs(s1) <= 1e-7
    # gradient pairing integrates against the Laplacian
    assert abs(md.integrate(md.inner_grad(u_f, v_f)) - s1) / abs(s1) <= 1e-7


def test_non_kahler_rejected(radial):
    with pytest.raises(NonKahlerError):
        metric_data(potential_from_radial_coeffs(radial, [2.5]))


def test_rotation_moment_potential_closed_form(radial, flat):
    theta = holomorphy_potential(rotation_field(1.0), flat)
    exact = (radial.u - 0.5) / (2.0 * np.pi)
    assert np.max(np.abs(theta - exact)) <= 1e-12


def test_holomorphy_potential_normalization_and_residual(radial, bump):
    V = rotation_field(0.7)
    md = metric_data(bump)
    theta = holomorphy_potential(V, bump)
    assert abs(md.integrate(theta)) <= 1e-10
    # defining equation: d theta = strength * A/(2 pi) d rho
    lhs = radial.d_drho(theta)
    rhs = 0.7 * (1.0 - radial.u) ** 2 * md.density / (2.0 * np.pi)
    assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)) <= 1e-6


def test_zero_field_gives_zero_potential(radial, bump):
    theta = holomorphy_potential(VectorFieldSpec(strength=0.0), bump)
    assert np.max(np.abs(theta)) == 0.0


def flow_lift(V, k, t):
    """The time-t flow of the degree-k twist field; sigma_lift(V, k) is time one."""
    return AutomorphismLift(scale=V.flow_scale(-TWIST_RATE_DEFAULT * t / k), degree=k)


def test_lift_group_law_and_identity(radial):
    V = rotation_field(1.0)
    a = flow_lift(V, 4, 0.3)
    b = flow_lift(V, 4, 0.7)
    c = sigma_lift(V, 4)
    assert abs(a.compose(b).scale - c.scale) <= 1e-10
    assert np.max(np.abs(section_matrix(a.compose(a.inverse())) - np.eye(5))) <= 1e-12
    ident = sigma_lift(VectorFieldSpec(strength=0.0), 4)
    assert ident.is_identity
    assert np.max(np.abs(ident.base_potential(radial))) == 0.0


def test_lift_point_map_matches_flow_ode():
    # integrate the gradient flow dz/dt = -(c0 s/(2 pi k)) z with RK4 and
    # compare against the closed-form point map
    V = rotation_field(1.0)
    k, t = 4, 1.0
    lift = sigma_lift(V, k)
    rate = -TWIST_RATE_DEFAULT * 1.0 / (2.0 * np.pi * k)
    z = 1.3 + 0.4j
    n, h = 400, t / 400
    for _ in range(n):
        f = lambda w: rate * w
        k1 = f(z)
        k2 = f(z + 0.5 * h * k1)
        k3 = f(z + 0.5 * h * k2)
        k4 = f(z + h * k3)
        z = z + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
    assert abs(z - map_points(lift, 1.3 + 0.4j)) <= 1e-10
    # the dilation rate is 1/(4k) in the calibrated normalization
    assert abs(abs(lift.scale) - np.exp(1.0 / (4.0 * k))) <= 1e-12


def test_lift_flow_consistency_fd(radial):
    V = rotation_field(1.0)
    k = 6
    h = 1e-6
    z = radial.rho[100] ** 0.5
    plus = map_points(flow_lift(V, k, h), z)
    minus = map_points(flow_lift(V, k, -h), z)
    gen = (plus - minus) / (2.0 * h)
    rate = -TWIST_RATE_DEFAULT / (2.0 * np.pi * k)
    assert abs(gen - rate * z) <= 1e-8


def test_section_matrix_diagonal_and_unitary_for_rotations():
    rot = AutomorphismLift(scale=np.exp(1j * 0.9), degree=5)
    U = section_matrix(rot)
    assert np.max(np.abs(U - np.diag(np.diag(U)))) == 0.0
    assert np.max(np.abs(U.conj().T @ U - np.eye(6))) <= 1e-12
    scl = AutomorphismLift(scale=1.2, degree=3)
    assert np.max(np.abs(np.diag(section_matrix(scl)) - 1.2 ** np.arange(4))) <= 1e-12


def test_pullback_potential_matches_base_closed_form(radial, flat):
    lam = 1.17
    lift = AutomorphismLift(scale=lam, degree=4)
    vals = lift.pullback_potential(flat).values
    exact = np.log((1.0 + lam**2 * radial.rho) / (1.0 + radial.rho))
    assert np.max(np.abs(vals - exact)) <= 1e-10


def test_pullback_composition_accuracy(radial, bump):
    lift = AutomorphismLift(scale=np.exp(0.05), degree=8)
    composed = lift.compose_potential(bump)
    u_t = lift.pulled_u(radial)
    exact = 0.05 * u_t - 0.07 * u_t**2
    assert np.max(np.abs(composed - exact)) <= 1e-10


@pytest.fixture
def builds(monkeypatch):
    """Count the interpolation builds made under the name the lift calls."""
    import kquant.geometry

    calls = []
    real = kquant.geometry.interp_matrix

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kquant.geometry, "interp_matrix", counted)
    return calls


def test_twisted_linear_path_builds_pullback_once(monkeypatch, builds, bump):
    composed = []
    real = AutomorphismLift.compose_potential

    def counted(self, pot):
        composed.append(pot)
        return real(self, pot)

    monkeypatch.setattr(AutomorphismLift, "compose_potential", counted)
    lift = sigma_lift(rotation_field(1.0), 8)
    i_sigma_k(bump, 8, lift)
    # the path's 32 nodes are composed as one block
    assert len(composed) == 1 and composed[0].values.shape == (32,) + bump.values.shape
    assert len(builds) == 1


def test_twisted_iteration_builds_pullback_once_per_lift(builds, bump):
    # sigma composes for psi at each of the four steps, sigma^-1 for each pullback
    lift = sigma_lift(rotation_field(1.0), 8)
    _, log = sigma_balanced_iterate(bump, 8, lift=lift, max_iter=3, tol=0.0)
    assert len(log.residuals) == 4
    assert len(builds) == 2


def test_lift_builds_again_on_another_grid(builds, radial, radial_small):
    lift = AutomorphismLift(scale=1.1, degree=4)
    on_radial = potential_from_radial_coeffs(radial, [0.05])
    on_small = potential_from_radial_coeffs(radial_small, [0.05])
    lift.compose_potential(on_radial)
    lift.compose_potential(on_radial)
    assert len(builds) == 1
    lift.compose_potential(on_small)
    assert len(builds) == 2
    lift.compose_potential(on_radial)  # one slot: the first grid was dropped
    assert len(builds) == 3


@pytest.mark.parametrize("grid_name", ["radial", "grid2d"])
def test_cached_pullback_equals_fresh_build(request, grid_name):
    grid = request.getfixturevalue(grid_name)
    pot = potential_from_radial_coeffs(grid, [0.05, -0.07])
    lift = AutomorphismLift(scale=1.3, degree=4)
    fresh = interp_matrix(grid.radial.u, grid.radial.bary, lift.pulled_u(grid)) @ pot.values
    assert np.array_equal(lift.compose_potential(pot), fresh)
    assert np.array_equal(lift.compose_potential(pot), fresh)


@pytest.mark.parametrize("grid_name", ["radial", "grid2d"])
def test_lift_interpolates_then_rotates(request, grid_name):
    grid = request.getfixturevalue(grid_name)
    lam = np.sqrt(1.7)
    pot = potential_from_values(grid, grid.broadcast(grid.u**2))
    u_t = AutomorphismLift(scale=lam, degree=4).pulled_u(grid)
    dilated = AutomorphismLift(scale=lam, degree=4).compose_potential(pot)
    turned = AutomorphismLift(scale=lam * np.exp(0.7j), degree=4).compose_potential(pot)
    assert turned.shape == grid.shape
    assert np.max(np.abs(turned - dilated)) <= 1e-13
    assert np.max(np.abs(grid.radial_part(turned) - u_t**2)) <= 1e-12


def test_sections_dim():
    assert sections_dim(1) == 2
    assert sections_dim(3) == 4
    # dimension equals k Vol + (1/2) Vol Sbar exactly in this model
    for k in (1, 5, 16):
        assert sections_dim(k) == k * 1 + 1


def test_potential_io_roundtrip(tmp_path, radial, bump):
    path = tmp_path / "pot.txt"
    save_potential(path, bump)
    back = load_potential(path, radial)
    assert np.max(np.abs(back.values - bump.values)) == 0.0


def test_potential_coeff_format(tmp_path, radial):
    path = tmp_path / "coeffs.txt"
    path.write_text("# test potential\ncoeffs: 0.03 -0.02\n")
    pot = load_potential(path, radial)
    assert np.max(np.abs(pot.values - (0.03 * radial.u - 0.02 * radial.u**2))) <= 1e-15
    assert pot.profile is not None


def test_potential_file_header_mismatch(tmp_path, radial):
    path = tmp_path / "bad.txt"
    path.write_text("mode: radial\nresolution: 99\nvalues: " + " ".join(["0"] * 99) + "\n")
    with pytest.raises(KQuantError):
        load_potential(path, radial)


@pytest.mark.parametrize(
    "text",
    [
        "mode: radial\nresolution: 16\nvalues: 0 0 0\n",  # wrong value count
        "mode: radial\nresolution: 16\nvalues: " + " ".join(["0"] * 15) + " x\n",
        "mode: radial\nresolution: sixteen\nvalues: 0\n",
        "coeffs: 0.01 abc\n",
    ],
    ids=["value-count", "non-numeric-value", "non-numeric-resolution", "non-numeric-coeff"],
)
def test_potential_file_rejects_malformed(tmp_path, radial, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(KQuantError):
        load_potential(path, radial if text.startswith("coeffs") else None)


def test_potential_file_missing(tmp_path):
    with pytest.raises(KQuantError, match="cannot read"):
        load_potential(tmp_path / "absent.txt")


def test_radial_mode_values_depend_on_radius_only(grid2d):
    pot = potential_from_radial_coeffs(grid2d, [0.04, -0.01])
    assert pot.invariant
    assert np.max(np.abs(pot.values - pot.values[:, :1])) == 0.0


def test_laplacian_eigenfunction_radial(radial, flat):
    # first radial spherical harmonic x3 = 1 - 2u: closed form gives
    # ddbar x3 = -2 A0 x3, so Delta_0 x3 = 2 x3 in this normalization
    md = metric_data(flat)
    f = 1.0 - 2.0 * radial.u
    assert np.max(np.abs(md.laplace(f) - 2.0 * f)) <= 1e-6
    interior = (radial.u > 0.02) & (radial.u < 0.98)
    assert np.max(np.abs(md.laplace(f) - 2.0 * f)[interior]) <= 1e-9


def test_laplacian_eigenfunction_full2d(grid2d):
    # degree-2 harmonic 2 u(1-u) cos 2theta is polynomial radially, so the
    # spectral operator resolves it to roundoff; eigenvalue 6
    md = metric_data(zero_potential(grid2d))
    y22 = 2.0 * (grid2d.u * (1.0 - grid2d.u))[:, None] * np.cos(2.0 * grid2d.theta)[None, :]
    assert np.max(np.abs(md.laplace(y22) - 6.0 * y22)) <= 1e-9
    # odd angular frequencies carry half-integer radial powers; pointwise
    # derivatives near the pole are then only approximate, while the tiny
    # local coefficient keeps every weighted integral accurate
    x1 = 2.0 * np.sqrt(grid2d.u * (1.0 - grid2d.u))[:, None] * np.cos(grid2d.theta)[None, :]
    resid = md.laplace(x1) - 2.0 * x1
    assert abs(md.integrate(resid * x1)) <= 1e-3
    interior = (grid2d.u > 0.05) & (grid2d.u < 0.95)
    assert np.max(np.abs(resid[interior, :])) <= 1e-2
