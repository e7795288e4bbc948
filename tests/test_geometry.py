import re

import numpy as np
import pytest

from kquant import (
    SBAR,
    AutomorphismLift,
    ExperimentConfig,
    KQuantError,
    NonKahlerError,
    Potential,
    VectorFieldSpec,
    build_grid,
    holomorphy_potential,
    i_sigma_k,
    identity_lift,
    load_potential,
    mabuchi_energy,
    metric_data,
    moment_energy,
    potential_from_radial_coeffs,
    potential_from_values,
    quadratic_path,
    rotation_field,
    run_experiment,
    sections_dim,
    sigma_balanced_iterate,
    sigma_lift,
    zero_potential,
)
from kquant.geometry import TWIST_RATE_DEFAULT, kahler_density, radial_twin
from kquant.grids import interp_matrix

from helpers import map_points, radial_d_drho, rho_of, section_matrix


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

    phi = np.concatenate(([0.0], profile))
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
    grid = build_grid("radial", n)
    rng = np.random.default_rng(n)
    profiles = [np.zeros(0), np.zeros(1), np.array([0.05, 0.0]), np.array([0.0, 0.0, 0.2])]
    profiles += [rng.uniform(-0.1, 0.1, m) for m in range(1, 7) for _ in range(5)]
    for profile in profiles:
        pot = potential_from_radial_coeffs(grid, profile)
        # g1 and density, and the curvature read on demand
        md = metric_data(pot)
        got = (md.g1, md.density, md.scalar)
        for got_field, want in zip(got, polynomial_profile_fields(grid.u, profile), strict=True):
            assert np.array_equal(got_field, want)


def test_laplacian_self_adjoint_and_mean_zero(radial, bump):
    md = metric_data(bump)
    rng = np.random.default_rng(1)
    u_f = potential_from_radial_coeffs(radial, rng.uniform(-1, 1, 4)).values
    v_f = potential_from_radial_coeffs(radial, rng.uniform(-1, 1, 4)).values
    lu, lv = radial.base_laplace(u_f) / md.density, radial.base_laplace(v_f) / md.density
    assert abs(md.integrate(lu)) <= 1e-9
    s1, s2 = md.integrate(u_f * lv), md.integrate(v_f * lu)
    assert abs(s1 - s2) / abs(s1) <= 1e-7
    # gradient pairing integrates against the Laplacian
    assert abs(md.integrate(md.inner_grad(u_f, v_f)) - s1) / abs(s1) <= 1e-7


def test_non_kahler_rejected(radial):
    with pytest.raises(NonKahlerError):
        metric_data(potential_from_radial_coeffs(radial, [2.5]))


def test_non_kahler_error_names_the_worst_node(radial, grid2d):
    # phi = 2.5 u has density 1 + 2.5 (1 - 2u), least at the outermost radius
    for grid in (radial, grid2d):
        low = 1.0 + 2.5 * (1.0 - 2.0 * grid.u[-1])
        node = (grid.resolution - 1,) + (0,) * (len(grid.shape) - 1)
        with pytest.raises(NonKahlerError, match=re.escape(f"min density {low:.3e} <= 0 at index {node}")):
            metric_data(potential_from_radial_coeffs(grid, [2.5]))
    # in a block the index leads with the field's place in it
    block = np.ones((3,) + radial.shape)
    block[1, 7] = -0.5
    with pytest.raises(NonKahlerError, match=re.escape("min density -5.000e-01 <= 0 at index (1, 7)")):
        kahler_density(block)


def test_nan_density_is_not_kahler(radial):
    with pytest.raises(NonKahlerError, match="min density nan"):
        metric_data(potential_from_values(radial, np.full(radial.shape, np.nan)))
    block = np.ones((3,) + radial.shape)
    block[2, 5] = np.nan
    with pytest.raises(NonKahlerError, match=re.escape("at index (2, 5)")):
        kahler_density(block)


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
    lhs = radial_d_drho(radial, theta)
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
    assert abs(a.scale * b.scale - c.scale) <= 1e-10
    assert np.max(np.abs(section_matrix(a) @ section_matrix(a.inverse()) - np.eye(5))) <= 1e-12
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
    z = rho_of(radial)[100] ** 0.5
    plus = map_points(flow_lift(V, k, h), z)
    minus = map_points(flow_lift(V, k, -h), z)
    gen = (plus - minus) / (2.0 * h)
    rate = -TWIST_RATE_DEFAULT / (2.0 * np.pi * k)
    assert abs(gen - rate * z) <= 1e-8


@pytest.mark.parametrize(
    "make",
    [
        lambda: AutomorphismLift(0.0, 8),
        lambda: AutomorphismLift(-1.3, 8),
        lambda: AutomorphismLift(1.3j, 8),
        lambda: AutomorphismLift(np.nan, 8),
        lambda: AutomorphismLift(np.inf, 8),
        lambda: AutomorphismLift(1.1, 0),
        lambda: identity_lift(0),
        lambda: sigma_lift(rotation_field(1.0), 0),
    ],
    ids=["zero", "negative", "imaginary", "nan", "inf", "degree-0", "identity-degree-0", "twist-degree-0"],
)
def test_lift_that_is_not_a_positive_dilation_is_refused(make):
    # a zero scale used to reach the path integrals, and degree 0 a bare ZeroDivisionError
    with pytest.raises(KQuantError):
        make()


def test_section_matrix_of_a_dilation_is_diagonal():
    scl = AutomorphismLift(scale=1.2, degree=3)
    assert np.max(np.abs(np.diag(section_matrix(scl)) - 1.2 ** np.arange(4))) <= 1e-12


def test_pullback_potential_matches_base_closed_form(radial, flat):
    lam = 1.17
    lift = AutomorphismLift(scale=lam, degree=4)
    vals = lift.pullback_potential(flat).values
    exact = np.log((1.0 + lam**2 * rho_of(radial)) / (1.0 + rho_of(radial)))
    assert np.max(np.abs(vals - exact)) <= 1e-10


def sampled(pot):
    """The potential's samples without its exact profile."""
    return potential_from_values(pot.grid, pot.values.copy())


def test_pullback_composition_accuracy(radial, bump):
    lift = AutomorphismLift(scale=np.exp(0.05), degree=8)
    composed = lift.compose_potential(sampled(bump))
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
    sampled = bump.with_values(bump.values.copy())
    i_sigma_k(sampled, 8, lift)
    # the path's one term is composed once, not its 32 nodes
    assert len(composed) == 1 and composed[0] is sampled
    assert len(builds) == 1
    # an exact profile composes as a polynomial, with no interpolation
    composed.clear()
    i_sigma_k(bump, 8, lift)
    assert composed == [] and len(builds) == 1


def test_psi_expansion_builds_no_interpolation(builds):
    # its potential has an exact profile, which every psi_k pulls back exactly
    rep = run_experiment(ExperimentConfig("psi-expansion"))
    assert rep.passed
    assert builds == []


def test_twisted_iteration_builds_pullback_once_per_lift(builds, bump):
    # sigma composes for psi at the three sampled steps (the first step's
    # potential has an exact profile), sigma^-1 for each pullback
    lift = sigma_lift(rotation_field(1.0), 8)
    _, log = sigma_balanced_iterate(bump, 8, lift=lift, max_iter=3, tol=0.0)
    assert len(log.residuals) == 4
    assert len(builds) == 2


def test_lift_builds_again_on_another_grid(builds, radial, radial_small):
    lift = AutomorphismLift(scale=1.1, degree=4)
    on_radial = sampled(potential_from_radial_coeffs(radial, [0.05]))
    on_small = sampled(potential_from_radial_coeffs(radial_small, [0.05]))
    lift.compose_potential(on_radial)
    lift.compose_potential(on_radial)
    assert len(builds) == 1
    lift.compose_potential(on_small)
    assert len(builds) == 2
    lift.compose_potential(on_radial)  # one slot: the first grid was dropped
    assert len(builds) == 3


def test_lift_shares_one_matrix_between_a_2d_grid_and_its_radial_factor(builds, grid2d):
    # psi_potential composes on the 2D grid and an invariant leg on its radial factor
    lift = AutomorphismLift(scale=1.1, degree=4)
    on_2d = sampled(potential_from_radial_coeffs(grid2d, [0.05]))
    on_factor = radial_twin(on_2d)
    on_both = lift.compose_potential(on_2d)[:, 0], lift.compose_potential(on_factor)
    assert np.max(np.abs(on_both[0] - on_both[1])) <= 1e-15 * np.max(np.abs(on_both[0]))
    assert len(builds) == 1


def test_radial_twin_keeps_values_and_profile(radial, grid2d):
    prof = potential_from_radial_coeffs(grid2d, [0.05, -0.07])
    for pot in (prof, sampled(prof)):
        twin = radial_twin(pot)
        assert twin.grid is grid2d.radial and twin.profile is pot.profile
        assert np.array_equal(twin.values, pot.values[:, 0])
        assert radial_twin(twin) is twin
    on_radial = potential_from_radial_coeffs(radial, [0.05])
    assert radial_twin(on_radial) is on_radial
    with pytest.raises(KQuantError):
        radial_twin(potential_from_values(grid2d, prof.values + 0.02 * first_harmonic(grid2d)))


@pytest.mark.parametrize("grid_name", ["radial", "grid2d"])
def test_cached_pullback_equals_fresh_build(request, grid_name):
    grid = request.getfixturevalue(grid_name)
    pot = sampled(potential_from_radial_coeffs(grid, [0.05, -0.07]))
    lift = AutomorphismLift(scale=1.3, degree=4)
    fresh = interp_matrix(grid.radial.u, grid.radial.bary, lift.pulled_u(grid)) @ pot.values
    assert np.array_equal(lift.compose_potential(pot), fresh)
    assert np.array_equal(lift.compose_potential(pot), fresh)


@pytest.mark.parametrize("grid_name", ["radial", "grid2d"])
def test_profile_composes_as_its_polynomial(builds, request, grid_name):
    # an exact profile is pulled back through its polynomial, with no interpolation
    grid = request.getfixturevalue(grid_name)
    coeffs = [0.05, -0.07, 0.02]
    pot = potential_from_radial_coeffs(grid, coeffs)
    lift = AutomorphismLift(scale=1.3, degree=4)
    u_t = lift.pulled_u(grid.radial)
    exact = grid.broadcast(sum(c * u_t ** (m + 1) for m, c in enumerate(coeffs)))
    composed = lift.compose_potential(pot)
    assert composed.shape == grid.shape
    assert np.max(np.abs(composed - exact)) <= 1e-14
    assert builds == []


@pytest.mark.parametrize("grid_name", ["radial", "grid2d"])
def test_lift_interpolates_at_the_pulled_radius(request, grid_name):
    grid = request.getfixturevalue(grid_name)
    lam = np.sqrt(1.7)
    pot = potential_from_values(grid, grid.broadcast(grid.u**2))
    u_t = AutomorphismLift(scale=lam, degree=4).pulled_u(grid)
    dilated = AutomorphismLift(scale=lam, degree=4).compose_potential(pot)
    assert dilated.shape == grid.shape
    assert np.max(np.abs(grid.radial_part(dilated) - u_t**2)) <= 1e-12


def test_sections_dim():
    assert sections_dim(1) == 2
    assert sections_dim(3) == 4
    # dimension equals k Vol + (1/2) Vol Sbar exactly in this model
    for k in (1, 5, 16):
        assert sections_dim(k) == k * 1 + 1


def test_potential_io_roundtrip(tmp_path, radial, bump):
    path = tmp_path / "pot.txt"
    samples = " ".join(f"{v:.17g}" for v in bump.values)
    path.write_text(f"mode: radial\nresolution: {radial.resolution}\nvalues: {samples}\n")
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
    "text, grid",
    [
        # a declared n_theta is checked, even where the value count fits the grid
        ("mode: full2d\nresolution: 16\nn_theta: 32\nvalues: " + " ".join(["0"] * 128) + "\n", ("full2d", 16, 8)),
        # a radial grid has no angular nodes to declare
        ("mode: radial\nresolution: 16\nn_theta: 8\nvalues: " + " ".join(["0"] * 16) + "\n", ("radial", 16)),
        ("mode: radial\nresolution: 16\nn_theta: 8\nvalues: " + " ".join(["0"] * 16) + "\n", None),
    ],
    ids=["full2d-n_theta", "radial-n_theta", "radial-n_theta-no-grid"],
)
def test_potential_file_header_contradicting_the_grid(tmp_path, text, grid):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(KQuantError, match="does not match"):
        load_potential(path, grid and build_grid(*grid))


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


def first_harmonic(grid2d):
    """x1 = 2 sqrt(u(1-u)) cos theta, a non-invariant field."""
    return 2.0 * np.sqrt(grid2d.u * (1.0 - grid2d.u))[:, None] * np.cos(grid2d.theta)[None, :]


@pytest.mark.parametrize("route", ["with_values", "quadratic-path", "small-wave", "file"])
def test_non_invariant_values_are_not_flagged_invariant(tmp_path, grid2d, route):
    base = potential_from_radial_coeffs(grid2d, [0.05, -0.07])
    wave = 0.02 * first_harmonic(grid2d)
    if route == "with_values":
        pot = base.with_values(base.values + wave)
    elif route == "quadratic-path":
        pot = quadratic_path(base, base.with_values(wave), zero_potential(grid2d)).phi(0.5)
    elif route == "small-wave":
        pot = potential_from_values(grid2d, base.values + 1e-9 * first_harmonic(grid2d))
    else:
        path = tmp_path / "wave.txt"
        samples = " ".join(f"{v:.17g}" for v in (base.values + wave).ravel())
        path.write_text(f"mode: full2d\nresolution: {grid2d.resolution}\nn_theta: {grid2d.n_theta}\nvalues: {samples}\n")
        pot = load_potential(path, grid2d)
    assert not pot.invariant
    with pytest.raises(KQuantError):
        moment_energy(pot, rotation_field(1.0))
    # invariant values stay flagged, and an explicit flag is honoured
    assert base.with_values(base.values + 0.01 * base.values**2).invariant
    assert not potential_from_values(grid2d, base.values, invariant=False).invariant


def test_potential_works_out_its_own_invariance():
    # the default flag once marked any samples invariant, so the invariant
    # routes read only the theta = 0 column of a wave
    grid = build_grid("full2d", 48, 32)
    u, theta = grid.u[:, None], grid.theta[None, :]
    phi = 0.03 * u**2 + 0.05 * u * (1.0 - u) * np.cos(2.0 * theta)
    pot, sampled = Potential(grid, phi), potential_from_values(grid, phi)
    assert not pot.invariant and not sampled.invariant
    for lift in (identity_lift(8), sigma_lift(rotation_field(1.0), 8)):
        assert i_sigma_k(pot, 8, lift) == i_sigma_k(sampled, 8, lift)
    assert mabuchi_energy(pot) == mabuchi_energy(sampled)
    # a profile implies invariance; invariant samples are found so; False is honoured
    assert potential_from_radial_coeffs(grid, [0.03]).invariant
    assert Potential(grid, grid.broadcast(0.03 * grid.u**2)).invariant
    assert not Potential(grid, grid.broadcast(0.03 * grid.u**2), invariant=False).invariant


def test_laplacian_eigenfunction_radial(radial, flat):
    # first radial spherical harmonic x3 = 1 - 2u: closed form gives
    # ddbar x3 = -2 A0 x3, so Delta_0 x3 = 2 x3 in this normalization
    md = metric_data(flat)
    f = 1.0 - 2.0 * radial.u
    lap = radial.base_laplace(f) / md.density
    assert np.max(np.abs(lap - 2.0 * f)) <= 1e-6
    interior = (radial.u > 0.02) & (radial.u < 0.98)
    assert np.max(np.abs(lap - 2.0 * f)[interior]) <= 1e-9


def test_laplacian_eigenfunction_full2d(grid2d):
    # degree-2 harmonic 2 u(1-u) cos 2theta is polynomial radially, so the
    # spectral operator resolves it to roundoff; eigenvalue 6
    md = metric_data(zero_potential(grid2d))
    y22 = 2.0 * (grid2d.u * (1.0 - grid2d.u))[:, None] * np.cos(2.0 * grid2d.theta)[None, :]
    assert np.max(np.abs(grid2d.base_laplace(y22) / md.density - 6.0 * y22)) <= 1e-9
    # odd angular frequencies carry half-integer radial powers; pointwise
    # derivatives near the pole are then only approximate, while the tiny
    # local coefficient keeps every weighted integral accurate
    x1 = 2.0 * np.sqrt(grid2d.u * (1.0 - grid2d.u))[:, None] * np.cos(grid2d.theta)[None, :]
    resid = grid2d.base_laplace(x1) / md.density - 2.0 * x1
    assert abs(md.integrate(resid * x1)) <= 1e-3
    interior = (grid2d.u > 0.05) & (grid2d.u < 0.95)
    assert np.max(np.abs(resid[interior, :])) <= 1e-2
