import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from kquant import (
    HermForm,
    KQuantError,
    NotPositiveDefiniteError,
    Potential,
    balanced_residual,
    bergman,
    bergman_path,
    bk_geodesic,
    build_grid,
    calabi,
    circle_group,
    delta_i_sigma,
    delta_l_sigma,
    extremal_field,
    fk_prime,
    fs,
    hilb,
    holomorphy_potential,
    i_k,
    i_sigma_hessian,
    i_sigma_k,
    identity_lift,
    l_sigma_k,
    linear_path,
    mabuchi_energy,
    metric_data,
    modified_k_energy,
    moment_energy,
    potential_from_radial_coeffs,
    potential_from_values,
    psi_potential,
    quadratic_path,
    reparam_path,
    rotation_field,
    sections_dim,
    segment_path,
    sigma_balanced_iterate,
    sigma_lift,
    trivial_group,
    two_leg_path,
    z_second_derivative_fd,
    z_sigma_k,
    zero_potential,
)
from kquant.functionals import S_NODES, _pairing

from helpers import geodesic_distance, path_energies, path_integral_by_node, path_primitive, z_first_variation

V = rotation_field(1.0)


def diag_form(rng, k, spread=1.0):
    return HermForm(None, k, log_diag=rng.uniform(-spread, spread, k + 1))


# ---------------------------------------------------------------------------
# Matrix-level functional


def test_i_k_base_and_scaling(radial, flat):
    H = hilb(flat, 6)
    assert abs(i_k(H, radial)) <= 1e-12
    c = 1.7
    scaled = HermForm(None, 6, log_diag=H.log_diag + np.log(c))
    assert abs(i_k(scaled, radial) - sections_dim(6) * np.log(c)) <= 1e-10


def test_i_k_affine_along_geodesics(radial):
    rng = np.random.default_rng(3)
    k = 6
    geo = bk_geodesic(diag_form(rng, k), diag_form(rng, k))
    i0 = i_k(geo.form_at(0.0), radial)
    for s in (0.25, 0.6, 1.0):
        expect = i0 + 2.0 * s * float(np.sum(geo.lambdas))
        assert abs(i_k(geo.form_at(s), radial) - expect) <= 1e-10


def test_geodesic_endpoints_and_homothety(radial):
    rng = np.random.default_rng(5)
    k = 6
    H0, H1 = diag_form(rng, k), diag_form(rng, k)
    geo = bk_geodesic(H0, H1)
    assert np.max(np.abs(geo.form_at(0.0).entries - H0.entries)) <= 1e-10
    assert np.max(np.abs(geo.form_at(1.0).entries - H1.entries)) <= 1e-10
    c = 2.3
    hom = bk_geodesic(H0, HermForm(None, k, log_diag=H0.log_diag + np.log(c)))
    assert np.max(np.abs(hom.lambdas - 0.5 * np.log(c))) <= 1e-12
    assert abs(geodesic_distance(hom) - np.sqrt(k + 1.0) * abs(np.log(c))) <= 1e-10


def test_geodesic_rejects_bad_endpoints(radial):
    good = HermForm(np.eye(3, dtype=complex), 2)
    bad = HermForm(np.diag([1.0, -1.0, 1.0]).astype(complex), 2)
    with pytest.raises(NotPositiveDefiniteError):
        bk_geodesic(good, bad)


# ---------------------------------------------------------------------------
# Twisted Aubin energy: differential, primitive, path independence


def test_delta_constant_direction_closed_form(radial, bump):
    c = 0.37
    for k in (4, 9):
        for lift in (identity_lift(k), sigma_lift(V, k)):
            val = delta_i_sigma(bump, np.full_like(bump.values, c), k, lift)
            assert abs(val - c * k * sections_dim(k)) <= 1e-9 * k * k


def test_delta_linearity_and_zero(radial, bump):
    k = 6
    d1 = potential_from_radial_coeffs(radial, [0.02, -0.01]).values
    d2 = potential_from_radial_coeffs(radial, [-0.01, 0.03, 0.01]).values
    a = delta_i_sigma(bump, d1, k)
    b = delta_i_sigma(bump, d2, k)
    ab = delta_i_sigma(bump, 2.0 * d1 - 3.0 * d2, k)
    assert abs(ab - (2.0 * a - 3.0 * b)) <= 1e-10 * max(abs(a), abs(b))
    assert delta_i_sigma(bump, np.zeros_like(bump.values), k) == 0.0


@pytest.mark.parametrize("mode", ["radial", "full2d"])
def test_pairing_matches_the_phi_measure_form(radial, grid2d, bump, mode):
    # the density cancels from int f Delta_phi g d mu_phi; the reference keeps
    # it, on one field with an angular wave on full2d and on a path block
    grid = radial if mode == "radial" else grid2d
    pot, k = potential_from_radial_coeffs(grid, bump.profile), 8
    wave = 0.0 if mode == "radial" else 0.1 * grid.u[:, None] * (1.0 - grid.u[:, None]) * np.cos(2.0 * grid.theta)
    direction = potential_from_radial_coeffs(grid, [0.02, -0.01, 0.03]).values + wave
    path = linear_path(pot)
    blocks = [(pot, direction, np.exp(wave) * bergman(pot, k).values), (path.phi(S_NODES), path.dphi(S_NODES), None)]
    for p, f, g in blocks:
        md = metric_data(p)
        g = psi_potential(sigma_lift(V, k), p, md=md).exp() if g is None else g
        got = _pairing(md, f, g, k)
        want = md.integrate(f * (k * g + grid.base_laplace(g) / md.density))
        assert np.shape(got) == np.shape(want)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_identity_twist_weight_is_the_constant(monkeypatch, radial, bump):
    # e^psi = (k+1)/k, so the differential is k(k+1) int eta d mu_phi, with no twist potential built
    import kquant.functionals

    path, k = linear_path(bump), 8
    pots, vel = path.phi(S_NODES), path.dphi(S_NODES)
    md = metric_data(pots)
    epsi = psi_potential(identity_lift(k), pots, md=md).exp()
    want = k * k * md.integrate(vel * epsi)

    def refuse(*args, **kwargs):
        raise AssertionError("psi_potential called at the identity twist")

    monkeypatch.setattr(kquant.functionals, "psi_potential", refuse)
    got = delta_i_sigma(pots, vel, k, identity_lift(k), md)
    assert np.array_equal(got, k * (k + 1) * md.integrate(vel))
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


WRONG_DEGREE_CALLS = {
    "delta_i_sigma": lambda p, lift: delta_i_sigma(p, p.values, 8, lift),
    "delta_l_sigma": lambda p, lift: delta_l_sigma(p, p.values, 8, lift),
    "i_sigma_k": lambda p, lift: i_sigma_k(p, 8, lift),
    "l_sigma_k": lambda p, lift: l_sigma_k(p, 8, lift),
    "z_sigma_k": lambda p, lift: z_sigma_k(hilb(p, 8), p.grid, lift),
    "z_second_derivative_fd": lambda p, lift: z_second_derivative_fd(
        bk_geodesic(hilb(zero_potential(p.grid), 8), hilb(p, 8)), p.grid, lift
    ),
    "i_sigma_hessian": lambda p, lift: i_sigma_hessian(linear_path(p), 0.5, 8, lift),
    "fk_prime": lambda p, lift: fk_prime(p, zero_potential(p.grid), 8, lift),
    "balanced_residual": lambda p, lift: balanced_residual(p, 8, lift),
    "sigma_balanced_iterate": lambda p, lift: sigma_balanced_iterate(p, 8, lift, max_iter=1),
}


@pytest.mark.parametrize("lift", [identity_lift(16), sigma_lift(V, 16)], ids=["identity", "gradient"])
@pytest.mark.parametrize("name", sorted(WRONG_DEGREE_CALLS))
def test_lift_of_another_degree_is_refused(radial_small, name, lift):
    # every function that takes k and a lift reads k for its weights, so a
    # lift of degree 16 at k = 8 would mix two degrees
    pot = potential_from_radial_coeffs(radial_small, [0.05, -0.07])
    with pytest.raises(KQuantError, match="degree 16 cannot act at degree 8"):
        WRONG_DEGREE_CALLS[name](pot, lift)


def test_primitive_zero_and_constant_value(radial, flat):
    for k in (4, 8):
        assert abs(i_sigma_k(flat, k)) <= 1e-12
        c = 0.29
        val = i_sigma_k(flat.shifted(c), k)
        assert abs(val - c * k * sections_dim(k)) <= 1e-8 * k * k


def test_gradient_check_identity_twist(radial, bump):
    rng = np.random.default_rng(11)
    k = 8
    rels = []
    for _ in range(10):
        d = potential_from_radial_coeffs(radial, rng.uniform(-0.4, 0.4, 4)).values
        formula = delta_i_sigma(bump, d, k)
        eps = 1e-4
        plus = i_sigma_k(bump.with_values(bump.values + eps * d), k)
        minus = i_sigma_k(bump.with_values(bump.values - eps * d), k)
        rels.append(abs(formula - (plus - minus) / (2 * eps)) / abs(formula))
    assert max(rels) <= 1e-6


def test_gradient_check_gradient_twist(radial, bump):
    # the twisted one-form is closed only to second order in the twist
    # displacement, so the finite-difference defect is measured against the
    # natural k^2-scale of the differential and must shrink by ~4x per octave
    rng = np.random.default_rng(12)
    worst = {}
    for k in (8, 16):
        lift = sigma_lift(V, k)
        defects = []
        for _ in range(10):
            d = potential_from_radial_coeffs(radial, rng.uniform(-0.4, 0.4, 4)).values
            formula = delta_i_sigma(bump, d, k, lift)
            eps = 1e-4
            plus = i_sigma_k(bump.with_values(bump.values + eps * d), k, lift)
            minus = i_sigma_k(bump.with_values(bump.values - eps * d), k, lift)
            fd = (plus - minus) / (2 * eps)
            defects.append(abs(formula - fd) / (k * k * np.max(np.abs(d))))
        worst[k] = max(defects)
    assert worst[8] <= 5e-5
    assert worst[16] <= worst[8] / 2.0


def builder_paths(grid, bump):
    """Each path builder's legs, with whether its points keep the exact profile."""
    mid = potential_from_radial_coeffs(grid, [-0.02, 0.04, 0.015])
    rng = np.random.default_rng(5)
    vel, acc = (potential_from_radial_coeffs(grid, rng.uniform(-0.03, 0.03, 3)) for _ in range(2))
    sampled_vel, sampled_acc = (bump.with_values(p.values) for p in (vel, acc))
    return {
        "linear": ([linear_path(bump)], True),
        "reparam": ([reparam_path(bump, power=3)], True),
        "segment": ([segment_path(mid, bump)], True),
        "two-leg": (two_leg_path(mid, bump), True),
        "quadratic": ([quadratic_path(bump, sampled_vel, sampled_acc)], False),
        "quadratic-profile": ([quadratic_path(bump, vel, acc)], True),
        "bergman": ([bergman_path(bump, 16)], False),
    }


@pytest.mark.parametrize(
    "name", ["linear", "reparam", "segment", "two-leg", "quadratic", "quadratic-profile", "bergman"]
)
def test_path_derivatives_and_profiles(radial, bump, name):
    legs, keeps_profile = builder_paths(radial, bump)[name]
    h = 1e-4
    for path in legs:
        for s in (0.3, 0.8):
            below, here, above = (path.phi(s + d).values for d in (-h, 0.0, h))
            tol = 1e-6 * np.max(np.abs(here))
            assert np.max(np.abs(path.dphi(s) - (above - below) / (2 * h))) <= tol
            assert np.max(np.abs(path.d2phi(s) - (above - 2 * here + below) / h**2)) <= tol
            assert (path.phi(s).profile is not None) == keeps_profile


@pytest.mark.parametrize(
    "name", ["linear", "reparam", "segment", "two-leg", "quadratic", "quadratic-profile", "bergman"]
)
def test_path_arithmetic_is_numpys_bit_for_bit(radial, bump, name):
    # coefficients takes numpy's Horner steps inline and phi contracts one
    # zero-padded table of the term profiles; both keep numpy's values bit
    # for bit: polyval of polyder, and the padded sum of outer products
    legs, keeps_profile = builder_paths(radial, bump)[name]
    for path in legs:
        rates = [np.array(c, dtype=float) for _, c in path.terms]
        for m in (0, 1, 2):
            for s in (0.52, S_NODES):
                want = np.array([P.polyval(s, r) for r in rates])
                assert path.coefficients(s, m).tobytes() == want.tobytes()
            rates = [P.polyder(r) for r in rates]
        for s in (0.52, S_NODES):
            got = path.phi(s).profile
            if not keeps_profile:
                assert got is None
                continue
            n = max(len(p.profile) for p, _ in path.terms)
            padded = [np.pad(p.profile, (0, n - len(p.profile))) for p, _ in path.terms]
            want = sum(np.multiply.outer(a, c) for a, c in zip(padded, path.coefficients(s)))
            assert got.tobytes() == want.tobytes()


def profile_offsets(pot) -> np.ndarray:
    """Spread of values minus the field of the exact profile, over each field of a block."""
    coeffs = np.concatenate([np.zeros((1,) + pot.profile.shape[1:]), pot.profile])
    gap = pot.values - pot.grid.broadcast(P.polyval(pot.grid.u, coeffs))
    return np.ptp(gap, axis=tuple(range(-len(pot.grid.shape), 0)))


@pytest.mark.parametrize("mode", ["radial", "full2d"])
def test_profiles_drop_only_a_constant(radial, grid2d, mode):
    # The profile leaves out the constant term, which no metric quantity reads;
    # the values keep it, so the two differ by one constant per field.
    grid = radial if mode == "radial" else grid2d
    pot = potential_from_radial_coeffs(grid, [0.05, -0.07, 0.02])
    shifted = pot.shifted(0.3)
    pots = [pot.scaled(-0.6), shifted, shifted.scaled(2.0), shifted.mean_normalized()]
    for legs, keeps_profile in builder_paths(grid, shifted).values():
        for leg in legs:
            block = leg.phi(S_NODES)
            assert (block.profile is not None) == keeps_profile
            if keeps_profile:
                assert block.profile.shape[1:] == S_NODES.shape
                pots.append(block)
    for p in pots:
        assert np.max(profile_offsets(p)) <= 1e-14
    # g1 and density, and the curvature read on demand
    got, want = metric_data(shifted), metric_data(pot)
    for name in ("g1", "density", "scalar"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


def test_path_independence_exact_for_reference_twist(radial, bump):
    mid = potential_from_radial_coeffs(radial, [-0.02, 0.04, 0.015, -0.01])
    for k in (4, 8):
        vals = [
            i_sigma_k(bump, k, path=linear_path(bump)),
            i_sigma_k(bump, k, path=reparam_path(bump, power=2)),
            i_sigma_k(bump, k, path=two_leg_path(mid, bump)),
        ]
        spread = (max(vals) - min(vals)) / abs(vals[0])
        assert spread <= 1e-6


def test_twisted_path_defect_is_second_order(radial, bump):
    # the three-path disagreement of the twisted functional decays like the
    # square of the twist displacement ~ 1/k^2
    mid = potential_from_radial_coeffs(radial, [-0.02, 0.04, 0.015, -0.01])

    def defect(k):
        lift = sigma_lift(V, k)
        a = i_sigma_k(bump, k, lift, path=linear_path(bump))
        b = i_sigma_k(bump, k, lift, path=two_leg_path(mid, bump))
        return abs(b - a) / abs(a)

    d8, d32 = defect(8), defect(32)
    assert d32 <= d8 / 8.0  # the twist displacement is ~1/(4k), so ~16x here
    assert d8 <= 1e-4


def test_cocycle_property_reference_twist(radial, bump):
    mid = potential_from_radial_coeffs(radial, [0.01, -0.02, 0.03])
    k = 6
    direct = i_sigma_k(bump, k, path=linear_path(bump))
    leg1 = i_sigma_k(mid, k, path=linear_path(mid))
    leg2 = i_sigma_k(bump, k, path=segment_path(mid, bump))
    assert abs(direct - (leg1 + leg2)) / abs(direct) <= 1e-7


# ---------------------------------------------------------------------------
# Quantized energies L and Z


def test_l_zero_at_base(radial, flat):
    for k in (4, 8):
        assert abs(l_sigma_k(flat, k)) <= 1e-10


def test_z_scale_invariance_and_base_value(radial, flat, bump):
    k = 6
    H = hilb(bump, k)
    z1 = z_sigma_k(H, radial)
    z2 = z_sigma_k(HermForm(None, k, log_diag=H.log_diag + np.log(3.1)), radial)
    assert abs(z1 - z2) <= 1e-8
    assert abs(z_sigma_k(hilb(flat, k), radial)) <= 1e-9


def test_compare_l_and_z_decay(radial, bump):
    vals = []
    for k in (8, 32):
        L = l_sigma_k(bump, k)
        Z = z_sigma_k(hilb(bump, k), radial)
        vals.append(abs(L - Z) / k)
    assert vals[1] <= vals[0] / 6.0


def test_criticality_at_balanced_point(radial):
    pot = potential_from_radial_coeffs(radial, [0.02, -0.03, 0.01])
    bal, log = sigma_balanced_iterate(pot, 8, max_iter=400, tol=1e-10)
    assert log.converged
    rng = np.random.default_rng(2)
    for _ in range(5):
        d = potential_from_radial_coeffs(radial, rng.uniform(-1, 1, 4)).values
        val = abs(delta_l_sigma(bal, d, 8))
        assert val <= 1e-6 * np.max(np.abs(d))


def test_delta_l_matches_fd(radial, bump):
    # identity twist: relative error; gradient twist: the defect on the k^2
    # scale of the differential, as in the twisted gradient check above
    rng = np.random.default_rng(14)
    eps = 1e-4
    for k in (8, 16):
        for lift, bound in ((identity_lift(k), 1e-6), (sigma_lift(V, k), 5e-5)):
            d = potential_from_radial_coeffs(radial, rng.uniform(-0.4, 0.4, 4)).values
            formula = delta_l_sigma(bump, d, k, lift)
            plus = l_sigma_k(bump.with_values(bump.values + eps * d), k, lift)
            minus = l_sigma_k(bump.with_values(bump.values - eps * d), k, lift)
            scale = abs(formula) if lift.is_identity else k * k * np.max(np.abs(d))
            assert abs(formula - (plus - minus) / (2 * eps)) / scale <= bound


def test_z_minimal_at_balanced_point(radial):
    # one-sided slopes of Z along geodesics leaving the balanced Gram form
    pot = potential_from_radial_coeffs(radial, [0.02, -0.03, 0.01])
    bal, log = sigma_balanced_iterate(pot, 8, max_iter=400, tol=1e-10)
    Hb = hilb(bal, 8)
    z0 = z_sigma_k(Hb, radial)
    rng = np.random.default_rng(9)
    h = 1e-3
    for _ in range(5):
        geo = bk_geodesic(Hb, diag_form(rng, 8))
        slope = (z_sigma_k(geo.form_at(h), radial) - z0) / h
        assert slope >= -1e-8


# ---------------------------------------------------------------------------
# Classical functionals


def test_calabi_zero_and_quadratic(radial, flat, bump):
    assert calabi(flat) <= 1e-20
    assert calabi(bump) > 0.0
    # quadratic leading order in the bump amplitude
    c1 = calabi(bump.scaled(0.5))
    c2 = calabi(bump.scaled(0.25))
    assert c1 / c2 == pytest.approx(4.0, rel=0.2)


def test_k_energy_gradient_check(radial, bump):
    md = metric_data(bump)
    rng = np.random.default_rng(21)
    for _ in range(3):
        d = potential_from_radial_coeffs(radial, rng.uniform(-0.5, 0.5, 4)).values
        one_form = -md.integrate(d * (md.scalar - 2.0))
        eps = 1e-5
        plus = mabuchi_energy(bump.with_values(bump.values + eps * d))
        minus = mabuchi_energy(bump.with_values(bump.values - eps * d))
        fd = (plus - minus) / (2 * eps)
        assert abs(one_form - fd) / abs(fd) <= 1e-5


def test_moment_energy_gradient_check(radial, bump):
    md = metric_data(bump)
    rng = np.random.default_rng(22)
    d = potential_from_radial_coeffs(radial, rng.uniform(-0.5, 0.5, 4)).values
    one_form = md.integrate(d * holomorphy_potential(V, bump))
    eps = 1e-5
    fd = (
        moment_energy(bump.with_values(bump.values + eps * d), V)
        - moment_energy(bump.with_values(bump.values - eps * d), V)
    ) / (2 * eps)
    assert abs(one_form - fd) / abs(fd) <= 1e-5


def test_modified_energy_reduces_to_k_energy(radial, grid2d, bump):
    G0, Gc = trivial_group(), circle_group(V)
    with pytest.raises(KQuantError):
        circle_group(rotation_field(0.0))
    assert extremal_field(G0, radial).is_zero
    # the Futaki invariant of the round class vanishes, so the extremal
    # field is zero and the modified energy is the K-energy
    e0 = mabuchi_energy(bump)
    assert abs(modified_k_energy(bump, Gc) - e0) <= 1e-9 * max(abs(e0), 1.0)
    # with the zero field it is the K-energy exactly, closed form or path rule, on either grid
    for p in (bump, bump.with_values(bump.values.copy()), potential_from_radial_coeffs(grid2d, [0.05, -0.07, 0.02])):
        assert modified_k_energy(p, G0) == mabuchi_energy(p)


def test_extremal_field_of_the_round_class_is_exactly_zero(radial, grid2d):
    # the numerator is the Futaki invariant int (S - SBAR) theta_V d mu_0 at 0,
    # where S = SBAR at every node: c is 0.0, not roundoff
    for grid in (radial, grid2d):
        assert extremal_field(circle_group(V), grid).is_zero


def test_modified_energy_rejects_non_invariant(grid2d):
    x1 = 2.0 * np.sqrt(grid2d.u * (1.0 - grid2d.u))[:, None] * np.cos(grid2d.theta)[None, :]
    pot = potential_from_values(grid2d, 0.02 * x1, invariant=False)
    with pytest.raises(KQuantError):
        modified_k_energy(pot, circle_group(V))
    with pytest.raises(KQuantError):
        moment_energy(pot, V)
    # the same wave over a profile is refused when built: a profile marks an
    # invariant potential, so the invariance flag alone picks the energy's route
    prof = potential_from_radial_coeffs(grid2d, [0.05, -0.07])
    with pytest.raises(KQuantError):
        Potential(grid2d, prof.values + 0.02 * x1, False, prof.profile)


def test_closed_form_energies_reject_non_kahler_profiles(radial, grid2d):
    from kquant import NonKahlerError

    for grid in (radial, grid2d):
        # phi = a u^2 has density 1 - 2a(3u^2 - 2u): negative near u = 1 for a = 1,
        # and -1e-3 at the outermost node for a = edge
        u = grid.u[-1]
        edge = (1.0 + 1e-3) / (2.0 * (3.0 * u * u - 2.0 * u))
        for a in (1.0, edge):
            pot = potential_from_radial_coeffs(grid, [0.0, a])
            dens = 1.0 - 2.0 * a * (3.0 * grid.u**2 - 2.0 * grid.u)
            assert np.min(dens) <= 0.0
            for energy in (
                lambda: mabuchi_energy(pot),
                lambda: moment_energy(pot, V),
                lambda: modified_k_energy(pot, circle_group(V)),
                lambda: modified_k_energy(pot, trivial_group()),
            ):
                with pytest.raises(NonKahlerError):
                    energy()
        # at the edge every node of the path rule (s <= 0.9986) still has a
        # positive density: the closed form checks the segment's end
        assert np.min(1.0 + S_NODES[-1] * (dens - 1.0)) > 0.0


def test_closed_form_k_energy_resolves_on_48_radial_nodes():
    # 0.06 (u + ... + u^5) against the path rule on radial 512: on full2d 48x32
    # the closed form is 7.3e-13 off, where the path rule on 48x32 is 7.5e-10 off
    coeffs = [0.06] * 5
    want = path_energies(potential_from_radial_coeffs(build_grid("radial", 512), coeffs), V)["mabuchi"]
    got = mabuchi_energy(potential_from_radial_coeffs(build_grid("full2d", 48, 32), coeffs))
    assert abs(got - want) <= 1e-12 * want


def test_closed_form_k_integrand_is_nonnegative_at_every_node(radial, grid2d):
    # K = int (q - 1 - log q) dx with q - 1 - log q >= 0 for q > 0: the lower
    # bound of the K-energy holds node by node on invariant potentials, with
    # an exact profile or sampled
    from kquant.functionals import _moment_integral

    rng = np.random.default_rng(17)
    for grid in (radial, grid2d):
        for _ in range(20):
            prof = potential_from_radial_coeffs(grid, rng.uniform(-0.05, 0.05, 4))
            for pot in (prof, prof.with_values(prof.values.copy())):
                seen = []

                def integrand(x, q, dG):
                    seen.append(q - 1.0 - np.log(q))
                    return seen[-1]

                K = _moment_integral(pot, integrand)
                assert len(seen) == 1 and np.min(seen[0]) >= 0.0
                assert K == mabuchi_energy(pot) and K > 0.0


@pytest.mark.parametrize("mode", ["radial", "full2d"])
def test_sampled_invariant_potentials_take_the_closed_forms(radial, grid2d, mode):
    # the samples of a profile carry no profile, so g1 and the density come
    # from spectral differentiation; the closed forms on them match the
    # profile's to 1e-12 (4e-13 at worst), where the path rule's spectral
    # curvature misses K by up to 4.6e-8 on radial 512 and 6.3e-11 on full2d
    grid = radial if mode == "radial" else grid2d
    rng = np.random.default_rng(31)
    for _ in range(10):
        prof = potential_from_radial_coeffs(grid, rng.uniform(-0.05, 0.05, 4))
        sampled = potential_from_values(grid, prof.values)
        assert sampled.profile is None and sampled.invariant
        for energy in (mabuchi_energy, lambda p: moment_energy(p, V)):
            want = energy(prof)
            assert abs(energy(sampled) - want) <= 1e-12 * abs(want)


def test_energy_scaled_family_positive(radial, bump):
    for t in (-1.0, -0.5, 0.5, 1.0):
        assert mabuchi_energy(bump.scaled(t)) >= -1e-10


def spy_metric_data(monkeypatch):
    """The potentials passed to metric_data from functionals, geometry and the path oracle, recorded."""
    import helpers
    import kquant.functionals
    import kquant.geometry

    calls = []

    def spy(pot):
        calls.append(pot)
        return metric_data(pot)

    for module in (kquant.functionals, kquant.geometry, helpers):
        monkeypatch.setattr(module, "metric_data", spy)
    return calls


def test_energy_primitive_keeps_exact_profile(monkeypatch, bump, grid2d):
    calls = spy_metric_data(monkeypatch)
    mabuchi_energy(bump)
    # the closed form reads the exact profile: one check of the potential itself, no block
    assert len(calls) == 1 and calls[0] is bump
    # a sampled invariant potential takes the same closed form
    calls.clear()
    sampled = bump.with_values(bump.values.copy())
    mabuchi_energy(sampled)
    assert len(calls) == 1 and calls[0] is sampled
    # the path oracle: one block call covers the 32 nodes, and its profile
    # holds a row per power, a column per node
    calls.clear()
    path_primitive(bump, lambda p, md: -(md.scalar - 2.0))
    assert len(calls) == 1 and calls[0].profile is not None
    assert calls[0].profile.shape == (len(bump.profile),) + S_NODES.shape
    # off the invariant slice the K-energy takes the path rule: one block call with 32 nodes
    calls.clear()
    x1 = 2.0 * np.sqrt(grid2d.u * (1.0 - grid2d.u))[:, None] * np.cos(grid2d.theta)[None, :]
    waved = potential_from_values(grid2d, 0.02 * x1)
    assert not waved.invariant
    mabuchi_energy(waved)
    assert len(calls) == 1 and calls[0].profile is None
    assert calls[0].values.shape == S_NODES.shape + grid2d.shape


@pytest.mark.parametrize("energy", ["moment", "relative"])
def test_energy_fields_share_one_metric_data_per_node(monkeypatch, bump, energy):
    # reference: the same rule, with the holomorphy potential building its
    # own metric data at every node, and the curvature projected onto it at
    # every node rather than through the extremal field
    def reduced(p, md):
        theta = holomorphy_potential(V, p)
        return (md.scalar - 2.0) - (md.integrate(md.scalar * theta) / md.integrate(theta * theta)) * theta

    field = {"moment": lambda p, md: holomorphy_potential(V, p), "relative": lambda p, md: -reduced(p, md)}[energy]
    def one_form(p, vel):
        md = metric_data(p)
        return md.integrate(vel * field(p, md))

    want = path_integral_by_node(linear_path(bump), one_form)

    calls = spy_metric_data(monkeypatch)
    got = moment_energy(bump, V) if energy == "moment" else modified_k_energy(bump, circle_group(V))
    # the closed forms check the potential once per energy, never a block; the
    # extremal field is read on the radial rule, with no metric data, and is
    # zero, so the relative K-energy is the K-energy alone
    assert [p is bump for p in calls] == [True]
    assert abs(got - want) <= 1e-13 * abs(want)


# ---------------------------------------------------------------------------
# Z variations and the slope formula


def test_z_first_variation_matches_fd(radial):
    rng = np.random.default_rng(7)
    k = 8
    geo = bk_geodesic(diag_form(rng, k, 0.8), diag_form(rng, k, 0.8))
    s0, h = 0.37, 1e-3
    for lift, tol in ((identity_lift(k), 1e-5), (sigma_lift(V, k), 5e-3)):
        dz = z_first_variation(geo, radial, s0, lift)
        fd = (
            z_sigma_k(geo.form_at(s0 + h), radial, lift)
            - z_sigma_k(geo.form_at(s0 - h), radial, lift)
        ) / (2 * h)
        assert abs(dz - fd) / abs(fd) <= tol


def test_z_convexity_fd(radial):
    rng = np.random.default_rng(8)
    for k in (6, 12):
        for lift in (identity_lift(k), sigma_lift(V, k)):
            geo = bk_geodesic(diag_form(rng, k), diag_form(rng, k))
            assert z_second_derivative_fd(geo, radial, lift) >= -1e-8


def test_hessian_constant_path_zero(radial, bump):
    still = bump.with_values(np.zeros_like(bump.values))
    path = quadratic_path(bump, still, still)
    assert i_sigma_hessian(path, 0.5, 8) == 0.0


def test_hessian_affine_path_negative(radial, bump):
    path = linear_path(bump)
    for k in (4, 16):
        assert i_sigma_hessian(path, 0.5, k) < 0.0


def test_hessian_matches_fd(radial, bump):
    rng = np.random.default_rng(13)
    k = 8
    vel = potential_from_radial_coeffs(radial, rng.uniform(-0.04, 0.04, 4)).values
    acc = potential_from_radial_coeffs(radial, rng.uniform(-0.03, 0.03, 4)).values
    path = quadratic_path(bump, bump.with_values(vel), bump.with_values(acc))
    s0, h = 0.5, 0.02
    for lift in (identity_lift(k), sigma_lift(V, k)):
        formula = i_sigma_hessian(path, s0, k, lift)
        ivals = [i_sigma_k(path.phi(s0 + d), k, lift) for d in (-h, 0.0, h)]
        fd = (ivals[0] - 2 * ivals[1] + ivals[2]) / h**2
        assert abs(formula - fd) / abs(fd) <= 1e-4


def test_concavity_along_projection_path(radial, bump):
    for k in (8, 32):
        path = bergman_path(bump, k)
        for lift in (identity_lift(k), sigma_lift(V, k)):
            vals = [i_sigma_hessian(path, s, k, lift) for s in (0.0, 0.5, 1.0)]
            assert max(vals) < 0.0


def test_projection_path_endpoint(radial, bump):
    # the projection path ends at fs(hilb(phi)) up to the dimension constant
    k = 8
    path = bergman_path(bump, k)
    end = path.phi(1.0).values
    proj = fs(hilb(bump, k), radial).values + np.log(sections_dim(k)) / k
    assert np.max(np.abs(end - proj)) <= 1e-10


def test_fk_prime_zero_at_reference(radial, flat):
    slope, bound = fk_prime(flat, flat, 8, identity_lift(8))
    assert abs(slope) <= 1e-10
    assert bound <= 1e-12


def test_fk_prime_vanishes_at_round_reference(radial, flat, bump):
    # with the reference twist the round potential is exactly balanced, so
    # the slope formula collapses identically
    for k in (8, 32):
        slope, bound = fk_prime(bump, flat, k, identity_lift(k))
        assert abs(slope) / k <= 1e-12
        assert bound < 1.0


def test_fk_prime_chain_inequality(radial, flat, bump):
    for k in (8, 32):
        for lift in (identity_lift(k), sigma_lift(V, k)):
            slope, _ = fk_prime(bump, flat, k, lift)
            gap = (
                z_sigma_k(hilb(bump, k), radial, lift)
                - z_sigma_k(hilb(flat, k), radial, lift)
            )
            assert gap / k >= slope / k - 1e-10


def test_fk_prime_agrees_with_z_slope_identity_twist(radial, flat, bump):
    # the slope formula evaluates the exact first variation at s = 0 once the
    # reference is balanced and the twist trivial
    k = 12
    geo = bk_geodesic(hilb(flat, k), hilb(bump, k))
    dz = z_first_variation(geo, radial, 0.0, identity_lift(k))
    slope, _ = fk_prime(bump, flat, k, identity_lift(k))
    assert abs(dz - slope) <= 1e-9 * max(1.0, abs(dz))


@pytest.mark.parametrize("k", [4, 12, 32])
def test_fk_prime_agrees_with_z_slope_gradient_twist(radial, flat, bump, k):
    lift = sigma_lift(V, k)
    geo = bk_geodesic(hilb(flat, k), hilb(bump, k))
    dz = z_first_variation(geo, radial, 0.0, lift)
    slope, _ = fk_prime(bump, flat, k, lift)
    assert abs(dz - slope) <= 1e-12 * max(1.0, abs(dz))
