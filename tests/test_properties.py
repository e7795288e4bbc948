"""Property tests over random admissible u-polynomial profiles.

Gauss-Bonnet on both grids, the projection identity of fs o hilb, the scale
invariance of Z with the matching shift of i_k, the group law of the
automorphism lifts, the two Futaki-Mabuchi facts behind the extremal field
(the Futaki invariant vanishes and the L^2 norm of theta_V does not depend on
the invariant potential), the K-energy against an independent closed form in
moment coordinates, and the closed-form classical energies against the path
rule they replace.
"""

import numpy as np
from numpy.polynomial import polynomial as P
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kquant import (
    SBAR,
    AutomorphismLift,
    HermForm,
    NonKahlerError,
    bergman,
    build_grid,
    circle_group,
    fs,
    hilb,
    holomorphy_potential,
    i_k,
    identity_lift,
    mabuchi_energy,
    metric_data,
    modified_k_energy,
    moment_energy,
    potential_from_radial_coeffs,
    potential_from_values,
    rotation_field,
    sigma_lift,
    z_sigma_k,
    zero_potential,
)

from helpers import path_energies

GRIDS = {"radial": build_grid("radial", 128), "full2d": build_grid("full2d", 48, 32)}
# The Futaki and closed-form K integrands are rational in u, not polynomial:
# 48 radial nodes leave quadrature errors near 1e-9 at the corners of the
# coefficient box, so those two properties take 128 radial nodes on both grids.
FINE = {"radial": GRIDS["radial"], "full2d": build_grid("full2d", 128, 16)}

coefficients = st.lists(st.floats(-0.06, 0.06), min_size=1, max_size=5)
grid_modes = st.sampled_from(sorted(GRIDS))
V = rotation_field(1.0)


def admissible(grid, coeffs):
    """The potential of the profile, skipping a draw that leaves the Kahler cone."""
    pot = potential_from_radial_coeffs(grid, coeffs)
    try:
        metric_data(pot)
    except NonKahlerError:
        assume(False)
    return pot


@settings(max_examples=25, deadline=None)
@given(grid_modes, coefficients)
def test_gauss_bonnet_property(mode, coeffs):
    pot = admissible(GRIDS[mode], coeffs)
    # the exact-profile curvature, and the spectral one of the same samples
    for p in (pot, pot.with_values(pot.values.copy())):
        md = metric_data(p)
        assert abs(md.integrate(md.scalar) - SBAR) <= 1e-11
        assert abs(md.integrate(np.ones_like(md.density)) - 1.0) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(grid_modes, coefficients, st.integers(1, 24))
def test_projection_identity_property(mode, coeffs, k):
    # fs(hilb phi) = phi + (1/k) log(rho_k / N)
    pot = admissible(GRIDS[mode], coeffs)
    want = pot.values + np.log(bergman(pot, k).values / (k + 1)) / k
    assert np.max(np.abs(fs(hilb(pot, k), pot.grid).values - want)) <= 1e-14


@settings(max_examples=20, deadline=None)
@given(coefficients, st.integers(1, 24), st.floats(-3.0, 3.0), st.booleans())
def test_z_invariance_and_i_k_shift_property(coeffs, k, c, twisted):
    grid = GRIDS["radial"]
    H = hilb(admissible(grid, coeffs), k)
    Hc = HermForm(None, k, log_diag=H.log_diag + c)
    lift = sigma_lift(rotation_field(1.0), k) if twisted else identity_lift(k)
    assert abs(i_k(Hc, grid) - i_k(H, grid) - (k + 1) * c) <= 1e-12 * max(1.0, (k + 1) * abs(c))
    z = z_sigma_k(H, grid, lift)
    assert abs(z_sigma_k(Hc, grid, lift) - z) <= 1e-10 * max(1.0, abs(z))


scales = st.floats(0.6, 1.6)


@settings(max_examples=25, deadline=None)
@given(grid_modes, coefficients, scales, scales, st.floats(-0.02, 0.02))
def test_lift_group_law_property(mode, coeffs, a, b, amp):
    # sigma_ab^* omega = sigma_a^* sigma_b^* omega, so pulling back by the
    # composed lift equals pulling back by b, then by a
    grid = GRIDS[mode]
    pot = admissible(grid, coeffs)
    if mode == "full2d":  # a smooth frequency-2 wave, so the pullback acts on a non-invariant field
        wave = amp * (grid.u * (1.0 - grid.u))[:, None] * np.cos(2.0 * grid.theta + 1.0)[None, :]
        pot = potential_from_values(grid, pot.values + wave, invariant=False)
    k = 4
    la, lb = AutomorphismLift(a, k), AutomorphismLift(b, k)
    ab = AutomorphismLift(a * b, k)
    one_by_one = la.pullback_potential(lb.pullback_potential(pot))
    assert np.max(np.abs(ab.pullback_potential(pot).values - one_by_one.values)) <= 1e-13
    back = la.inverse().pullback_potential(la.pullback_potential(pot))
    assert np.max(np.abs(back.values - pot.values)) <= 1e-13


def theta_norm_sq(pot):
    md = metric_data(pot)
    theta = holomorphy_potential(V, pot, md)
    return md, theta, md.integrate(theta * theta)


@settings(max_examples=25, deadline=None)
@given(grid_modes, coefficients)
def test_futaki_invariant_vanishes_property(mode, coeffs):
    # the round class admits no obstruction against V: int S theta_V d mu_phi = 0
    md, theta, _ = theta_norm_sq(admissible(FINE[mode], coeffs))
    assert abs(md.integrate(md.scalar * theta)) <= 1e-13


@settings(max_examples=25, deadline=None)
@given(grid_modes, coefficients)
def test_theta_norm_is_potential_independent_property(mode, coeffs):
    # Futaki-Mabuchi: int theta_V^2 d mu_phi is the same for every invariant phi,
    # from the exact profile and from its samples
    grid = GRIDS[mode]
    pot = admissible(grid, coeffs)
    at_zero = theta_norm_sq(zero_potential(grid))[2]
    for p in (pot, pot.with_values(pot.values.copy())):
        assert abs(theta_norm_sq(p)[2] - at_zero) <= 1e-12 * at_zero


def closed_form_k_energy(grid, coeffs) -> float:
    """K = int_0^1 (q - 1 - log q) dx in the moment coordinate x = u + g1, with
    q = x(1-x)/(density u(1-u)), g1 = u(1-u) phi_u and dx = density du."""
    u, w = grid.radial.u, grid.radial.weights
    dphi = P.polyder(np.concatenate([[0.0], coeffs]))
    g1 = P.polymul(dphi, [0.0, 1.0, -1.0])
    x = u + P.polyval(u, g1)
    density = 1.0 + P.polyval(u, P.polyder(g1))
    q = x * (1.0 - x) / (density * u * (1.0 - u))
    return float(np.sum(w * density * (q - 1.0 - np.log(q))))


@settings(max_examples=25, deadline=None)
@given(grid_modes, coefficients)
def test_k_energy_matches_closed_form_property(mode, coeffs):
    # the absolute floor is the roundoff of q - 1 - log q near q = 1
    grid = FINE[mode]
    want = closed_form_k_energy(grid, coeffs)
    assert abs(mabuchi_energy(admissible(grid, coeffs)) - want) <= 1e-11 * abs(want) + 1e-14


ENERGY_GRIDS = {
    "radial 128": GRIDS["radial"],
    "radial 512": build_grid("radial", 512),
    "full2d 48x32": GRIDS["full2d"],
    "full2d 96x64": build_grid("full2d", 96, 64),
}
# The path rule takes the curvature integrand to 1e-11 only from 64 radial
# nodes on: at 48 it errs by up to 7.5e-10 relative at the corners of the
# coefficient box, where the closed form on 48 nodes still holds 3e-13.  So
# the oracle for 48x32 runs on 64x32.
ORACLE_GRIDS = {**ENERGY_GRIDS, "full2d 48x32": build_grid("full2d", 64, 32)}


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(ENERGY_GRIDS)), coefficients)
def test_closed_form_energies_match_the_path_rule_property(name, coeffs):
    pot = admissible(ENERGY_GRIDS[name], coeffs)
    want = path_energies(admissible(ORACLE_GRIDS[name], coeffs), V)
    got = {
        "mabuchi": mabuchi_energy(pot),
        "moment": moment_energy(pot, V),
        "relative": modified_k_energy(pot, circle_group(V)),
    }
    for key, value in got.items():
        assert abs(value - want[key]) <= 1e-11 * abs(want[key]) + 1e-14, key
