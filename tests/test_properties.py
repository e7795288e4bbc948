"""Property tests over random admissible u-polynomial profiles.

Gauss-Bonnet on both grids, the projection identity of fs o hilb, the scale
invariance of Z with the matching shift of i_k, and the group law of the
automorphism lifts.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kquant import (
    SBAR,
    AutomorphismLift,
    HermForm,
    NonKahlerError,
    bergman,
    build_grid,
    fs,
    hilb,
    i_k,
    identity_lift,
    metric_data,
    potential_from_radial_coeffs,
    potential_from_values,
    rotation_field,
    sigma_lift,
    z_sigma_k,
)

GRIDS = {"radial": build_grid("radial", 128), "full2d": build_grid("full2d", 48, 32)}

coefficients = st.lists(st.floats(-0.06, 0.06), min_size=1, max_size=5)
grid_modes = st.sampled_from(sorted(GRIDS))


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


scales = st.builds(
    lambda r, angle: r * np.exp(1j * angle), st.floats(0.6, 1.6), st.floats(0.0, 2.0 * np.pi)
)


@settings(max_examples=25, deadline=None)
@given(grid_modes, coefficients, scales, scales, st.floats(-0.02, 0.02))
def test_lift_group_law_property(mode, coeffs, a, b, amp):
    # sigma_ab^* omega = sigma_a^* sigma_b^* omega, so pulling back by the
    # composed lift equals pulling back by b, then by a
    grid = GRIDS[mode]
    pot = admissible(grid, coeffs)
    if mode == "full2d":  # a smooth frequency-2 wave, so the rotation part acts
        wave = amp * (grid.u * (1.0 - grid.u))[:, None] * np.cos(2.0 * grid.theta + 1.0)[None, :]
        pot = potential_from_values(grid, pot.values + wave, invariant=False)
    k = 4
    la, lb = AutomorphismLift(a, k), AutomorphismLift(b, k)
    ab = la.compose(lb)
    assert ab.scale == a * b and ab.degree == k
    one_by_one = la.pullback_potential(lb.pullback_potential(pot))
    assert np.max(np.abs(ab.pullback_potential(pot).values - one_by_one.values)) <= 1e-13
    back = la.compose(la.inverse()).pullback_potential(pot)
    assert np.max(np.abs(back.values - pot.values)) <= 1e-13
