"""The path rule evaluates all its nodes as one block.

Every energy agrees with the per-node loop it replaced, on both grids and
with both twists, and every batched field operator agrees with the same
operator applied to each field of the block in turn.
"""

import numpy as np
import pytest

import kquant.functionals
from kquant import (
    bergman_path,
    circle_group,
    holomorphy_potential,
    i_sigma_k,
    identity_lift,
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
    sigma_lift,
    two_leg_path,
)
from kquant.functionals import S_NODES

from helpers import path_integral_by_node

V = rotation_field(1.0)
K = 8
REL = 1e-12
# The curvature of a sampled radial potential comes from two spectral
# Laplacians, whose roundoff at the pole nodes (near 5e-9 on radial 512) the
# block's matrix products round differently from the loop's matrix-vector
# products.  Exact profiles, and the 2D grid's field-by-field Laplacian,
# keep REL.
SPECTRAL_REL = 1e-10


@pytest.fixture(params=["radial", "grid2d"])
def grid(request):
    return request.getfixturevalue(request.param)


def wave(grid):
    """A non-invariant field on the 2D grid, zero on the radial one."""
    if grid.radial is grid:
        return np.zeros(grid.shape)
    return 2.0 * np.sqrt(grid.u * (1.0 - grid.u))[:, None] * np.cos(grid.theta)[None, :]


def potentials(grid):
    """An exact-profile potential and a sampled one with the same radial part."""
    prof = potential_from_radial_coeffs(grid, [0.05, -0.07])
    sampled = potential_from_values(grid, prof.values + 0.01 * grid.broadcast(grid.u**3) + 0.02 * wave(grid))
    return prof, sampled


def paths(grid, k):
    prof, sampled = potentials(grid)
    mid = potential_from_radial_coeffs(grid, [0.02, -0.03])
    vel = 0.3 * grid.broadcast(grid.u * (1.0 - grid.u)) + 0.01 * wave(grid)
    acc = -0.2 * grid.broadcast(grid.u**2)
    return {
        "linear": linear_path(sampled),
        "reparam": reparam_path(prof, power=3),
        "two-leg": two_leg_path(mid, prof),
        "quadratic": quadratic_path(sampled, vel, acc),
        "bergman": bergman_path(prof, k),
    }


def by_node(monkeypatch, energy):
    """energy() with the path rule run one node at a time."""
    with monkeypatch.context() as m:
        m.setattr(kquant.functionals, "_path_integral", path_integral_by_node)
        return energy()


@pytest.mark.parametrize("twisted", [False, True], ids=["identity", "gradient"])
@pytest.mark.parametrize("name", ["linear", "reparam", "two-leg", "quadratic", "bergman"])
def test_i_sigma_k_block_matches_node_loop(monkeypatch, grid, name, twisted):
    lift = sigma_lift(V, K) if twisted else identity_lift(K)
    path = paths(grid, K)[name]
    got = i_sigma_k(None, K, lift, path=path)
    want = by_node(monkeypatch, lambda: i_sigma_k(None, K, lift, path=path))
    assert abs(got - want) <= REL * abs(want)


@pytest.mark.parametrize("which", [0, 1], ids=["profile", "sampled"])
def test_classical_energies_block_matches_node_loop(monkeypatch, grid, which):
    pot = potentials(grid)[which]
    energies = {
        "mabuchi": lambda: mabuchi_energy(pot),
        "moment": lambda: moment_energy(pot, V),
        "relative": lambda: modified_k_energy(pot, circle_group(V)),
    }
    if not pot.invariant:  # the circle energies need invariant potentials
        energies = {"mabuchi": energies["mabuchi"]}
    rel = SPECTRAL_REL if pot.profile is None and grid.radial is grid else REL
    for name, energy in energies.items():
        got, want = energy(), by_node(monkeypatch, energy)
        assert abs(got - want) <= rel * abs(want), name


# ---------------------------------------------------------------------------
# Batched operators against their stacked single-field results


def block(grid, n=5):
    rng = np.random.default_rng(4)
    radial = np.stack([grid.broadcast(grid.u * rng.uniform(-1, 1) + grid.u**2 * rng.uniform(-1, 1)) for _ in range(n)])
    return radial + 0.1 * rng.uniform(0, 1, (n,) + (1,) * len(grid.shape)) * wave(grid)


def assert_stacked(batched, singles, floor=0.0):
    stacked = np.stack(singles)
    assert batched.shape == stacked.shape
    assert np.all(np.abs(batched - stacked) <= 1e-13 * max(1.0, np.max(np.abs(stacked))) + floor)


def laplace_floor(grid, F):
    """Forward error bound n eps |D| (u(1-u) |D| |F|) of the radial products in Delta_0 F."""
    absD = np.abs(grid.radial.D)
    uu = grid.broadcast(grid.u * (1.0 - grid.u))
    return grid.resolution * np.finfo(float).eps * grid.apply_radial(absD, uu * grid.apply_radial(absD, np.abs(F)))


def test_grid_operators_take_a_leading_batch_axis(grid):
    F, G = block(grid), block(grid)[::-1]
    w = grid.weights * (1.0 + 0.1 * F)
    M = np.random.default_rng(5).uniform(-1, 1, (grid.resolution, grid.resolution))
    assert_stacked(grid.base_laplace(F), [grid.base_laplace(f) for f in F], laplace_floor(grid, F))
    assert_stacked(grid.base_inner_grad(F, G), [grid.base_inner_grad(f, g) for f, g in zip(F, G)])
    assert_stacked(grid.rotate(F, 0.4), [grid.rotate(f, 0.4) for f in F])
    assert_stacked(grid.apply_radial(M, F), [grid.apply_radial(M, f) for f in F])
    assert_stacked(grid.integrate(F), [grid.integrate(f) for f in F])
    assert_stacked(grid.integrate(F, w), [grid.integrate(f, wi) for f, wi in zip(F, w)])
    kept = grid.integrate(F, w, keepdims=True)
    assert kept.shape == (len(F),) + (1,) * len(grid.shape)
    assert_stacked(kept.reshape(len(F)), [grid.integrate(f, wi) for f, wi in zip(F, w)])
    R = grid.radial_part(F)
    assert_stacked(R, [grid.radial_part(f) for f in F])
    assert_stacked(grid.broadcast(R), [grid.broadcast(r) for r in R])


@pytest.mark.parametrize("twisted", [False, True], ids=["identity", "gradient"])
def test_metric_layers_take_a_leading_batch_axis(grid, twisted):
    lift = sigma_lift(V, K) if twisted else identity_lift(K)
    for pot in potentials(grid):
        path = linear_path(pot)
        pots = path.phi(S_NODES[::8])
        singles = [path.phi(s) for s in S_NODES[::8]]
        md = metric_data(pots)
        mds = [metric_data(p) for p in singles]
        if pot.profile is not None:  # a sampled density is Delta_0 of the block, checked above
            assert_stacked(md.density, [m.density for m in mds])
            assert_stacked(md.scalar, [m.scalar for m in mds])
            assert_stacked(holomorphy_potential(V, pots, md), [holomorphy_potential(V, p, m) for p, m in zip(singles, mds)])
        assert_stacked(lift.compose_potential(pots), [lift.compose_potential(p) for p in singles])
        assert_stacked(psi_potential(lift, pots).values, [psi_potential(lift, p).values for p in singles])
