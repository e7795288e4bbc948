"""The path rule evaluates all its nodes as one block.

Every energy agrees with the per-node loop it replaced, on both grids and
with both twists (the closed-form energies, the identity Aubin energy among
them, with the per-node path rule), and every batched field operator agrees
with the same operator applied to each field of the block in turn.
"""

import numpy as np
import pytest

import kquant.functionals
from kquant import (
    Full2DGrid,
    NonKahlerError,
    PathInPotentials,
    RadialGrid,
    bergman_path,
    circle_group,
    delta_i_sigma,
    fs,
    hilb,
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
    segment_path,
    sigma_lift,
    two_leg_path,
)
from kquant.functionals import S_NODES, S_WEIGHTS
from kquant.geometry import radial_twin

from helpers import laplace_floor, path_energies, path_integral_by_node

V = rotation_field(1.0)
K = 8
REL = 1e-12


@pytest.fixture(params=["radial", "grid2d"])
def grid(request):
    return request.getfixturevalue(request.param)


def wave(grid):
    """A non-invariant field on the 2D grid, zero on the radial one."""
    if grid.radial is grid:
        return np.zeros(grid.shape)
    return 2.0 * np.sqrt(grid.u * (1.0 - grid.u))[:, None] * np.cos(grid.theta)[None, :]


def sampled_twin(grid):
    """The exact-profile potential whose values are the sampled one's radial part."""
    return potential_from_radial_coeffs(grid, [0.05, -0.07, 0.01])


def potentials(grid):
    """An exact-profile potential and a sampled one, invariant on the radial
    grid and waved on the 2D grid."""
    prof = potential_from_radial_coeffs(grid, [0.05, -0.07])
    sampled = potential_from_values(grid, sampled_twin(grid).values + 0.02 * wave(grid))
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
        "quadratic": quadratic_path(sampled, sampled.with_values(vel), sampled.with_values(acc)),
        "bergman": bergman_path(prof, k),
    }


def by_node(monkeypatch, energy):
    """energy() with the path rule run one node at a time."""
    with monkeypatch.context() as m:
        m.setattr(kquant.functionals, "_path_integral", path_integral_by_node)
        return energy()


def aubin_by_node(path, lift) -> float:
    """The twisted Aubin energy along a path or list of legs, with its pointwise
    differential evaluated one node at a time."""
    legs = path if isinstance(path, list) else [path]
    return sum(path_integral_by_node(leg, lambda p, vel: delta_i_sigma(p, vel, K, lift)) for leg in legs)


@pytest.mark.parametrize("twisted", [False, True], ids=["identity", "gradient"])
@pytest.mark.parametrize("name", ["linear", "reparam", "two-leg", "quadratic", "bergman"])
def test_i_sigma_k_block_matches_node_loop(grid, name, twisted):
    # the leg rule applies each operator once per term and pairs e^psi with
    # the exact Laplacian of a profile term and the transpose of Delta_0 on a
    # sampled term; the oracle forms e^psi and its Laplacian at every node
    lift = sigma_lift(V, K) if twisted else identity_lift(K)
    path = paths(grid, K)[name]
    got = i_sigma_k(None, K, lift, path=path)
    want = aubin_by_node(path, lift)
    assert abs(got - want) <= REL * abs(want)


def laplacians_2d(monkeypatch) -> list[str]:
    """Names of the 2D grid's Laplacians, once per call."""
    calls = []
    for name in ("base_laplace", "base_laplace_transpose"):
        real = getattr(Full2DGrid, name)
        monkeypatch.setattr(Full2DGrid, name, lambda self, v, real=real, name=name: calls.append(name) or real(self, v))
    return calls


@pytest.mark.parametrize("twisted", [False, True], ids=["identity", "gradient"])
def test_invariant_leg_runs_on_the_radial_factor(monkeypatch, grid2d, twisted):
    # every field of a leg of invariant terms is constant in theta, so the
    # rule runs on the 96 radial nodes, with no 2D Laplacian, and agrees with
    # the 2D one-form evaluated node by node
    lift = sigma_lift(V, K) if twisted else identity_lift(K)
    prof = potential_from_radial_coeffs(grid2d, [0.05, -0.07])
    projected = fs(hilb(prof, K), grid2d)
    assert projected.invariant and projected.profile is None
    for path in (linear_path(prof), linear_path(projected), two_leg_path(prof, projected)):
        with monkeypatch.context() as m:
            calls = laplacians_2d(m)
            got = i_sigma_k(None, K, lift, path=path)
        assert calls == []
        want = aubin_by_node(path, lift)
        assert abs(got - want) <= REL * abs(want)


def test_leg_with_a_non_invariant_term_takes_the_2d_rule(monkeypatch, grid2d):
    prof, waved = potentials(grid2d)
    assert not waved.invariant
    lift = sigma_lift(V, K)
    path = segment_path(prof, waved)
    with monkeypatch.context() as m:
        calls = laplacians_2d(m)
        got = i_sigma_k(None, K, lift, path=path)
    assert calls == ["base_laplace", "base_laplace_transpose"]
    want = aubin_by_node(path, lift)
    assert abs(got - want) <= REL * abs(want)


def radial_products(monkeypatch, grid) -> list[str]:
    """For each dense radial product on ``grid``, the matrix: "D", "D.T", or
    "other" (the pullback's interpolation)."""
    calls = []
    real = RadialGrid.apply_radial

    def spy(self, matrix, values):
        if self is grid:
            calls.append("D" if matrix is grid.D else "D.T" if matrix.base is grid.D else "other")
        return real(self, matrix, values)

    monkeypatch.setattr(RadialGrid, "apply_radial", spy)
    return calls


def test_twisted_leg_of_profile_terms_applies_no_dense_laplacian(monkeypatch, radial):
    # e^psi pairs with the exact Laplacian of a profile term, which its
    # density already holds: a leg of profile terms makes no dense product.  A
    # sampled term makes those of its density, its pullback and its transpose.
    lift = sigma_lift(V, K)
    prof = potential_from_radial_coeffs(radial, [0.05, -0.07])
    mid = potential_from_radial_coeffs(radial, [0.02, -0.03])
    projected = fs(hilb(prof, K), radial)
    assert projected.profile is None
    sampled = ["D", "D", "other", "D.T", "D.T"]
    for path, want in ((linear_path(prof), []), (two_leg_path(mid, prof), []), (linear_path(projected), sampled)):
        with monkeypatch.context() as m:
            calls = radial_products(m, radial)
            i_sigma_k(None, K, lift, path=path)
        assert calls == want


def transpose_rule(legs, k, lift) -> float:
    """The twisted Aubin energy of invariant legs on the radial factor, with
    e^psi dotted with the transpose of the radial Delta_0, formed from D.T,
    applied to each weighted term: the node-by-node sum reordered."""
    total = 0.0
    for leg in legs:
        twin = PathInPotentials(tuple((radial_twin(p), c) for p, c in leg.terms))
        rg = twin.terms[0][0].grid
        DT, uv = rg.D.T, rg.u * (1.0 - rg.u)
        terms = np.stack([p.values for p, _ in twin.terms])
        lap_t = -(DT @ (uv[:, None] * (DT @ (rg.weights * terms).T))).T
        pots = twin.phi(S_NODES)
        md = metric_data(pots)
        epsi = psi_potential(lift, pots, md=md).exp()
        pairs = k * (epsi * md.volume_weights) @ terms.T + epsi @ lap_t.T
        total += S_WEIGHTS @ (k * np.sum(twin.coefficients(S_NODES, 1).T * pairs, axis=1))
    return float(total)


@pytest.mark.parametrize("k", [8, 32])
def test_invariant_twisted_legs_match_the_transpose_rule(grid, k):
    # Delta_0 is self-adjoint: pairing e^psi with the exact Laplacian of a
    # profile term keeps the value of the transpose rule
    lift = sigma_lift(V, k)
    prof = potential_from_radial_coeffs(grid, [0.05, -0.07])
    projected = fs(hilb(prof, k), grid)
    assert projected.invariant and projected.profile is None
    for legs in ([linear_path(prof)], [linear_path(projected)], two_leg_path(prof, projected)):
        got = i_sigma_k(None, k, lift, path=legs)
        want = transpose_rule(legs, k, lift)
        assert abs(got - want) <= REL * abs(want)


def test_identity_closed_form_of_an_invariant_potential_runs_on_the_radial_factor(monkeypatch, grid2d):
    # the Aubin energy of a circle-invariant sampled potential reads its
    # density on the 96 radial nodes, and agrees with the 2D closed form
    projected = fs(hilb(potential_from_radial_coeffs(grid2d, [0.05, -0.07]), K), grid2d)
    assert projected.invariant and projected.profile is None
    md = metric_data(projected)
    want = K * (K + 1) * 0.5 * (grid2d.integrate(projected.values) + md.integrate(projected.values))
    seen = []
    monkeypatch.setattr(kquant.functionals, "metric_data", lambda p: seen.append(p.grid) or metric_data(p))
    got = i_sigma_k(projected, K)
    assert len(seen) == 1 and seen[0] is grid2d.radial
    assert abs(got - want) <= 1e-13 * abs(want)


def cos2_wave(grid2d):
    """A non-invariant potential: a profile's samples plus u(1-u) cos 2 theta."""
    wave = grid2d.u[:, None] * (1.0 - grid2d.u[:, None]) * np.cos(2.0 * grid2d.theta)[None, :]
    return potential_from_values(grid2d, sampled_twin(grid2d).values + 0.05 * wave)


@pytest.mark.parametrize("which", ["profile", "sampled", "cos2-wave", "bergman"])
def test_identity_aubin_closed_form_matches_node_loop(radial, grid2d, which):
    # k(k+1) E(phi) on the default segment against the one-form integrated
    # node by node: from 0 along the segment, or between the ends of the
    # Bergman path
    lift = identity_lift(K)
    for grid in (grid2d,) if which == "cos2-wave" else (radial, grid2d):
        prof, sampled = potentials(grid)
        if which == "bergman":
            path = bergman_path(prof, K)
            got = i_sigma_k(path.phi(1.0), K) - i_sigma_k(path.phi(0.0), K)
        else:
            pot = cos2_wave(grid) if which == "cos2-wave" else prof if which == "profile" else sampled
            assert which != "cos2-wave" or not pot.invariant
            path = linear_path(pot)
            got = i_sigma_k(pot, K, lift)
        want = aubin_by_node(path, lift)
        assert abs(got - want) <= REL * abs(want)


@pytest.mark.parametrize("twisted", [False, True], ids=["identity", "gradient"])
def test_aubin_energy_rejects_a_profile_non_kahler_only_at_the_segment_end(radial, grid2d, twisted):
    # phi = a u^2 has density 1 - 2a(3u^2 - 2u), -1e-3 at the outermost node
    # for a = edge, while every node of the path rule (s <= 0.9986) still has a
    # positive density: the closed form and the leg rule check the segment's end
    lift = sigma_lift(V, K) if twisted else identity_lift(K)
    for grid in (radial, grid2d):
        u = grid.u[-1]
        edge = (1.0 + 1e-3) / (2.0 * (3.0 * u * u - 2.0 * u))
        pot = potential_from_radial_coeffs(grid, [0.0, edge])
        dens = 1.0 - 2.0 * edge * (3.0 * grid.u**2 - 2.0 * grid.u)
        assert np.min(dens) < 0.0 and np.min(1.0 + S_NODES[-1] * (dens - 1.0)) > 0.0
        for path in (None, linear_path(pot), reparam_path(pot, power=2)):
            with pytest.raises(NonKahlerError):
                i_sigma_k(pot, K, lift, path=path)


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
    # an invariant potential takes the closed forms, so its oracle is the
    # path rule run node by node on the exact profile of its values (the path
    # rule on samples carries the spectral curvature's 5e-10 here); a
    # non-invariant one takes the path rule
    if pot.invariant:
        exact = pot if pot.profile is not None else sampled_twin(grid)
        oracle = by_node(monkeypatch, lambda: path_energies(exact, V))
    for name, energy in energies.items():
        got = energy()
        want = oracle[name] if pot.invariant else by_node(monkeypatch, energy)
        assert abs(got - want) <= REL * abs(want), name


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


def test_grid_operators_take_a_leading_batch_axis(grid):
    F, G = block(grid), block(grid)[::-1]
    w = grid.weights * (1.0 + 0.1 * F)
    M = np.random.default_rng(5).uniform(-1, 1, (grid.resolution, grid.resolution))
    assert_stacked(grid.base_laplace(F), [grid.base_laplace(f) for f in F], laplace_floor(grid, F))
    lap_t = [grid.base_laplace_transpose(f) for f in F]
    assert_stacked(grid.base_laplace_transpose(F), lap_t, laplace_floor(grid, F))
    assert_stacked(grid.base_inner_grad(F, G), [grid.base_inner_grad(f, g) for f, g in zip(F, G)])
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


def test_pullback_defect_of_a_block_stacks_its_fields(grid):
    # a block with an exact profile carries one profile column per field
    lift = sigma_lift(V, K)
    for pot in potentials(grid):
        path = linear_path(pot)
        pots = path.phi(np.array([0.3, 0.7]))
        singles = [path.phi(s) for s in (0.3, 0.7)]
        assert (pots.profile is None) == (pot.profile is None)
        assert_stacked(lift.pullback_defect(pots), [lift.pullback_defect(p) for p in singles])
