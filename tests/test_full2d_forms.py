"""The full 2D grid forms and contracts Gram forms from angular Fourier sums.

Its Gram forms, section densities and geodesic slopes agree with the dense
section-table route they replace (kept in ``helpers``), including degrees
past n_theta / 2, where section pairings alias; its base operators agree
with the FFT route; and no section table is allocated.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kquant import (
    HermForm,
    bergman,
    bk_geodesic,
    build_grid,
    fs,
    hilb,
    metric_data,
    potential_from_values,
)

from helpers import (
    dense_gram,
    fft_base_inner_grad,
    fft_base_laplace,
    laplace_floor,
    table_geodesic_slope,
    table_log_density,
)

CASES = [((96, 64), k) for k in (4, 31, 35, 63)] + [((48, 32), k) for k in (4, 15, 19, 31)]


def rel_gap(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def harmonics(grid, amps):
    """sum_m amps[m] r^|m| cos(m theta + m), r = sqrt(u (1-u)): smooth on the sphere."""
    r = np.sqrt(grid.u * (1.0 - grid.u))[:, None]
    theta = grid.theta[None, :]
    return sum(a * r ** abs(m) * np.cos(m * theta + m) for m, a in amps.items())


def odd_potential(grid, scale=1.0):
    """A non-invariant potential carrying angular frequencies 0 to 3."""
    values = harmonics(grid, {0: 0.02, 1: 0.03, 2: -0.02, 3: 0.015}) + 0.04 * (grid.u**2)[:, None]
    return potential_from_values(grid, scale * values, invariant=False)


def gram_weight(pot, k):
    return np.exp(-k * pot.values) * metric_data(pot).volume_weights


@pytest.fixture(scope="module", params=[(96, 64), (48, 32)], ids=lambda s: f"{s[0]}x{s[1]}")
def grid(request):
    return build_grid("full2d", *request.param)


def test_log_diagonal_density_runs_on_the_radial_factor(monkeypatch):
    # a diagonal form's sections are monomials, whose norms carry no angle:
    # its density is the radial factor's, with no factorization
    grid = build_grid("full2d", 96, 64)
    k = 31
    form = HermForm(None, k, log_diag=np.random.default_rng(5).uniform(-1.0, 1.0, k + 1))
    want = grid.log_density(HermForm(form.dense(), k))

    def refuse(*args, **kwargs):
        raise AssertionError("dense linear algebra on a log-diagonal form")

    for name in ("cholesky", "inv", "solve", "slogdet", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    got = grid.log_density(form)
    assert got.shape == grid.shape
    assert rel_gap(np.exp(got), np.exp(want)) <= 1e-12


@pytest.mark.parametrize("shape, k", CASES, ids=[f"{s[0]}x{s[1]}-k{k}" for s, k in CASES])
def test_forms_and_contractions_match_the_section_table(shape, k):
    grid = build_grid("full2d", *shape)
    pot = odd_potential(grid)
    H = hilb(pot, k)
    want = dense_gram(grid, k, gram_weight(pot, k))
    assert rel_gap(H.entries, want) <= 1e-13
    assert np.max(np.abs(H.entries - H.entries.conj().T)) <= 1e-15 * np.max(np.abs(want))
    log_dens = table_log_density(grid, H)
    assert rel_gap(fs(H, grid).values, (log_dens - np.log(k + 1)) / k) <= 1e-13
    assert rel_gap(bergman(pot, k, form=H).values, np.exp(log_dens - k * pot.values)) <= 1e-13
    geo = bk_geodesic(hilb(odd_potential(grid, -0.5), k), H)
    assert geo.coeffs is not None
    for s in (0.0, 0.5):
        assert rel_gap(grid.geodesic_slope(geo, s), table_geodesic_slope(grid, geo, s)) <= 1e-13


def test_base_operators_match_the_fft_route(grid):
    u = grid.u[:, None]
    f = harmonics(grid, {1: 0.03, 2: 0.02, 3: -0.01, 4: 0.01}) + 0.05 * u - 0.07 * u**2
    g = harmonics(grid, {1: -0.02, 2: 0.03, 5: 0.01})
    assert np.max(np.abs(grid.base_laplace(f) - fft_base_laplace(grid, f))) <= 1e-11
    assert np.max(np.abs(grid.base_inner_grad(f, g) - fft_base_inner_grad(grid, f, g))) <= 1e-11
    # At unit amplitude the pole rows of both routes carry the roundoff of a
    # spectral second derivative, which scales with the field.
    F = harmonics(grid, {0: 1.0, 1: 1.0, 2: 1.0, 3: -1.0, 4: 1.0}) + u**2
    assert np.all(np.abs(grid.base_laplace(F) - fft_base_laplace(grid, F)) <= laplace_floor(grid, F))


@pytest.mark.parametrize("op", [hilb, fs, bergman], ids=lambda op: op.__name__)
def test_no_section_table_is_allocated(op):
    # a (96 * 64) x 49 complex section table alone is 4.6 MiB
    grid = build_grid("full2d", 96, 64)
    pot = odd_potential(grid)
    H = hilb(pot, 48)
    run = (lambda: fs(H, grid)) if op is fs else (lambda: op(pot, 48))
    run()  # build the grid's cached matrices outside the measurement
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


GRIDS = {(24, 16): build_grid("full2d", 24, 16), (48, 32): build_grid("full2d", 48, 32)}


@st.composite
def weighted_degrees(draw):
    shape = draw(st.sampled_from(sorted(GRIDS)))
    grid = GRIDS[shape]
    k = draw(st.integers(1, grid.n_theta - 1))
    modes = draw(
        st.lists(
            st.tuples(
                st.integers(1, grid.n_theta - 1),
                st.floats(-0.5, 0.5),
                st.floats(0.0, 2.0 * np.pi),
                st.integers(0, 3),
            ),
            max_size=4,
        )
    )
    u = grid.u[:, None]
    log_w = sum(a * u**p * np.cos(m * grid.theta[None, :] + c) for m, a, c, p in modes)
    return grid, k, grid.weights * np.exp(log_w)


@settings(max_examples=30, deadline=None)
@given(weighted_degrees())
def test_gram_property(case):
    grid, k, weight = case
    H, _ = grid.gram(k, weight)
    assert rel_gap(H, dense_gram(grid, k, weight)) <= 1e-13
    # sum_nodes weight * contraction with H^{-1} = tr(H^{-1} H)
    dens = np.exp(grid.log_density(HermForm(H, k)))
    assert abs(np.sum(weight * dens) - (k + 1)) <= 1e-9
    round_dens = np.exp(grid.log_density(HermForm(grid.gram(k, grid.weights)[0], k)))
    assert np.max(np.abs(round_dens - (k + 1))) <= 1e-9
