"""The shared grid protocol, checked on invariant data against the other grid kind.

Each method is run on the radial grid and on the full 2D grid; the radial
factor of every result must agree with the same method on a grid of the
other kind built on the same radial nodes, and with the closed form.
"""

import numpy as np
import pytest

from kquant import HermForm, build_grid


@pytest.fixture(params=["radial", "grid2d"])
def grid(request):
    return request.getfixturevalue(request.param)


def twin(grid):
    """The grid of the other kind on the same radial nodes."""
    if grid.radial is grid:
        return build_grid("full2d", grid.resolution, 16)
    return grid.radial


def test_broadcast_restriction_round_trip(grid):
    f = grid.u**2
    field = grid.broadcast(f)
    assert field.shape == grid.shape
    assert np.array_equal(grid.radial_part(field), f)
    other = twin(grid)
    assert np.array_equal(other.radial_part(other.broadcast(f)), f)


def test_base_laplace_and_pairing_of_u_squared(grid):
    u = grid.u
    f = u**2
    # Delta_0 f = -(u (1-u) f_u)_u and (d_z f, d_z f)/A_0 = u (1-u) f_u^2
    lap_exact = 6.0 * u**2 - 4.0 * u
    pair_exact = 4.0 * u**3 * (1.0 - u)
    laps = []
    for g in (grid, twin(grid)):
        field = g.broadcast(f)
        lap = g.radial_part(g.base_laplace(field))
        pair = g.radial_part(g.base_inner_grad(field, field))
        # a 512-node spectral second derivative carries ~1e-7 of roundoff
        assert np.max(np.abs(lap - lap_exact)) <= 1e-6
        assert np.max(np.abs(pair - pair_exact)) <= 1e-10
        laps.append(lap)
    # the 2D route applies the (1-u)^2 and rho factors before they cancel
    assert np.max(np.abs(laps[0] - laps[1])) <= 1e-7


@pytest.mark.parametrize("shape", [(24,), (12, 8)], ids=["radial", "full2d"])
def test_base_laplace_transpose_is_the_matrix_transpose(shape):
    # column j of each operator is its value on the j-th unit field, so the
    # transpose's table is the Laplacian's, transposed
    g = build_grid("radial" if len(shape) == 1 else "full2d", *shape)
    n = int(np.prod(shape))
    units = np.eye(n).reshape((n,) + shape)
    lap = g.base_laplace(units).reshape(n, n).T
    lap_t = g.base_laplace_transpose(units).reshape(n, n).T
    assert np.max(np.abs(lap_t - lap.T)) <= 1e-13 * np.max(np.abs(lap))


@pytest.mark.parametrize("k", [1, 6, 12])
def test_round_metric_section_densities_sum_to_dimension(grid, k):
    densities = []
    for g in (grid, twin(grid)):
        entries, log_diag = g.gram(k, g.weights)
        dens = np.exp(g.log_density(HermForm(entries, k, log_diag=log_diag)))
        assert dens.shape == g.shape
        assert np.max(np.abs(dens - (k + 1))) <= 1e-9
        densities.append(g.radial_part(dens))
    assert np.max(np.abs(densities[0] - densities[1])) <= 1e-9
