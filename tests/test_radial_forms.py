"""Radial Gram forms are log-diagonal.

Their consumers agree with the dense Cholesky route they replace, the round
metric stays balanced past k = 1024, and no matrix factorization runs on a
radial grid.
"""

import dataclasses

import numpy as np
import pytest

from kquant import (
    HermForm,
    KQuantError,
    bergman,
    bk_geodesic,
    build_grid,
    fk_prime,
    fs,
    hilb,
    i_k,
    identity_lift,
    l_sigma_k,
    metric_data,
    psi_potential,
    rotation_field,
    sigma_balanced_iterate,
    sigma_lift,
    z_sigma_k,
    zero_potential,
)

from helpers import z_first_variation


def dense_gram(pot, k):
    """The diagonal Gram matrix as a dense complex matrix, summed in linear space."""
    weight = np.exp(-k * pot.values) * metric_data(pot).volume_weights
    norms = np.exp(pot.grid.log_section_norms(k))
    return np.diag((norms * weight[:, None]).sum(axis=0)).astype(complex)


def cholesky_density(grid, H):
    """sum_a |tau_a|^2 over the columns tau of L^{-dagger}, H = L L^dagger."""
    Linv = np.linalg.inv(np.linalg.cholesky(H))
    return np.exp(grid.log_section_norms(len(H) - 1)) @ np.sum(np.abs(Linv) ** 2, axis=0)


def dense_fk_prime(pot, ref, k, lift):
    """fk_prime through Cholesky whitening and a Hermitian eigensplit."""
    Linv = np.linalg.inv(np.linalg.cholesky(dense_gram(ref, k)))
    vals, vecs = np.linalg.eigh(Linv @ dense_gram(pot, k) @ Linv.conj().T)
    lam = 0.5 * np.log(vals)
    coeffs = Linv.conj().T @ vecs
    tau_sq = np.exp(ref.grid.log_section_norms(k)) @ np.abs(coeffs) ** 2
    ratio = (tau_sq @ lam) / tau_sq.sum(axis=1)
    md = metric_data(ref)
    epsi = psi_potential(lift, ref, md=md).exp()
    slope = 2.0 * np.sum(lam) - 2.0 * md.integrate(ratio * (k * epsi + md.laplace(epsi)))
    return slope, np.max(np.abs(lam)) / k, np.sum(np.abs(lam))


def rel_gap(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("k", [8, 64, 512])
def test_log_diagonal_forms_match_the_dense_route(radial, flat, bump, k):
    H = hilb(bump, k)
    dense = dense_gram(bump, k)
    assert rel_gap(np.exp(H.log_diag), np.real(np.diag(dense))) <= 1e-12
    dens = cholesky_density(radial, dense)
    assert rel_gap(fs(H, radial).values, np.log(dens / (k + 1)) / k) <= 1e-12
    assert rel_gap(bergman(bump, k).values, dens * np.exp(-k * bump.values)) <= 1e-12
    want = np.linalg.slogdet(dense)[1] - np.linalg.slogdet(dense_gram(flat, k))[1]
    assert abs(i_k(H, radial) - want) <= 1e-12 * abs(want)
    for lift in (identity_lift(k), sigma_lift(rotation_field(1.0), k)):
        slope, bound = fk_prime(bump, flat, k, lift)
        want_slope, want_bound, scale = dense_fk_prime(bump, flat, k, lift)
        assert abs(slope - want_slope) <= 1e-12 * max(1.0, 2.0 * scale)
        assert abs(bound - want_bound) <= 1e-12 * want_bound


@pytest.mark.parametrize("k", [1024, 2048])
def test_round_metric_is_balanced_past_degree_1024(flat, k):
    rho = bergman(flat, k)
    assert np.max(np.abs(rho.values - (k + 1))) <= 1e-8


def test_radial_forms_need_no_factorization(monkeypatch, radial, flat, bump):
    def refuse(*args, **kwargs):
        raise AssertionError("dense linear algebra on a radial grid")

    for name in ("cholesky", "inv", "slogdet", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    k = 64
    H = hilb(bump, k)
    fs(H, radial)
    bergman(bump, k)
    i_k(H, radial)
    geo = bk_geodesic(hilb(flat, k), H)
    assert np.max(np.abs(geo.form_at(1.0).log_diag - H.log_diag)) <= 1e-12
    fk_prime(bump, flat, k, sigma_lift(rotation_field(1.0), k))
    assert H.min_eigenvalue() > 0.0


def test_dense_diagonal_form_converts_on_a_radial_grid(radial, flat, bump):
    k = 12
    H, H0 = hilb(bump, k), hilb(flat, k)
    dense = HermForm(H.entries, k)
    assert dense.log_diag is None
    doubled = dataclasses.replace(H, entries=2.0 * H.entries)
    assert doubled.log_diag is None
    assert abs(i_k(doubled, radial) - i_k(H, radial) - (k + 1) * np.log(2.0)) <= 1e-12
    assert np.max(np.abs(fs(dense, radial).values - fs(H, radial).values)) <= 1e-14
    assert abs(i_k(dense, radial) - i_k(H, radial)) <= 1e-12
    # a geodesic with a dense endpoint takes the dense route, then the grid reads it diagonally
    mixed, diagonal = bk_geodesic(H0, dense), bk_geodesic(H0, H)
    assert mixed.coeffs is not None and diagonal.coeffs is None
    for s in (0.0, 0.7):
        got = z_first_variation(mixed, radial, s)
        assert abs(got - z_first_variation(diagonal, radial, s)) <= 1e-10 * max(1.0, abs(got))
    half = np.diag(np.exp(0.5 * H0.log_diag))
    coupling = np.eye(k + 1) + 0.2 * (np.eye(k + 1, k=1) + np.eye(k + 1, k=-1))
    skew = HermForm((half @ coupling @ half).astype(complex), k)
    with pytest.raises(KQuantError, match="2D"):
        z_first_variation(bk_geodesic(H0, skew), radial, 0.5)


def test_log_diagonal_entries_are_built_when_read(bump):
    k = 12
    H = hilb(bump, k)
    assert "entries" not in vars(H)
    want = np.zeros((k + 1, k + 1), dtype=complex)
    np.fill_diagonal(want, np.exp(H.log_diag))
    assert np.array_equal(H.entries, want) and H.entries.dtype == complex
    assert H.entries is H.entries  # kept once built
    assert H.log_diag is not None
    doubled = dataclasses.replace(H, entries=2.0 * H.entries)
    assert doubled.log_diag is None and np.array_equal(doubled.entries, 2.0 * want)
    with pytest.raises(AttributeError):
        H.no_such_field


def test_radial_flows_never_read_dense_entries(monkeypatch, radial, flat, bump):
    read = []
    real = HermForm.dense

    def spy(form):
        if form.log_diag is not None:
            read.append(form.degree)
        return real(form)

    monkeypatch.setattr(HermForm, "dense", spy)
    k, lift = 16, sigma_lift(rotation_field(1.0), 16)
    H = hilb(bump, k)
    fs(H, radial)
    bergman(bump, k)
    i_k(H, radial)
    geo = bk_geodesic(hilb(flat, k), H)
    z_sigma_k(geo.form_at(0.5), radial, lift)
    fk_prime(bump, flat, k, lift)
    l_sigma_k(bump, k, lift)
    sigma_balanced_iterate(bump, k, lift, max_iter=2, tol=0.0, track_energy=True)
    H.scaled(2.0).min_eigenvalue()
    assert read == []


def test_peak_section_table_is_kept_for_one_degree(monkeypatch):
    grid = build_grid("radial", 128)
    built = []
    real = type(grid).log_section_norms

    def counted(self, k):
        built.append(k)
        return real(self, k)

    monkeypatch.setattr(type(grid), "log_section_norms", counted)
    table, peak = grid._peak_sections(9)
    assert grid._peak_sections(9)[0] is table
    flat = zero_potential(grid)
    hilb(flat, 9)
    fs(hilb(flat, 9), grid)
    assert built == [9]
    assert not table.flags.writeable and not peak.flags.writeable
    grid._peak_sections(10)
    assert built == [9, 10] and grid._peak_slot[0] == 10  # one slot: degree 9 was dropped
    fresh = np.exp(real(grid, 9) - grid._peak_sections(9)[1])
    assert np.array_equal(grid._peak_sections(9)[0], fresh)
