"""The four benchmark workloads: seeded inputs, timed operations and checks.

A workload function takes the imported kquant package, a seed and a size,
builds its inputs (grids and potentials, which start with empty caches),
and returns a list of operations.  ``Op.run`` is the timed call into the
program.  ``Op.check`` runs after the timed pass, sees every output of the
pass, and calls no kquant function: it compares against quantities computed
here from the potentials' coefficients (Beta integrals through
``math.lgamma``, densities and curvatures through ``numpy.polynomial``,
Gauss-Legendre weights straight from numpy), or tests properties the
method must have.  An operation that raises or fails its check counts as
failed; ``known_fault`` marks the one that fails on every input today.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as P

# The round metric is exactly balanced, so rho_k(0) = k + 1 up to roundoff
# (7.6e-10 at k = 512 on the 512-node radial grid).
RHO0_ABS = 1e-8
PROJECTION_ABS = 1e-9
GRAM_LOG_ABS = 1e-9
NORMALIZATION_REL = 1e-10
HERMITIAN_REL = 1e-13
RADIAL_AGREEMENT_REL = 1e-9
DENSITY_ABS = 1e-8
GAUSS_BONNET_ABS = 1e-10
# Acceptance thresholds of the experiments the workloads run.
PATH_INDEPENDENCE_REL = 1e-6
HESSIAN_REL = 1e-4
MINIMIZATION_FLOOR = -1e-8


@dataclass(frozen=True)
class Size:
    radial: int
    hessian_ks: tuple[int, ...]
    psi_ks: tuple[int, ...]
    high_ks: tuple[int, ...]
    fault_k: int
    iterate: tuple[int, int]  # degree, fixed number of steps
    grid2d: tuple[int, int]
    ks2d: tuple[int, ...]
    energy_ks: tuple[int, ...]


FULL = Size(
    radial=512,
    hessian_ks=(8, 32),
    psi_ks=(8, 12, 16, 24, 32, 48, 64),
    high_ks=(128, 256, 512),
    fault_k=1024,
    iterate=(32, 8),
    grid2d=(96, 64),
    ks2d=(16, 32, 48),
    energy_ks=(8, 12, 16, 24, 32, 48, 64),
)

TINY = Size(
    radial=128,
    hessian_ks=(8,),
    psi_ks=(8, 16),
    high_ks=(16, 32, 64),
    fault_k=1024,
    iterate=(8, 3),
    grid2d=(32, 16),
    ks2d=(4, 6, 8),
    energy_ks=(8, 16, 32),
)


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object, dict], bool]
    known_fault: bool = False


# ---------------------------------------------------------------------------
# Inputs and independent reference computations


def seeded_bump(rng) -> tuple[float, float]:
    """Coefficients (c1, c2) of phi = c1 u + c2 u^2 around the published bump.

    The ranges keep the linear-path energy away from zero, so the relative
    three-path defect stays a meaningful ratio on every seed.
    """
    return float(rng.uniform(0.05, 0.07)), float(rng.uniform(-0.07, -0.05))


def gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def log_beta(k: int) -> np.ndarray:
    """log B(j+1, k-j+1) for j = 0..k: the Gram diagonal of the round metric."""
    lg = math.lgamma
    return np.array([lg(j + 1) + lg(k - j + 1) - lg(k + 2) for j in range(k + 1)])


_UU = np.array([0.0, 1.0, -1.0])  # u (1 - u)


def _profile(coeffs) -> np.ndarray:
    return np.concatenate(([0.0], np.asarray(coeffs, dtype=float)))


def radial_values(coeffs, u) -> np.ndarray:
    return P.polyval(u, _profile(coeffs))


def radial_density(coeffs, u) -> np.ndarray:
    """1 + (u(1-u) phi')': the volume density of a radial polynomial potential."""
    return P.polyval(u, P.polyadd([1.0], P.polyder(P.polymul(_UU, P.polyder(_profile(coeffs))))))


def radial_scalar(coeffs, u) -> np.ndarray:
    """S = (2 - (u(1-u) d'/d)') / d for the density d of a radial potential."""
    d = P.polyadd([1.0], P.polyder(P.polymul(_UU, P.polyder(_profile(coeffs)))))
    W = P.polymul(_UU, P.polyder(d))
    dv, d1v = P.polyval(u, d), P.polyval(u, P.polyder(d))
    Wv, W1v = P.polyval(u, W), P.polyval(u, P.polyder(W))
    return (2.0 * dv * dv - W1v * dv + Wv * d1v) / dv**3


def angular_fields(coeffs, waves, u, theta) -> tuple[np.ndarray, np.ndarray]:
    """Values and density of p(u) + sum a (u(1-u))^(m/2) cos(m theta + b).

    Each wave is Re(z^m)/(1+|z|^2)^m up to phase, smooth on the sphere.  The
    density 1 + d_z d_zbar phi / A_0 of a wave g(u) cos(m theta + b) is
    ((u(1-u) g')' - m^2 g / (4 u (1-u))) cos(m theta + b); for even m the
    quotient g / (u(1-u)) is the polynomial (u(1-u))^(m/2 - 1).
    """
    vals = radial_values(coeffs, u)[:, None] + np.zeros((1, len(theta)))
    dens = radial_density(coeffs, u)[:, None] + np.zeros((1, len(theta)))
    for amp, m, phase in waves:
        g = P.polypow(_UU, m // 2)
        radial = P.polysub(P.polyder(P.polymul(_UU, P.polyder(g))), (m * m / 4.0) * P.polypow(_UU, m // 2 - 1))
        wave = amp * np.cos(m * theta + phase)[None, :]
        vals = vals + P.polyval(u, g)[:, None] * wave
        dens = dens + P.polyval(u, radial)[:, None] * wave
    return vals, dens


def finite(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(np.asarray(a)))) for a in arrays)


def decreasing(values) -> bool:
    return finite(values) and all(b < a for a, b in zip(values, values[1:]))


def positive_density(rho, outs) -> bool:
    return finite(rho.values) and rho.min() > 0.0


def projection_identity(phi, k: int):
    """Check fs(hilb(phi)) = phi + log(rho_k / N) / k against the pass's rho_k."""

    def ok(pk, outs):
        target = phi + np.log(outs[f"bergman-{k}"].values / (k + 1)) / k
        return finite(pk.values) and np.max(np.abs(pk.values - target)) <= PROJECTION_ABS

    return ok


# ---------------------------------------------------------------------------
# twist-paths


def twist_paths(kq, seed: int, size: Size) -> list[Op]:
    """Path integrals of the twisted Aubin energy and the twist potential."""
    rng = np.random.default_rng(seed)
    coeffs = seeded_bump(rng)
    grid = kq.build_grid("radial", size.radial)
    pot = kq.potential_from_radial_coeffs(grid, list(coeffs))
    field = kq.rotation_field(1.0)
    u, w = gl_nodes(size.radial)
    dmu = w * radial_density(coeffs, u)

    # The experiments keep their pinned seed; the seed of a run picks the
    # potential.  (hessian-check's own draws at some other seeds put the
    # twisted k = 8 error above its 1e-4 threshold.)
    def experiment(name, **extra):
        cfg = kq.ExperimentConfig(name, resolution=size.radial, potential=coeffs, **extra)
        return lambda: kq.run_experiment(cfg)

    def path_ok(rep, outs):
        identity, twisted = rep.series[0].values, rep.series[1].values
        return rep.passed and finite(identity) and max(identity) <= PATH_INDEPENDENCE_REL and decreasing(twisted)

    def hessian_ok(rep, outs):
        errs = [v for s in rep.series for v in s.values]
        return rep.passed and finite(errs) and max(errs) <= HESSIAN_REL

    def psi_op(k):
        def run():
            return kq.psi_potential(kq.sigma_lift(field, k), pot)

        def ok(psi, outs):
            mass = float(np.dot(dmu, np.exp(psi.values)))
            nu = (k + 1) / k
            return finite(psi.values) and abs(mass - nu) <= NORMALIZATION_REL * nu

        return Op(f"psi_potential-{k}", run, ok)

    return [
        Op("path-independence", experiment("path-independence"), path_ok),
        Op("hessian-check", experiment("hessian-check", k_list=size.hessian_ks), hessian_ok),
        *(psi_op(k) for k in size.psi_ks),
    ]


# ---------------------------------------------------------------------------
# radial-high-degree


def radial_high_degree(kq, seed: int, size: Size) -> list[Op]:
    """Dense radial Hermitian forms at high degree and the balanced iteration."""
    rng = np.random.default_rng(seed)
    coeffs = seeded_bump(rng)
    grid = kq.build_grid("radial", size.radial)
    pot = kq.potential_from_radial_coeffs(grid, list(coeffs))
    flat = kq.zero_potential(grid)
    # The failing operation runs on the published bump on its own grid, so
    # it fails the same way whatever the seed.
    fault_grid = kq.build_grid("radial", size.radial)
    fault_pot = kq.potential_from_radial_coeffs(fault_grid, list(kq.PUBLISHED_BUMP))
    u, _ = gl_nodes(size.radial)
    phi = radial_values(coeffs, u)
    half_scalar = radial_scalar(coeffs, u) / 2.0
    ops = []

    def diagonal(H):
        return np.real(np.diag(H.entries)), np.max(np.abs(H.entries - np.diag(np.diag(H.entries))))

    for k in size.high_ks:
        lb = log_beta(k)

        def gram0_ok(H, outs, lb=lb):
            d, off = diagonal(H)
            return finite(d) and off == 0.0 and np.max(np.abs(np.log(d) - lb)) <= GRAM_LOG_ABS

        def hilb_ok(H, outs):
            d, off = diagonal(H)
            return finite(d) and off == 0.0 and d.min() > 0.0

        def rho0_ok(rho, outs, k=k):
            return finite(rho.values) and np.max(np.abs(rho.values - (k + 1))) <= RHO0_ABS

        def ik_ok(val, outs, k=k, lb=lb):
            d, _ = diagonal(outs[f"hilb-{k}"])
            ref = float(np.sum(np.log(d) - lb))
            return math.isfinite(val) and abs(val - ref) <= GRAM_LOG_ABS

        def fk_ok(res, outs, k=k, lb=lb):
            # At the round reference with the identity twist the slope
            # vanishes identically: 2 sum lambda is cancelled exactly by the
            # integral term, since sum_j |s_j|^2 / B_j = k + 1.
            slope, bound = res
            lam = 0.5 * (np.log(diagonal(outs[f"hilb-{k}"])[0]) - lb)
            return (
                math.isfinite(slope)
                and abs(slope) <= 1e-12 * max(1.0, 2.0 * float(np.sum(np.abs(lam))))
                and abs(bound - np.max(np.abs(lam)) / k) <= 1e-9
            )

        ops += [
            Op(f"gram0-{k}", lambda k=k: kq.hilb(flat, k), gram0_ok),
            Op(f"hilb-{k}", lambda k=k: kq.hilb(pot, k), hilb_ok),
            Op(f"bergman-{k}", lambda k=k: kq.bergman(pot, k), positive_density),
            Op(f"fs-{k}", lambda k=k: kq.fs(kq.hilb(pot, k), grid), projection_identity(phi, k)),
            Op(f"bergman0-{k}", lambda k=k: kq.bergman(flat, k), rho0_ok),
            Op(f"i_k-{k}", lambda k=k: kq.i_k(kq.hilb(pot, k), grid), ik_ok),
            Op(f"fk_prime-{k}", lambda k=k: kq.fk_prime(pot, flat, k), fk_ok),
        ]

    ks = size.high_ks
    expansion_cfg = kq.ExperimentConfig(
        "bergman-expansion", k_list=ks, resolution=size.radial, potential=coeffs
    )

    def expansion_ok(rep, outs):
        ours = [float(np.max(np.abs(outs[f"bergman-{k}"].values - k - half_scalar))) for k in ks]
        theirs = rep.series[0].values
        agree = finite(theirs) and all(abs(a - b) <= 1e-9 * abs(a) for a, b in zip(ours, theirs))
        return rep.passed and decreasing(ours) and agree

    k_it, steps = size.iterate

    def iterate_ok(res, outs):
        _, log = res
        e = log.energies
        return (
            log.iterations == steps
            and len(e) == steps + 1
            and finite(e, log.residuals)
            and all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(e, e[1:]))
        )

    def fault_run():
        # H^-1 overflows in the matmul at this degree; silence the warnings
        # so the run's stderr stays readable.
        with np.errstate(over="ignore", invalid="ignore"):
            return kq.bergman(fault_pot, size.fault_k)

    ops += [
        Op("bergman-expansion", lambda: kq.run_experiment(expansion_cfg), expansion_ok),
        Op(
            f"sigma_balanced_iterate-{k_it}",
            lambda: kq.sigma_balanced_iterate(pot, k_it, max_iter=steps, tol=0.0, track_energy=True),
            iterate_ok,
        ),
        Op(f"bergman-{size.fault_k}", fault_run, positive_density, known_fault=True),
    ]
    return ops


# ---------------------------------------------------------------------------
# full2d


def full2d(kq, seed: int, size: Size) -> list[Op]:
    """The dense 2D path: FFT curvature, P^dagger P Gram forms, twisted psi."""
    rng = np.random.default_rng(seed)
    coeffs = seeded_bump(rng)
    waves = [
        (float(rng.uniform(0.01, 0.02) * rng.choice([-1.0, 1.0])), 2, float(rng.uniform(0.0, 2 * np.pi))),
        (float(rng.uniform(0.01, 0.02) * rng.choice([-1.0, 1.0])), 4, float(rng.uniform(0.0, 2 * np.pi))),
    ]
    n_u, n_theta = size.grid2d
    grid = kq.build_grid("full2d", n_u, n_theta)
    twin = kq.build_grid("radial", n_u)
    u, wu = gl_nodes(n_u)
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    phi, dens = angular_fields(coeffs, waves, u, theta)
    dmu = (wu[:, None] / n_theta) * dens
    pot = kq.potential_from_values(grid, phi, invariant=False)
    inv_pot = kq.potential_from_radial_coeffs(grid, list(coeffs))
    inv_twin = kq.potential_from_radial_coeffs(twin, list(coeffs))
    field = kq.rotation_field(1.0)
    n_modes = max(size.ks2d) + 1
    odd = (np.arange(n_modes)[:, None] - np.arange(n_modes)[None, :]) % 2 == 1

    def metric_ok(md, outs):
        return (
            finite(md.density, md.scalar)
            and np.max(np.abs(md.density - dens)) <= DENSITY_ABS
            and abs(float(np.sum(dmu * md.scalar)) - 2.0) <= GAUSS_BONNET_ABS
        )

    def hilb_ok(H, outs):
        E = H.entries
        scale = np.max(np.abs(E))
        n = E.shape[0]
        # Only even angular frequencies enter e^{-k phi}, so pairings of
        # sections whose degrees differ by an odd number vanish.
        return (
            finite(E)
            and np.max(np.abs(E - E.conj().T)) <= HERMITIAN_REL * scale
            and np.max(np.abs(E[odd[:n, :n]]), initial=0.0) <= 1e-12 * scale
            and np.min(np.real(np.diag(E))) > 0.0
        )

    ops = [Op("metric_data", lambda: kq.metric_data(pot), metric_ok)]
    for k in size.ks2d:

        def psi_ok(psi, outs, k=k):
            mass = float(np.sum(dmu * np.exp(psi.values)))
            nu = (k + 1) / k
            return finite(psi.values) and abs(mass - nu) <= NORMALIZATION_REL * nu

        def invariant_ok(pair, outs):
            rho2d, rho_radial = pair[0].values, pair[1].values
            return finite(rho2d, rho_radial) and np.max(
                np.abs(rho2d - rho_radial[:, None])
            ) <= RADIAL_AGREEMENT_REL * np.max(np.abs(rho_radial))

        ops += [
            Op(f"hilb-{k}", lambda k=k: kq.hilb(pot, k), hilb_ok),
            Op(f"fs-{k}", lambda k=k: kq.fs(kq.hilb(pot, k), grid), projection_identity(phi, k)),
            Op(f"bergman-{k}", lambda k=k: kq.bergman(pot, k), positive_density),
            Op(f"psi_potential-{k}", lambda k=k: kq.psi_potential(kq.sigma_lift(field, k), pot), psi_ok),
            Op(
                f"bergman-invariant-{k}",
                lambda k=k: (kq.bergman(inv_pot, k), kq.bergman(inv_twin, k)),
                invariant_ok,
            ),
        ]
    cfg = kq.ExperimentConfig(
        "almost-balanced", grid_mode="full2d", resolution=n_u, n_theta=n_theta,
        k_list=size.ks2d, potential=coeffs,
    )

    def balanced_ok(rep, outs):
        return rep.passed and finite([v for s in rep.series for v in s.values])

    ops.append(Op("almost-balanced", lambda: kq.run_experiment(cfg), balanced_ok))
    return ops


# ---------------------------------------------------------------------------
# classical-energies


def classical_energies(kq, seed: int, size: Size) -> list[Op]:
    """The modified K-energy minimization and the identity-twist quantization."""
    rng = np.random.default_rng(seed)
    coeffs = seeded_bump(rng)
    grid = kq.build_grid("radial", size.radial)
    pot = kq.potential_from_radial_coeffs(grid, list(coeffs))
    ts = []
    while len(ts) < 10:
        t = float(rng.uniform(-1.0, 1.0))
        if abs(t) >= 0.15:
            ts.append(t)
    family = [pot.scaled(t) for t in ts]
    u, w = gl_nodes(size.radial)
    calabi_ref = []
    for t in ts:
        c = [t * a for a in coeffs]
        d = radial_density(c, u)
        calabi_ref.append(float(np.dot(w * d, (radial_scalar(c, u) - 2.0) ** 2)))
    cfg = kq.ExperimentConfig("minimization", resolution=size.radial, potential=coeffs, seed=seed)

    def minimization_ok(rep, outs):
        gaps = [v for s in rep.series for v in s.values]
        return rep.passed and finite(gaps) and min(gaps) >= MINIMIZATION_FLOOR

    def mabuchi_ok(vals, outs):
        # The round metric minimizes the K-energy, which is zero there.
        return finite(vals) and min(vals) >= MINIMIZATION_FLOOR

    def calabi_ok(vals, outs):
        return finite(vals) and min(vals) >= 0.0 and all(
            abs(a - b) <= 1e-9 * abs(b) for a, b in zip(vals, calabi_ref)
        )

    def deviation(k, outs):
        E = np.array(outs["mabuchi_energy"])
        lk = (2.0 / k) * np.array(outs[f"l_sigma_k-{k}"])
        return float(np.max(np.abs(lk + np.mean(E - lk) - E)))

    ops = [
        Op("minimization", lambda: kq.run_experiment(cfg), minimization_ok),
        Op("mabuchi_energy", lambda: [kq.mabuchi_energy(p) for p in family], mabuchi_ok),
        Op("calabi", lambda: [kq.calabi(p) for p in family], calabi_ok),
    ]
    last = size.energy_ks[-1]
    for k in size.energy_ks:

        def l_ok(vals, outs, k=k):
            if not finite(vals):
                return False
            if k != last:
                return True
            # The identity deviation max|(2/k) L_k + c_k - E| decreases with k.
            return decreasing([deviation(j, outs) for j in size.energy_ks])

        ops.append(Op(f"l_sigma_k-{k}", lambda k=k: [kq.l_sigma_k(p, k) for p in family], l_ok))
    return ops


WORKLOADS = {
    "twist-paths": twist_paths,
    "radial-high-degree": radial_high_degree,
    "full2d": full2d,
    "classical-energies": classical_energies,
}


def warm_up(kq) -> None:
    """Call every traced layer once on small inputs that no timed pass uses."""
    field = kq.rotation_field(1.0)
    k = 3
    for grid in (kq.build_grid("radial", 16), kq.build_grid("full2d", 16, 8)):
        pot = kq.potential_from_radial_coeffs(grid, [0.05, -0.07])
        md = kq.metric_data(pot)
        kq.holomorphy_potential(field, pot)
        lift = kq.sigma_lift(field, k)
        lift.compose_potential(pot)
        H = kq.hilb(pot, k, md=md)
        kq.fs(H, grid)
        kq.bergman(pot, k, md=md)
        kq.psi_potential(lift, pot, md=md)
    grid = kq.build_grid("radial", 16)
    flat = kq.zero_potential(grid)
    pot = kq.potential_from_radial_coeffs(grid, [0.05, -0.07])
    lift = kq.sigma_lift(field, k)
    H = kq.hilb(pot, k)
    kq.i_k(H, grid)
    kq.z_sigma_k(H, grid)
    kq.i_sigma_k(pot, k, lift)
    kq.i_sigma_hessian(kq.linear_path(pot), 0.5, k, lift)
    kq.fk_prime(pot, flat, k)
    kq.sigma_balanced_iterate(pot, k, max_iter=1, tol=0.0)
    kq.calabi(pot)
    kq.mabuchi_energy(pot)
    kq.modified_k_energy(pot, kq.circle_group(field))
    kq.run_experiment(kq.ExperimentConfig("bergman-expansion", k_list=(2, 3, 4), resolution=16))
