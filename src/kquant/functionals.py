"""Energy functionals, their variational formulas, and form-space geodesics.

The stack couples three layers:

* matrix level: the log-determinant functional and geodesics of positive
  Hermitian forms H(s) = H0^{1/2} exp(2 Lambda s) H0^{1/2};
* quantized level: the twisted Aubin energy, defined by integrating its
  differential delta I = k int eta (k + Delta)(e^psi) d mu along paths of
  potentials, and the induced functionals L = I_k o hilb + I and
  Z = I o fs + I_k - k log k;
* classical level: Calabi energy, the K-energy, the reduced scalar
  curvature with its circle projection, the relative K-energy, and the
  moment-weighted energy that the twisted stack quantizes.

At the identity twist the weight e^psi is constant and every identity here
is exact up to quadrature; with a nontrivial twist the differential is
closed only to second order in the twist displacement (the defect decays
like k^{-2} and is measured by the experiment harness rather than assumed
away).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as P

from .geometry import (
    AutomorphismLift,
    KQuantError,
    MetricData,
    Potential,
    SBAR,
    VectorFieldSpec,
    holomorphy_potential,
    identity_lift,
    metric_data,
    zero_potential,
)
from .grids import gauss_legendre_01
from .quantize import (
    HermForm,
    NotPositiveDefiniteError,
    bergman,
    fs,
    hilb,
    psi_potential,
)

__all__ = [
    "PathInPotentials",
    "linear_path",
    "reparam_path",
    "two_leg_path",
    "quadratic_path",
    "bergman_path",
    "GroupSpec",
    "trivial_group",
    "circle_group",
    "i_k",
    "delta_i_sigma",
    "i_sigma_k",
    "l_sigma_k",
    "z_sigma_k",
    "calabi",
    "mabuchi_energy",
    "moment_energy",
    "projection_pi",
    "reduced_scalar",
    "modified_k_energy",
    "GeodesicInB",
    "bk_geodesic",
    "z_second_derivative_fd",
    "i_sigma_hessian",
    "fk_prime",
    "delta_l_sigma",
]

# Gauss-Legendre rule on [0, 1] shared by every path integral, whose nodes
# are evaluated as one block.
S_NODES, S_WEIGHTS = gauss_legendre_01(32)


# ---------------------------------------------------------------------------
# Paths of potentials


@dataclass(frozen=True)
class PathInPotentials:
    """The path s -> phi_s = sum_i c_i(s) P_i on [0, 1].

    ``terms`` pairs each potential P_i with the coefficients of the
    polynomial c_i in ascending powers of s.  ``phi`` sums the terms as
    potentials, so the path keeps an exact profile exactly when every P_i
    carries one; ``dphi``/``d2phi`` return the s-derivative fields.  A float
    s gives one potential or field, an array of s the block of them at
    every entry, stacked along a leading axis.
    """

    terms: tuple[tuple[Potential, tuple[float, ...]], ...]

    def phi(self, s: float | np.ndarray) -> Potential:
        pots = [term for term, _ in self.terms]
        coefs = [P.polyval(s, c) for _, c in self.terms]
        profile = None
        if all(p.profile is not None for p in pots):
            n = max(len(p.profile[1]) for p in pots)
            c0 = sum(a * p.profile[0] for a, p in zip(coefs, pots))
            cs = tuple(
                sum(a * (p.profile[1][i] if i < len(p.profile[1]) else 0.0) for a, p in zip(coefs, pots))
                for i in range(n)
            )
            profile = (c0, cs)
        return Potential(pots[0].grid, self._combine(coefs), all(p.invariant for p in pots), profile)

    def _combine(self, coefs) -> np.ndarray:
        return sum(np.multiply.outer(a, term.values) for (term, _), a in zip(self.terms, coefs))

    def _derivative(self, s: float | np.ndarray, m: int) -> np.ndarray:
        rates = [c for _, c in self.terms]
        for _ in range(m):  # numpy's polyder arithmetic, without its per-call overhead
            rates = [[j * a for j, a in enumerate(c)][1:] or [0.0] for c in rates]
        return self._combine([P.polyval(s, r) for r in rates])

    def dphi(self, s: float | np.ndarray) -> np.ndarray:
        return self._derivative(s, 1)

    def d2phi(self, s: float | np.ndarray) -> np.ndarray:
        return self._derivative(s, 2)


def linear_path(pot: Potential) -> PathInPotentials:
    return PathInPotentials(((pot, (0, 1)),))


def reparam_path(pot: Potential, power: int = 2) -> PathInPotentials:
    """The linear path traversed as s -> s^power; same curve, same integral."""
    return PathInPotentials(((pot, (0,) * power + (1,)),))


def segment_path(start: Potential, end: Potential) -> PathInPotentials:
    return PathInPotentials(((start, (1, -1)), (end, (0, 1))))


def two_leg_path(mid: Potential, end: Potential) -> list[PathInPotentials]:
    """Piecewise path 0 -> mid -> end, as two straight legs."""
    return [segment_path(zero_potential(mid.grid), mid), segment_path(mid, end)]


def quadratic_path(base: Potential, vel: np.ndarray, acc: np.ndarray) -> PathInPotentials:
    """phi_s = base + s vel + s^2 acc; exercises both derivative slots."""
    return PathInPotentials(
        ((base, (1,)), (base.with_values(vel), (0, 1)), (base.with_values(acc), (0, 0, 1)))
    )


def bergman_path(pot: Potential, k: int) -> PathInPotentials:
    """phi_s = phi + (s/k) log rho_k(phi): straight segment toward fs o hilb."""
    vel = np.log(bergman(pot, k).values) / k
    return PathInPotentials(((pot, (1,)), (pot.with_values(vel), (0, 1))))


# ---------------------------------------------------------------------------
# Group choice


@dataclass(frozen=True)
class GroupSpec:
    """Compact symmetry choice: trivial, or the circle of a gradient field."""

    kind: str  # "trivial" | "circle"
    V: VectorFieldSpec | None = None

    def __post_init__(self):
        if self.kind not in ("trivial", "circle"):
            raise KQuantError(f"unknown group kind {self.kind!r}")
        if self.kind == "circle" and (self.V is None or self.V.is_zero):
            raise KQuantError("circle groups need a nonzero generator field")


def trivial_group() -> GroupSpec:
    return GroupSpec(kind="trivial")


def circle_group(V: VectorFieldSpec | None = None) -> GroupSpec:
    return GroupSpec(kind="circle", V=V or VectorFieldSpec(strength=1.0))


# ---------------------------------------------------------------------------
# Matrix-level functional


def i_k(form: HermForm, grid) -> float:
    """log det relative to the base Gram form at the zero potential.

    On a radial grid both forms are diagonal and this is sum_j log h_j -
    sum_j log B(j+1, k-j+1).
    """
    return grid.log_det(form) - grid.log_det(hilb(zero_potential(grid), form.degree))


# ---------------------------------------------------------------------------
# Twisted Aubin energy


def delta_i_sigma(
    pot: Potential,
    direction: np.ndarray,
    k: int,
    lift: AutomorphismLift | None = None,
    md: MetricData | None = None,
) -> float:
    """Differential of the twisted Aubin energy:

        k * int direction (k + Delta_phi)(e^{psi_k(phi)}) d mu_phi.

    Linear in the direction; at the identity twist e^psi is the constant
    (k+1)/k and this reduces to the scaled classical Aubin differential.
    A block of potentials and directions gives one value per potential.
    """
    lift = identity_lift(k) if lift is None else lift
    md = metric_data(pot) if md is None else md
    epsi = psi_potential(lift, pot, md=md).exp()
    if lift.is_identity:
        return k * k * md.integrate(direction * epsi)
    # direction (k + Delta) e^psi, formed in place: a block of 2D fields is
    # megabytes, so each temporary counts.
    weight = md.laplace(epsi)
    epsi *= k
    weight += epsi
    weight *= direction
    return k * md.integrate(weight)


def _path_integral(path: PathInPotentials, one_form: Callable[[Potential, np.ndarray], np.ndarray]) -> float:
    """int_0^1 one_form(phi_s, phi_s') ds by the shared rule S_NODES/S_WEIGHTS.

    The one-form sees the path at all nodes as one block of potentials and
    velocities, and returns its value at each node.
    """
    return float(S_WEIGHTS @ one_form(path.phi(S_NODES), path.dphi(S_NODES)))


def i_sigma_k(
    pot_or_paths,
    k: int,
    lift: AutomorphismLift | None = None,
    path: PathInPotentials | list[PathInPotentials] | None = None,
) -> float:
    """Twisted Aubin energy: path integral of its differential from 0.

    The default path is the straight segment s -> s phi.  A path or list of
    path legs may be supplied instead; the cocycle property makes leg sums
    meaningful.  At the identity twist the one-form is exact and the value
    is path independent to quadrature accuracy; a nontrivial twist carries a
    second-order closedness defect, reported by the path-independence
    experiment.
    """
    lift = identity_lift(k) if lift is None else lift
    if path is None:
        if not isinstance(pot_or_paths, Potential):
            raise KQuantError("need a potential or an explicit path")
        legs = [linear_path(pot_or_paths)]
    else:
        legs = path if isinstance(path, list) else [path]
    return float(sum(_path_integral(leg, lambda p, vel: delta_i_sigma(p, vel, k, lift)) for leg in legs))


def l_sigma_k(pot: Potential, k: int, lift: AutomorphismLift | None = None) -> float:
    """Quantized twisted energy on potentials: i_k o hilb + twisted Aubin."""
    lift = identity_lift(k) if lift is None else lift
    return i_k(hilb(pot, k), pot.grid) + i_sigma_k(pot, k, lift)


def z_sigma_k(form: HermForm, grid, lift: AutomorphismLift | None = None) -> float:
    """Quantized twisted energy on forms: I o fs + i_k.

    The embedding potential is normalized with the 1/N_k inside its log, so
    the k log k counterterm of the unnormalized convention is already
    absorbed; with it left in, the energies on the two sides of the
    comparison test would differ by exactly k log k.  Z is invariant under
    rescaling the form.
    """
    k = form.degree
    lift = identity_lift(k) if lift is None else lift
    pot = fs(form, grid)
    return i_sigma_k(pot, k, lift) + i_k(form, grid)


def delta_l_sigma(
    pot: Potential,
    direction: np.ndarray,
    k: int,
    lift: AutomorphismLift | None = None,
    md: MetricData | None = None,
) -> float:
    """Differential of l_sigma_k: -int direction (k + Delta)(rho_k - k e^psi) d mu.

    Formed as l_sigma_k is split: d(i_k o hilb) = -int direction (k + Delta)
    (rho_k) d mu plus the twisted Aubin differential.  Vanishes exactly at
    normalized balanced potentials, where rho_k equals k e^psi pointwise.
    """
    md = metric_data(pot) if md is None else md
    rho = bergman(pot, k, md=md).values
    return delta_i_sigma(pot, direction, k, lift, md) - float(md.integrate(direction * (k * rho + md.laplace(rho))))


# ---------------------------------------------------------------------------
# Classical functionals


def calabi(pot: Potential, md: MetricData | None = None) -> float:
    """int (S(phi) - 2)^2 d mu_phi; zero exactly at constant curvature."""
    md = metric_data(pot) if md is None else md
    return float(md.integrate((md.scalar - SBAR) ** 2))


def _energy_primitive(pot: Potential, density_of: Callable[[Potential, MetricData], np.ndarray]) -> float:
    """Primitive at phi of the one-form eta -> int eta g(phi) d mu_phi.

    Evaluated along the straight segment from 0, which every one-form used
    here integrates exactly (they are closed); its points keep the exact
    profile of phi when it has one.
    """
    def one_form(p: Potential, vel: np.ndarray) -> np.ndarray:
        md = metric_data(p)
        return md.integrate(vel * density_of(p, md))

    return _path_integral(linear_path(pot), one_form)


def mabuchi_energy(pot: Potential) -> float:
    """K-energy: primitive of eta -> -int eta (S - 2) d mu_phi, zero at 0."""
    return _energy_primitive(pot, lambda p, md: -(md.scalar - SBAR))


def moment_energy(pot: Potential, V: VectorFieldSpec) -> float:
    """Primitive of eta -> +int eta theta_V(phi) d mu_phi (moment-weighted energy)."""
    if V.is_zero:
        return 0.0
    return _energy_primitive(pot, lambda p, md: holomorphy_potential(V, p, md))


def projection_pi(pot: Potential, group: GroupSpec, f: np.ndarray, md: MetricData | None = None) -> np.ndarray:
    """L^2(d mu_phi) projection of f onto the normalized Killing potentials.

    Trivial group: zero field.  Circle group: projection onto the span of
    the holomorphy potential of its generator.
    """
    if group.kind == "trivial":
        return np.zeros_like(f)
    if not pot.invariant:
        raise KQuantError("circle projections need circle-invariant potentials")
    md = metric_data(pot) if md is None else md
    theta = holomorphy_potential(group.V, pot, md)
    gram = md.integrate(theta * theta, keepdims=True)
    if np.any(gram <= 0.0):
        raise KQuantError("degenerate Killing potential Gram matrix")
    return (md.integrate(f * theta, keepdims=True) / gram) * theta


def reduced_scalar(pot: Potential, group: GroupSpec, md: MetricData | None = None) -> np.ndarray:
    """S(phi) - 2 - Pi^G S(phi): the curvature component orthogonal to the group."""
    md = metric_data(pot) if md is None else md
    base = md.scalar - SBAR
    return base - projection_pi(pot, group, md.scalar, md=md)


def modified_k_energy(pot: Potential, group: GroupSpec) -> float:
    """Relative K-energy: primitive of eta -> -int eta S^G(phi) d mu_phi.

    Equals the K-energy for the trivial group.  Nontrivial groups require
    invariant potentials.
    """
    if group.kind == "trivial":
        return mabuchi_energy(pot)
    if not pot.invariant:
        raise KQuantError("relative energy needs circle-invariant potentials")
    return _energy_primitive(pot, lambda p, md: -reduced_scalar(p, group, md=md))


# ---------------------------------------------------------------------------
# Geodesics of positive Hermitian forms


@dataclass(frozen=True)
class GeodesicInB:
    """Geodesic H(s) between positive forms, diagonalized in a common basis.

    ``coeffs`` columns hold the sections tau_a (monomial coefficients) that
    are H0-orthonormal and H1-diagonalizing; along the geodesic
    H(tau_a, tau_b)(s) = delta_ab e^{2 lambda_a s}.  Between two diagonal
    forms the monomials are that basis up to scale, ``coeffs`` is None and
    log h_j(s) = log h0_j + 2 lambda_j s.
    """

    H0: HermForm
    H1: HermForm
    lambdas: np.ndarray
    coeffs: np.ndarray | None

    @property
    def degree(self) -> int:
        return self.H0.degree

    def form_at(self, s: float) -> HermForm:
        if self.coeffs is None:
            return HermForm(None, self.degree, log_diag=self.H0.log_diag + 2.0 * self.lambdas * s)
        Tinv = np.linalg.inv(self.coeffs)
        mid = np.diag(np.exp(2.0 * self.lambdas * s))
        return HermForm(entries=Tinv.conj().T @ mid @ Tinv, degree=self.degree)


def bk_geodesic(H0: HermForm, H1: HermForm) -> GeodesicInB:
    """Geodesic between positive forms.

    Two diagonal forms give lambda = (log h1 - log h0)/2 directly; otherwise
    through Cholesky whitening and a Hermitian eigensplit.
    """
    if H0.degree != H1.degree:
        raise KQuantError("geodesic endpoints must share a degree")
    if H0.log_diag is not None and H1.log_diag is not None:
        return GeodesicInB(H0=H0, H1=H1, lambdas=0.5 * (H1.log_diag - H0.log_diag), coeffs=None)
    L = H0.cholesky()
    Linv = np.linalg.inv(L)
    H = H1.dense()
    M = Linv @ (0.5 * (H + H.conj().T)) @ Linv.conj().T
    vals, vecs = np.linalg.eigh(M)
    if vals.min() <= 0.0:
        raise NotPositiveDefiniteError("geodesic endpoints must be positive definite")
    lambdas = 0.5 * np.log(vals)
    coeffs = Linv.conj().T @ vecs
    return GeodesicInB(H0=H0, H1=H1, lambdas=lambdas, coeffs=coeffs)


def z_second_derivative_fd(
    geo: GeodesicInB,
    grid,
    lift: AutomorphismLift | None = None,
    s: float = 0.5,
    h: float = 0.05,
) -> float:
    """Central second difference of Z along the geodesic at parameter s."""
    lift = identity_lift(geo.degree) if lift is None else lift
    z = [z_sigma_k(geo.form_at(t), grid, lift) for t in (s - h, s, s + h)]
    return float((z[0] - 2.0 * z[1] + z[2]) / h**2)


# ---------------------------------------------------------------------------
# Second derivative of the twisted Aubin energy


def i_sigma_hessian(
    path: PathInPotentials, s: float, k: int, lift: AutomorphismLift | None = None
) -> float:
    """Second s-derivative along a path:

        k int (phi'' - |d phi'|^2 / 2) (k + Delta)(e^psi) d mu.

    |d phi'|^2 is the Riemannian gradient norm of the velocity field.
    """
    pot = path.phi(s)
    md = metric_data(pot)
    return delta_i_sigma(pot, path.d2phi(s) - 0.5 * md.grad_norm_sq(path.dphi(s)), k, lift, md)


# ---------------------------------------------------------------------------
# Slope formula at the reference potential


def fk_prime(
    pot: Potential,
    pot_star: Potential,
    k: int,
    lift: AutomorphismLift | None = None,
) -> tuple[float, float]:
    """Initial slope of Z along the geodesic from hilb(pot_star) to hilb(pot).

    Returns (slope, lambda_bound) where

        slope = 2 sum_a lam_a - 2 int (rho^lam / rho)(k + Delta)(e^psi) d mu

    with every field computed at the reference potential, rho^lam the
    lambda-weighted section density of the geodesic's common eigenbasis, and
    lambda_bound = max_a |lam_a| / k.
    """
    lift = identity_lift(k) if lift is None else lift
    H_star = hilb(pot_star, k)
    H = hilb(pot, k)
    geo = bk_geodesic(H_star, H)
    grid = pot.grid
    md = metric_data(pot_star)
    ratio = 0.5 * grid.geodesic_slope(geo, 0.0)  # sum lam |tau|^2 / sum |tau|^2
    psi = psi_potential(lift, pot_star, md=md)
    epsi = psi.exp()
    op = k * epsi + md.laplace(epsi)
    slope = float(2.0 * np.sum(geo.lambdas) - 2.0 * md.integrate(ratio * op))
    bound = float(np.max(np.abs(geo.lambdas)) / k)
    return slope, bound
