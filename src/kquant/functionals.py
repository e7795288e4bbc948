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

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

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
    sections_dim,
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
    "z_first_variation",
    "z_second_derivative_fd",
    "i_sigma_hessian",
    "fk_prime",
    "delta_l_sigma",
]

S_QUAD_NODES = 32


# ---------------------------------------------------------------------------
# Paths of potentials


@dataclass(frozen=True)
class PathInPotentials:
    """A parameterized family s -> phi_s on [0, 1] with s-derivatives.

    ``phi``/``dphi``/``d2phi`` return the potential and its first and second
    s-derivative fields at a parameter value; the quadrature rule is used by
    the path integrals.  Legs of piecewise paths carry their own rules.
    """

    phi: Callable[[float], Potential]
    dphi: Callable[[float], np.ndarray]
    d2phi: Callable[[float], np.ndarray]
    s_nodes: np.ndarray
    s_weights: np.ndarray

    def endpoints(self) -> tuple[Potential, Potential]:
        return self.phi(0.0), self.phi(1.0)


def _rule(n_s: int) -> tuple[np.ndarray, np.ndarray]:
    return gauss_legendre_01(n_s)


def linear_path(pot: Potential, n_s: int = S_QUAD_NODES) -> PathInPotentials:
    s, w = _rule(n_s)
    zero = np.zeros_like(pot.values)
    return PathInPotentials(
        phi=lambda t: pot.scaled(t),
        dphi=lambda t: pot.values,
        d2phi=lambda t: zero,
        s_nodes=s,
        s_weights=w,
    )


def reparam_path(pot: Potential, power: int = 2, n_s: int = S_QUAD_NODES) -> PathInPotentials:
    """The linear path traversed as s -> s^power; same curve, same integral."""
    s, w = _rule(n_s)
    return PathInPotentials(
        phi=lambda t: pot.scaled(t**power),
        dphi=lambda t: power * t ** (power - 1) * pot.values,
        d2phi=lambda t: power * (power - 1) * t ** max(power - 2, 0) * pot.values,
        s_nodes=s,
        s_weights=w,
    )


def segment_path(start: Potential, end: Potential, n_s: int = S_QUAD_NODES) -> PathInPotentials:
    s, w = _rule(n_s)
    diff = end.values - start.values
    zero = np.zeros_like(diff)
    return PathInPotentials(
        phi=lambda t: start.combine(end, 1.0 - t, t),
        dphi=lambda t: diff,
        d2phi=lambda t: zero,
        s_nodes=s,
        s_weights=w,
    )


def two_leg_path(mid: Potential, end: Potential, n_s: int = S_QUAD_NODES) -> list[PathInPotentials]:
    """Piecewise path 0 -> mid -> end, as two straight legs."""
    start = zero_potential(mid.grid)
    return [segment_path(start, mid, n_s), segment_path(mid, end, n_s)]


def quadratic_path(
    base: Potential, vel: np.ndarray, acc: np.ndarray, n_s: int = S_QUAD_NODES
) -> PathInPotentials:
    """phi_s = base + s vel + s^2 acc; exercises both derivative slots."""
    s, w = _rule(n_s)
    inv = base.invariant
    return PathInPotentials(
        phi=lambda t: Potential(base.grid, base.values + t * vel + t * t * acc, invariant=inv),
        dphi=lambda t: vel + 2.0 * t * acc,
        d2phi=lambda t: 2.0 * acc,
        s_nodes=s,
        s_weights=w,
    )


def bergman_path(pot: Potential, k: int, n_s: int = S_QUAD_NODES) -> PathInPotentials:
    """phi_s = phi + (s/k) log rho_k(phi): straight segment toward fs o hilb."""
    rho = bergman(pot, k)
    vel = np.log(rho.values) / k
    s, w = _rule(n_s)
    zero = np.zeros_like(vel)
    return PathInPotentials(
        phi=lambda t: pot.with_values(pot.values + t * vel),
        dphi=lambda t: vel,
        d2phi=lambda t: zero,
        s_nodes=s,
        s_weights=w,
    )


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


def _base_form(grid, k: int) -> HermForm:
    return hilb(zero_potential(grid), k)


def i_k(form: HermForm, grid) -> float:
    """log det relative to the base Gram form at the zero potential."""
    sign, logdet = np.linalg.slogdet(form.entries)
    if sign.real <= 0:
        raise NotPositiveDefiniteError("form must be positive definite")
    sign0, logdet0 = np.linalg.slogdet(_base_form(grid, form.degree).entries)
    return float(logdet - logdet0)


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
    """
    lift = identity_lift(k) if lift is None else lift
    md = metric_data(pot) if md is None else md
    psi = psi_potential(lift, pot, md=md)
    epsi = psi.exp()
    if lift.is_identity:
        return float(k * k * md.integrate(direction * epsi))
    return float(k * (k * md.integrate(direction * epsi) + md.integrate(direction * md.laplace(epsi))))


def _integrate_along(path: PathInPotentials, k: int, lift: AutomorphismLift) -> float:
    total = 0.0
    for s, w in zip(path.s_nodes, path.s_weights):
        total += w * delta_i_sigma(path.phi(s), path.dphi(s), k, lift)
    return float(total)


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
    return float(sum(_integrate_along(leg, k, lift) for leg in legs))


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

    Vanishes exactly at normalized balanced potentials, where rho_k equals
    k e^psi pointwise.
    """
    lift = identity_lift(k) if lift is None else lift
    md = metric_data(pot) if md is None else md
    rho = bergman(pot, k, md=md).values
    psi = psi_potential(lift, pot, md=md)
    gap = rho - k * psi.exp()
    return float(-md.integrate(direction * (k * gap + md.laplace(gap))))


# ---------------------------------------------------------------------------
# Classical functionals


def calabi(pot: Potential, md: MetricData | None = None) -> float:
    """int (S(phi) - 2)^2 d mu_phi; zero exactly at constant curvature."""
    md = metric_data(pot) if md is None else md
    return float(md.integrate((md.scalar - SBAR) ** 2))


def _energy_primitive(pot: Potential, density_of: Callable[[Potential, MetricData], np.ndarray], n_t: int = S_QUAD_NODES) -> float:
    """Primitive at phi of the one-form eta -> int eta g(phi) d mu_phi.

    Evaluated along the straight segment from 0, which every one-form used
    here integrates exactly (they are closed).
    """
    t, w = gauss_legendre_01(n_t)
    total = 0.0
    for ti, wi in zip(t, w):
        p = pot.with_values(ti * pot.values)
        md = metric_data(p)
        total += wi * md.integrate(pot.values * density_of(p, md))
    return float(total)


def mabuchi_energy(pot: Potential) -> float:
    """K-energy: primitive of eta -> -int eta (S - 2) d mu_phi, zero at 0."""
    return _energy_primitive(pot, lambda p, md: -(md.scalar - SBAR))


def moment_energy(pot: Potential, V: VectorFieldSpec) -> float:
    """Primitive of eta -> +int eta theta_V(phi) d mu_phi (moment-weighted energy)."""
    if V.is_zero:
        return 0.0
    return _energy_primitive(pot, lambda p, md: holomorphy_potential(V, p))


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
    theta = holomorphy_potential(group.V, pot)
    gram = md.integrate(theta * theta)
    if gram <= 0.0:
        raise KQuantError("degenerate Killing potential Gram matrix")
    return (md.integrate(f * theta) / gram) * theta


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
    H(tau_a, tau_b)(s) = delta_ab e^{2 lambda_a s}.
    """

    H0: HermForm
    H1: HermForm
    lambdas: np.ndarray
    coeffs: np.ndarray

    @property
    def degree(self) -> int:
        return self.H0.degree

    @property
    def distance(self) -> float:
        return float(np.sqrt(np.sum((2.0 * self.lambdas) ** 2)))

    def form_at(self, s: float) -> HermForm:
        Tinv = np.linalg.inv(self.coeffs)
        mid = np.diag(np.exp(2.0 * self.lambdas * s))
        return HermForm(entries=Tinv.conj().T @ mid @ Tinv, degree=self.degree)


def bk_geodesic(H0: HermForm, H1: HermForm) -> GeodesicInB:
    """Geodesic through Cholesky whitening and a Hermitian eigensplit."""
    if H0.degree != H1.degree:
        raise KQuantError("geodesic endpoints must share a degree")
    L = H0.cholesky()
    Linv = np.linalg.inv(L)
    M = Linv @ (0.5 * (H1.entries + H1.entries.conj().T)) @ Linv.conj().T
    vals, vecs = np.linalg.eigh(M)
    if vals.min() <= 0.0:
        raise NotPositiveDefiniteError("geodesic endpoints must be positive definite")
    lambdas = 0.5 * np.log(vals)
    coeffs = Linv.conj().T @ vecs
    return GeodesicInB(H0=H0, H1=H1, lambdas=lambdas, coeffs=coeffs)


def _section_density_split(geo: GeodesicInB, grid, s: float) -> tuple[np.ndarray, np.ndarray]:
    """(sum_a e^{-2 lam_a s}|tau_a|^2, sum_a 2 lam_a e^{-2 lam_a s}|tau_a|^2)."""
    tau_sq = grid.section_table(geo.degree, geo.coeffs)
    w = np.exp(-2.0 * geo.lambdas * s)
    dens = tau_sq @ w
    slope = tau_sq @ (2.0 * geo.lambdas * w)
    return dens, slope


def z_first_variation(
    geo: GeodesicInB, grid, s: float, lift: AutomorphismLift | None = None
) -> float:
    """dZ/ds along the geodesic, through the chain rule on its two terms.

    d(i_k)/ds = 2 sum lambda_a; the embedding-potential velocity is the
    exact ratio -(1/k) sum 2 lam e^{-2 lam s}|tau|^2 / sum e^{-2 lam s}|tau|^2
    fed to the twisted Aubin differential.
    """
    k = geo.degree
    lift = identity_lift(k) if lift is None else lift
    pot = fs(geo.form_at(s), grid)
    dens, slope = _section_density_split(geo, grid, s)
    vel = -slope / (k * dens)
    return delta_i_sigma(pot, vel, k, lift) + float(2.0 * np.sum(geo.lambdas))


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
    lift = identity_lift(k) if lift is None else lift
    pot = path.phi(s)
    md = metric_data(pot)
    vel = path.dphi(s)
    acc = path.d2phi(s)
    integrand = acc - 0.5 * md.grad_norm_sq(vel)
    psi = psi_potential(lift, pot, md=md)
    epsi = psi.exp()
    if lift.is_identity:
        return float(k * k * md.integrate(integrand * epsi))
    return float(k * (k * md.integrate(integrand * epsi) + md.integrate(integrand * md.laplace(epsi))))


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

        slope = 2 sum_a lam_a - 2 int (rho^lam / rho)(k + Delta)(e^psi) d mu / k

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
    dens, slope_dens = _section_density_split(geo, grid, 0.0)
    ratio = slope_dens / (2.0 * dens)  # sum lam |tau|^2 / sum |tau|^2
    psi = psi_potential(lift, pot_star, md=md)
    epsi = psi.exp()
    op = k * epsi + md.laplace(epsi)
    slope = float(2.0 * np.sum(geo.lambdas) - 2.0 * md.integrate(ratio * op))
    bound = float(np.max(np.abs(geo.lambdas)) / k)
    return slope, bound
