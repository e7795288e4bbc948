"""Energy functionals, their variational formulas, and form-space geodesics.

The stack couples three layers:

* matrix level: the log-determinant functional and geodesics of positive
  Hermitian forms H(s) = H0^{1/2} exp(2 Lambda s) H0^{1/2};
* quantized level: the twisted Aubin energy, defined by integrating its
  differential delta I = k int eta (k + Delta)(e^psi) d mu along paths of
  potentials, and the induced functionals L = I_k o hilb + I and
  Z = I o fs + I_k - k log k;
* classical level: Calabi energy, the K-energy, the extremal field of a
  group, the modified K-energy it defines, and the moment-weighted energy
  that the twisted stack quantizes.

On every invariant potential the classical energies are closed forms in the
moment coordinate x = u + g1, g1 = u(1-u) phi_u, where d mu_phi = dx =
density du (Donaldson, JDG 2002; Hwang-Singer, Trans. AMS 2002):

    K(phi) = int (q - 1 - log q) dx,        q = x(1-x) / (density u(1-u)),
    M_V(phi) = -int (G_phi - G_0) theta_V dx,  theta_V = strength (x - 1/2) / (2 pi),

with G_phi = x t - F at t = log(u/(1-u)), F = -log(1-u) + phi, and G_0 =
x log x + (1-x) log(1-x); the modified K-energy is K + M_X.  The integrand
of K is >= 0 at every point.  Only off the invariant slice does the K-energy
take the path integral along the straight segment from 0.

At the identity twist e^psi is the constant (k+1)/k and the density
1 - s Delta_0 phi of s phi is affine in s, so the Aubin energy integrates in
closed form along the segment from 0 (Aubin, J. Funct. Anal. 1984):

    I_k(phi) = k(k+1) E(phi),   E(phi) = 1/2 int phi (d mu_0 + d mu_phi),

the Monge-Ampere energy of complex dimension 1.  A twist, or an explicit
path, takes the path rule.  A path s -> sum_i c_i(s) P_i is linear in its
terms, so Delta_0 and the pullback by sigma are applied once per term P_i and
combined with the c_i at the nodes.  When every P_i is circle-invariant, so
is every field along the path (density, pullback defect, e^psi), and the
rule runs on the radial factor of the grid: the 2D weights sum each radius
over the angle, so on the full 2D grid the integrals are the same on n_u
nodes instead of n_u x n_theta.  In int eta Delta_0 e^psi d mu_0 the
Laplacian moves onto the terms of eta: by self-adjointness a term with an
exact profile pairs e^psi with its exact Delta_0 P_i, which the density
1 - Delta_0 phi_s already holds; a sampled term takes the transpose of the
spectral Delta_0 applied to the weighted P_i, the node-by-node sum
reordered, as the spectral Laplacian is not exactly self-adjoint under the
Gauss weights.  Per node only e^psi and dot products with the term fields
remain.

delta I, delta L and the slope F_k' pair a field with k + Delta_phi, always on
the base measure: int f (k + Delta_phi) g d mu_phi = k int f g d mu_phi +
int f Delta_0 g d mu_0, as Delta_phi = Delta_0 / density.  At the identity
twist e^psi is the constant (k+1)/k and every identity here is exact up to
quadrature; with a nontrivial twist the differential is closed only to
second order in the twist displacement (the defect decays like k^{-2} and is
measured by the experiment harness rather than assumed away).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import (
    AutomorphismLift,
    KQuantError,
    MetricData,
    Potential,
    SBAR,
    VectorFieldSpec,
    density_field,
    kahler_density,
    lift_at_degree,
    metric_data,
    radial_twin,
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
    psi_scale,
)

__all__ = [
    "PathInPotentials",
    "linear_path",
    "segment_path",
    "reparam_path",
    "two_leg_path",
    "quadratic_path",
    "bergman_path",
    "trivial_group",
    "circle_group",
    "extremal_field",
    "i_k",
    "delta_i_sigma",
    "i_sigma_k",
    "l_sigma_k",
    "z_sigma_k",
    "calabi",
    "mabuchi_energy",
    "moment_energy",
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

    def coefficients(self, s: float | np.ndarray, m: int = 0) -> np.ndarray:
        """The m-th s-derivatives c_i^(m)(s), one row per term."""
        rates = [c for _, c in self.terms]
        for _ in range(m):  # numpy's polyder arithmetic, without its per-call overhead
            rates = [[j * a for j, a in enumerate(c)][1:] or [0.0] for c in rates]
        rows = []
        for r in rates:  # numpy's polyval Horner steps, in its order
            c = r[-1] + s * 0
            for a in r[-2::-1]:
                c = a + c * s
            rows.append(c)
        return np.array(rows)

    def phi(self, s: float | np.ndarray) -> Potential:
        pots = [term for term, _ in self.terms]
        coefs = self.coefficients(s)
        profile = None
        if all(p.profile is not None for p in pots):
            table = np.zeros((len(pots), max(len(p.profile) for p in pots)))
            for row, p in zip(table, pots):
                row[: len(p.profile)] = p.profile
            # the terms summed in order along the first axis, as the padded sum did
            profile = (table.reshape(table.shape + (1,) * (coefs.ndim - 1)) * coefs[:, None]).sum(axis=0)
        return Potential(pots[0].grid, self._combine(coefs), all(p.invariant for p in pots), profile)

    def _combine(self, coefs) -> np.ndarray:
        return sum(np.multiply.outer(a, term.values) for (term, _), a in zip(self.terms, coefs))

    def dphi(self, s: float | np.ndarray) -> np.ndarray:
        return self._combine(self.coefficients(s, 1))

    def d2phi(self, s: float | np.ndarray) -> np.ndarray:
        return self._combine(self.coefficients(s, 2))


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


def quadratic_path(base: Potential, vel: Potential, acc: Potential) -> PathInPotentials:
    """phi_s = base + s vel + s^2 acc; exercises both derivative slots."""
    return PathInPotentials(((base, (1,)), (vel, (0, 1)), (acc, (0, 0, 1))))


def bergman_path(pot: Potential, k: int) -> PathInPotentials:
    """phi_s = phi + (s/k) log rho_k(phi): straight segment toward fs o hilb."""
    vel = np.log(bergman(pot, k).values) / k
    return PathInPotentials(((pot, (1,)), (pot.with_values(vel), (0, 1))))


# ---------------------------------------------------------------------------
# Group choice: a compact group is named by its generator field


def trivial_group() -> VectorFieldSpec:
    """The trivial group, whose generator is the zero field."""
    return VectorFieldSpec(strength=0.0)


def circle_group(V: VectorFieldSpec) -> VectorFieldSpec:
    """The circle generated by a nonzero gradient field."""
    if V.is_zero:
        raise KQuantError("circle groups need a nonzero generator field")
    return V


# ---------------------------------------------------------------------------
# Matrix-level functional


def i_k(form: HermForm, grid) -> float:
    """log det relative to the Gram form of the zero potential.

    That form is diagonal in the monomials with h_j = int |s_j|^2 d mu_0 =
    B(j+1, k-j+1), so the reference is sum_j log B(j+1, k-j+1) in closed
    form; ``grid`` is not read.
    """
    k = form.degree
    ref = sum(math.lgamma(j + 1) + math.lgamma(k - j + 1) - math.lgamma(k + 2) for j in range(k + 1))
    return form.log_det() - ref


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
    (k+1)/k and this is k(k+1) int direction d mu_phi, the scaled classical
    Aubin differential.  A block of potentials and directions gives one value
    per potential.
    """
    lift = lift_at_degree(k, lift)
    md = metric_data(pot) if md is None else md
    if lift.is_identity:
        return k * (k + 1) * md.integrate(direction)
    return k * _pairing(md, direction, psi_potential(lift, pot, md=md).exp(), k)


def _pairing(md: MetricData, f: np.ndarray, g: np.ndarray, k: int) -> np.ndarray:
    """int f (k + Delta_phi) g d mu_phi = k int f g d mu_phi + int f Delta_0 g d mu_0.

    Delta_phi = Delta_0 / density, so the density cancels from the Laplacian
    term, which integrates against the base weights.
    """
    return k * md.integrate(f * g) + md.grid.integrate(f * md.grid.base_laplace(g))


def _path_integral(path: PathInPotentials, one_form: Callable[[Potential, np.ndarray], np.ndarray]) -> float:
    """int_0^1 one_form(phi_s, phi_s') ds by the shared rule S_NODES/S_WEIGHTS.

    The one-form sees the path at all nodes as one block of potentials and
    velocities, and returns its value at each node.
    """
    return float(S_WEIGHTS @ one_form(path.phi(S_NODES), path.dphi(S_NODES)))


def _leg_integral(leg: PathInPotentials, k: int, lift: AutomorphismLift) -> float:
    """int_0^1 delta_i_sigma(phi_s, phi_s') ds along phi_s = sum_i c_i(s) P_i, by
    the rule S_NODES/S_WEIGHTS, with Delta_0 and the pullback applied once per term.

    The one-form at a node is k sum_i c_i'(s) [k int e^psi P_i d mu_phi +
    int P_i Delta_0 e^psi d mu_0].  At the identity e^psi = (k+1)/k and the
    second pairing vanishes.  With a twist, both pairings take e^psi before
    its normalization, exponentiated once, and the normalizing scale of each
    node multiplies them after.  The node block holds the density, turned
    into volume weights, and the defect, turned into its exponential and then
    its product with them.  A leg of circle-invariant terms has invariant
    fields only, and runs on the grid's radial factor.  For a P_i with an
    exact profile the second pairing is int e^psi Delta_0 P_i d mu_0, by
    self-adjointness, with the exact Delta_0 P_i = 1 - density already formed;
    for a sampled P_i it is e^psi dotted with the transpose of Delta_0 applied
    to the weighted P_i: the node-by-node sum, reordered.
    """
    pots = [p for p, _ in leg.terms]
    if all(p.invariant for p in pots):
        pots = [radial_twin(p) for p in pots]
    grid, n, values = pots[0].grid, len(S_NODES), np.stack([p.values for p in pots])
    c, rate = leg.coefficients(S_NODES), leg.coefficients(S_NODES, 1)
    laplace = 1.0 - np.stack([density_field(p) for p in pots])
    # the ends are checked with the nodes: on a straight leg the density is affine in s
    kahler_density(1.0 - np.tensordot(leg.coefficients(np.array([0.0, 1.0])).T, laplace, axes=1))
    vw = np.tensordot(c.T, laplace, axes=1)
    np.subtract(1.0, vw, out=vw)
    kahler_density(vw)
    vw *= grid.weights
    if lift.is_identity:
        weight, lap_pairs, scale = vw, 0.0, 1.0
        weight *= (k + 1) / k
    else:
        defect = np.tensordot(c.T, np.stack([lift.pullback_defect(p) for p in pots]), axes=1)
        defect += lift.base_potential(grid)
        defect /= 2.0 * np.pi
        weight = np.exp(defect, out=defect)
        scale = psi_scale(weight, k, grid, vw).reshape(n)
        lap_terms = laplace * grid.weights
        sampled = [i for i, p in enumerate(pots) if p.profile is None]
        if sampled:
            lap_terms[sampled] = grid.base_laplace_transpose(values[sampled] * grid.weights)
        lap_pairs = weight.reshape(n, -1) @ lap_terms.reshape(len(pots), -1).T
        weight *= vw
    mass_pairs = weight.reshape(n, -1) @ values.reshape(len(pots), -1).T
    return float(S_WEIGHTS @ (k * scale * np.sum(rate.T * (k * mass_pairs + lap_pairs), axis=1)))


def i_sigma_k(
    pot_or_paths,
    k: int,
    lift: AutomorphismLift | None = None,
    path: PathInPotentials | list[PathInPotentials] | None = None,
) -> float:
    """Twisted Aubin energy: the integral of its differential from 0.

    The default path is the straight segment s -> s phi, on which the
    identity twist takes the closed form k(k+1) E(phi), read on the grid's
    radial factor when phi is circle-invariant.  Otherwise each leg
    of the path, or of a supplied path or list of legs, is integrated by
    the path rule; the cocycle property makes leg sums meaningful.  At the
    identity twist the one-form is exact and the value is path independent
    to quadrature accuracy; a nontrivial twist carries a second-order
    closedness defect, reported by the path-independence experiment.
    """
    lift = lift_at_degree(k, lift)
    if path is None:
        if not isinstance(pot_or_paths, Potential):
            raise KQuantError("need a potential or an explicit path")
        pot = pot_or_paths
        if lift.is_identity:  # the density is affine along the segment: positive at its end, positive on it
            pot = radial_twin(pot) if pot.invariant else pot
            md = metric_data(pot)
            return float(k * (k + 1) * 0.5 * (pot.grid.integrate(pot.values) + md.integrate(pot.values)))
        path = linear_path(pot)
    legs = path if isinstance(path, list) else [path]
    return float(sum(_leg_integral(leg, k, lift) for leg in legs))


def l_sigma_k(pot: Potential, k: int, lift: AutomorphismLift | None = None) -> float:
    """Quantized twisted energy on potentials: i_k o hilb + twisted Aubin."""
    return i_k(hilb(pot, k), pot.grid) + i_sigma_k(pot, k, lift)


def z_sigma_k(form: HermForm, grid, lift: AutomorphismLift | None = None) -> float:
    """Quantized twisted energy on forms: I o fs + i_k.

    The embedding potential is normalized with the 1/N_k inside its log, so
    the k log k counterterm of the unnormalized convention is already
    absorbed; with it left in, the energies on the two sides of the
    comparison test would differ by exactly k log k.  Z is invariant under
    rescaling the form.
    """
    return i_sigma_k(fs(form, grid), form.degree, lift) + i_k(form, grid)


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
    return delta_i_sigma(pot, direction, k, lift, md) - float(_pairing(md, direction, bergman(pot, k, md=md).values, k))


# ---------------------------------------------------------------------------
# Classical functionals


def calabi(pot: Potential) -> float:
    """int (S(phi) - 2)^2 d mu_phi; zero exactly at constant curvature."""
    md = metric_data(pot)
    return float(md.integrate((md.scalar - SBAR) ** 2))


def _moment_integral(pot: Potential, integrand: Callable) -> float:
    """int integrand(x, q, G_phi - G_0) dx over the radial nodes of an invariant potential."""
    md = metric_data(pot)  # the density is affine along the segment: positive at its end, positive on it
    grid = pot.grid
    rg, u, g1 = grid.radial, grid.radial.u, md.g1
    density = grid.radial_part(md.density)
    x = u + g1
    q = x * (1.0 - x) / (density * u * (1.0 - u))
    # G_phi - G_0 = x log(u/x) + (1-x) log((1-u)/(1-x)) - phi, with x/u = 1 + g1/u
    dG = -x * np.log1p(g1 / u) - (1.0 - x) * np.log1p(-g1 / (1.0 - u)) - grid.radial_part(pot.values)
    return float(rg.integrate(integrand(x, q, dG), rg.weights * density))


def mabuchi_energy(pot: Potential) -> float:
    """K-energy: primitive of eta -> -int eta (S - 2) d mu_phi, zero at 0; off the
    invariant slice, the path integral along the straight segment from 0."""
    if pot.invariant:
        return _moment_integral(pot, lambda x, q, dG: q - 1.0 - np.log(q))

    def one_form(p: Potential, vel: np.ndarray) -> np.ndarray:
        md = metric_data(p)
        return md.integrate(vel * -(md.scalar - SBAR))

    return _path_integral(linear_path(pot), one_form)


def moment_energy(pot: Potential, V: VectorFieldSpec) -> float:
    """Primitive of eta -> +int eta theta_V(phi) d mu_phi (moment-weighted energy)."""
    if V.is_zero:
        return 0.0
    if not pot.invariant:
        raise KQuantError("the moment energy needs circle-invariant input")
    c = V.strength / (2.0 * np.pi)  # theta_V = c (x - 1/2) in the moment coordinate
    return _moment_integral(pot, lambda x, q, dG: -dG * c * (x - 0.5))


def extremal_field(group: VectorFieldSpec, grid) -> VectorFieldSpec:
    """The extremal field X = c V of the group generated by V; zero if V is.

    c = int S theta_V d mu / int theta_V^2 d mu makes theta_X the L^2
    projection of S onto the span of theta_V.  By Futaki-Mabuchi neither
    integral depends on the invariant potential, so both are read at 0 on
    the radial rule, where d mu = du and theta_V is the strength
    (u - mean)/(2 pi).  theta_V has mean 0, so the numerator is the Futaki
    invariant int (S - SBAR) theta_V d mu, 0.0 exactly since S = SBAR at 0.
    """
    if group.is_zero:
        return group
    rg = grid.radial
    theta = group.strength * rg.u / (2.0 * np.pi)
    theta = theta - rg.integrate(theta, keepdims=True)
    scalar = np.full(rg.shape, SBAR)  # S at 0: the base metric's constant curvature
    c = rg.integrate((scalar - SBAR) * theta) / rg.integrate(theta * theta)
    return VectorFieldSpec(strength=float(c) * group.strength)


def modified_k_energy(pot: Potential, group: VectorFieldSpec) -> float:
    """Modified K-energy K + M_X, primitive of eta -> -int eta (S - 2 - theta_X) d mu_phi.

    X is the extremal field of the group.  A circle group needs invariant
    input, refused before any work, even where X is zero and M_X is skipped.
    """
    if not (group.is_zero or pot.invariant):
        raise KQuantError("the modified K-energy of a circle group needs circle-invariant input")
    return moment_energy(pot, extremal_field(group, pot.grid)) + mabuchi_energy(pot)


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


def z_second_derivative_fd(geo: GeodesicInB, grid, lift: AutomorphismLift | None = None) -> float:
    """Central second difference of Z, step 0.05, at the geodesic's midpoint."""
    s, h = 0.5, 0.05
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
    lift = lift_at_degree(k, lift)
    md = metric_data(pot_star)
    H_star = hilb(pot_star, k, md=md)
    H = hilb(pot, k)
    geo = bk_geodesic(H_star, H)
    grid = pot.grid
    ratio = 0.5 * grid.geodesic_slope(geo, 0.0)  # sum lam |tau|^2 / sum |tau|^2
    epsi = psi_potential(lift, pot_star, md=md).exp()
    slope = float(2.0 * np.sum(geo.lambdas) - 2.0 * _pairing(md, ratio, epsi, k))
    bound = float(np.max(np.abs(geo.lambdas)) / k)
    return slope, bound
