"""Potential calculus on the round sphere model with fixed conventions.

Convention sheet.  The base form is omega_0 = (i/2pi) ddbar log(1+|z|^2),
normalized so the total volume is exactly 1 and the scalar curvature of the
base metric is the constant 2.  A potential phi deforms the metric through
omega_phi = omega_0 + (i/2pi) ddbar phi; writing omega_phi =
(i/2pi) A_phi dz wedge dzbar, the local coefficient is

    A_phi = (1+rho)^{-2} + d_z d_zbar phi,     rho = |z|^2,

and in the compactified coordinate u = rho/(1+rho)

    A_phi = (1-u)^2 * (1 + d/du[ u (1-u) phi_u ]).

The complex Laplacian is Delta_phi = -(1/A_phi) d_z d_zbar, the scalar
curvature S(phi) = Delta_phi log A_phi, and the volume form d mu_phi has
density A_phi/A_0 against the base measure.  The base contribution to
log A_phi is differentiated in closed form so that S(0) == 2 holds to
machine precision; only the potential part is touched by spectral
differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as P

from .grids import Full2DGrid, KQuantError, RadialGrid, build_grid, interp_matrix

__all__ = [
    "SBAR",
    "VOLUME",
    "sections_dim",
    "KQuantError",
    "NonKahlerError",
    "Potential",
    "zero_potential",
    "potential_from_radial_coeffs",
    "potential_from_values",
    "load_potential",
    "save_potential",
    "MetricData",
    "metric_data",
    "VectorFieldSpec",
    "rotation_field",
    "holomorphy_potential",
    "AutomorphismLift",
    "identity_lift",
    "sigma_lift",
    "TWIST_RATE_DEFAULT",
]

VOLUME = 1.0
SBAR = 2.0

# Calibrated time normalization of the degree-k twist flow: sigma_k is the
# time-one flow of -(c0/k) V.  With the rotation-moment normalization used
# here the exponent is -c0/(2 pi k), i.e. a chart dilation by e^{1/(4k)}.
TWIST_RATE_DEFAULT = -np.pi / 2.0


def sections_dim(k: int) -> int:
    """Dimension of the degree-k section space: k + 1."""
    return k + 1


class NonKahlerError(KQuantError):
    """Raised when a potential fails pointwise positivity of its form."""


@dataclass(frozen=True)
class Potential:
    """A Kahler potential sampled on a quadrature grid.

    ``values`` has shape (n_u,) on a radial grid and (n_u, n_theta) on the
    full 2D grid, after any leading batch axes: a block of potentials, such
    as a path at all its quadrature nodes, is one Potential.  ``invariant``
    marks circle-invariant data (always true in radial mode).  ``profile``
    optionally carries the exact u-polynomial (constant, degree-1-and-up
    coefficients, each a number or an array of the batch shape) the values
    were sampled from; derived metric quantities then use exact polynomial
    derivatives on the radial nodes of either grid instead of spectral
    differentiation, which matters for sup-norm tests near the pole u = 1.
    """

    grid: RadialGrid | Full2DGrid
    values: np.ndarray
    invariant: bool = True
    profile: tuple[float, tuple[float, ...]] | None = None

    def __post_init__(self):
        if self.values.shape[-len(self.grid.shape) :] != self.grid.shape:
            raise KQuantError(
                f"potential values shape {self.values.shape} does not match grid {self.grid.shape}"
            )

    def with_values(self, values: np.ndarray, invariant: bool | None = None) -> "Potential":
        inv = self.invariant if invariant is None else invariant
        return Potential(self.grid, values, inv)

    def scaled(self, t: float) -> "Potential":
        prof = None
        if self.profile is not None:
            c0, cs = self.profile
            prof = (t * c0, tuple(t * c for c in cs))
        return Potential(self.grid, t * self.values, self.invariant, prof)

    def shifted(self, c: float) -> "Potential":
        """Add a constant; the metric is unchanged, the Gram form rescales."""
        prof = None
        if self.profile is not None:
            c0, cs = self.profile
            prof = (c0 + c, cs)
        return Potential(self.grid, self.values + c, self.invariant, prof)

    def mean_normalized(self) -> "Potential":
        """Subtract the base-measure mean; fixes additive gauge."""
        return self.shifted(-self.grid.integrate(self.values))

    @cached_property
    def _exact_fields(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """g1, density and curvature on the radial nodes from the exact profile, or None."""
        return None if self.profile is None else _profile_fields(self.grid.u, self.profile)


def zero_potential(grid) -> Potential:
    return Potential(grid, np.zeros(grid.shape), profile=(0.0, ()))


def potential_from_radial_coeffs(grid, coeffs) -> Potential:
    """phi = sum_m c_m u^m with u = rho/(1+rho); invariant by construction."""
    coeffs = np.asarray(coeffs, dtype=float)
    vals = np.zeros_like(grid.u)
    for m, c in enumerate(coeffs, start=1):
        vals = vals + c * grid.u**m
    prof = (0.0, tuple(float(c) for c in coeffs))
    return Potential(grid, grid.broadcast(vals), profile=prof)


def potential_from_values(grid, values, invariant: bool | None = None) -> Potential:
    values = np.asarray(values, dtype=float)
    if invariant is None:
        invariant = bool(np.allclose(values, grid.broadcast(grid.radial_part(values))))
    return Potential(grid, values, invariant)


def save_potential(path, pot: Potential) -> None:
    lines = [f"{key}: {value}" for key, value in pot.grid.header.items()]
    lines.append("values: " + " ".join(f"{v:.17g}" for v in np.ravel(pot.values)))
    Path(path).write_text("\n".join(lines) + "\n")


def load_potential(path, grid=None) -> Potential:
    """Load a potential from the text format.

    Two layouts are accepted: radial coefficients ``coeffs: c1 c2 ...`` for
    phi = sum c_m u^m, or raw node samples with a grid header (mode,
    resolution, optional n_theta, then a ``values:`` line).
    """
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise KQuantError(f"cannot read potential file: {err}") from None
    fields = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(":")
        fields[key.strip().lower()] = rest.strip()
    try:
        if "coeffs" in fields:
            if grid is None:
                raise KQuantError("coefficient potentials need a target grid")
            return potential_from_radial_coeffs(grid, [float(t) for t in fields["coeffs"].split()])
        mode = fields["mode"]
        resolution = int(fields["resolution"])
        raw = np.array([float(t) for t in fields["values"].split()])
        if grid is None:
            grid = build_grid(mode, resolution, int(fields.get("n_theta", 64)))
    except KQuantError:
        raise
    except KeyError as missing:
        raise KQuantError(f"potential file missing field {missing}") from None
    except ValueError as err:
        raise KQuantError(f"potential file has a non-numeric entry: {err}") from None
    if grid.mode != mode or grid.resolution != resolution:
        raise KQuantError("potential file header does not match the supplied grid")
    if raw.size != np.prod(grid.shape):
        raise KQuantError(
            f"potential file has {raw.size} values; grid shape {grid.shape} needs {np.prod(grid.shape)}"
        )
    return Potential(grid, raw.reshape(grid.shape))


# ---------------------------------------------------------------------------
# Metric data


def _profile_fields(u: np.ndarray, profile) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact g1, density and scalar curvature of a u-polynomial potential.

    With g1 = u(1-u) phi_u (so that rho F' = u + g1) the density is 1 + g1'
    and the curvature is (2 dens^2 - W' dens + W dens') / dens^3 for
    W = u(1-u) dens', all exact polynomial arithmetic.  Coefficients of a
    block give fields of shape batch + (n_u,).
    """

    def der(c):  # numpy's polyder along the first axis, without its per-call overhead
        n = np.arange(1.0, len(c)).reshape((-1,) + (1,) * (c.ndim - 1))
        return n * c[1:] if len(c) > 1 else 0.0 * c[:1]

    def times_uu(c):  # product with u(1-u), the convolution with (0, 1, -1)
        out = np.zeros((len(c) + 2,) + c.shape[1:])
        out[1:-1] = c
        out[2:] -= c
        return out

    c0, cs = profile
    coeffs = np.array(np.broadcast_arrays(c0, *cs), dtype=float)
    g1 = times_uu(der(coeffs))
    dens_c = der(g1)
    dens_c[0] += 1.0
    ddens_c = der(dens_c)
    W = times_uu(ddens_c)
    # One Horner pass each, so a block holds one set of intermediates at a time.
    g1v, dens, ddens, Wv, dWv = (P.polyval(u, c) for c in (g1, dens_c, ddens_c, W, der(W)))
    scalar = (2.0 * dens**2 - dWv * dens + Wv * ddens) / dens**3
    return g1v, dens, scalar


@dataclass(frozen=True)
class MetricData:
    """Derived metric quantities of an admissible potential (or block of them).

    ``density`` is A_phi/A_0, ``volume_weights`` are quadrature weights for
    d mu_phi, and ``scalar`` the scalar curvature field, computed on first
    read.  The Laplacian and gradient pairing close over the same density so
    the integration-by-parts identities hold exactly at the discrete level
    up to quadrature error.
    """

    potential: Potential
    density: np.ndarray
    volume_weights: np.ndarray

    @property
    def grid(self):
        return self.potential.grid

    @cached_property
    def scalar(self) -> np.ndarray:
        """S(phi); a profile's comes from exact polynomial arithmetic.

        Otherwise log A = log A0 + log(density), and the base part has the
        closed-form mixed derivative -2 A0, so S(0) == 2 exactly.
        """
        exact = self.potential._exact_fields
        if exact is not None:
            return self.grid.broadcast(exact[2])
        return (2.0 + self.grid.base_laplace(np.log(self.density))) / self.density

    def laplace(self, values: np.ndarray) -> np.ndarray:
        """Delta_phi f = -(d_z d_zbar f) / A_phi = Delta_0 f / density."""
        out = self.grid.base_laplace(values)
        out /= self.density
        return out

    def inner_grad(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """(nabla f, nabla g) with norm |nabla f|^2 = |d_z f|^2 / A_phi."""
        return self.grid.base_inner_grad(f, g) / self.density

    def grad_norm_sq(self, f: np.ndarray) -> np.ndarray:
        """Riemannian |df|^2 = 2 |d_z f|^2 / A_phi."""
        return 2.0 * self.inner_grad(f, f)

    def integrate(self, values: np.ndarray, keepdims: bool = False):
        return self.grid.integrate(values, self.volume_weights, keepdims)


def metric_data(pot: Potential) -> MetricData:
    """Assemble MetricData; rejects non-Kahler input (A_phi <= 0 anywhere).

    A potential with a u-polynomial profile gets its density from exact
    polynomial arithmetic on the radial nodes.
    """
    grid = pot.grid
    exact = pot._exact_fields
    density = 1.0 - grid.base_laplace(pot.values) if exact is None else grid.broadcast(exact[1])
    if np.min(density) <= 0.0:
        raise NonKahlerError(
            f"potential not Kahler: min density {np.min(density):.3e} <= 0"
        )
    return MetricData(potential=pot, density=density, volume_weights=grid.weights * density)


# ---------------------------------------------------------------------------
# Holomorphic vector fields and their potentials


@dataclass(frozen=True)
class VectorFieldSpec:
    """A gradient holomorphic field of the model.

    ``strength`` scales the standard generator: the gradient of the rotation
    moment (u - 1/2)/(2 pi), whose chart flow is the real dilation
    z -> e^{strength t/(2 pi)} z.
    """

    strength: float = 1.0

    @property
    def is_zero(self) -> bool:
        return self.strength == 0.0

    def flow_scale(self, time: float) -> float:
        """Chart dilation factor of the time-``time`` flow of the field."""
        return float(np.exp(self.strength * time / (2.0 * np.pi)))


def rotation_field(strength: float = 1.0) -> VectorFieldSpec:
    return VectorFieldSpec(strength=strength)


def holomorphy_potential(V: VectorFieldSpec, pot: Potential, md: MetricData | None = None) -> np.ndarray:
    """Mean-zero potential theta with g_phi(V, .) = d theta.

    theta(phi) = strength * [rho F'/(2 pi) - mean] with F = log(1+rho) + phi,
    the mean taken against d mu_phi; ``md`` is the metric data of ``pot``.
    """
    grid = pot.grid
    if not pot.invariant:
        raise KQuantError("holomorphy potentials need circle-invariant input")
    md = metric_data(pot) if md is None else md
    if V.is_zero:
        return np.zeros_like(pot.values)
    rg = grid.radial
    u = rg.u
    exact = pot._exact_fields
    g1 = u * (1.0 - u) * rg.apply_radial(rg.D, grid.radial_part(pot.values)) if exact is None else exact[0]
    theta = V.strength * (u + g1) / (2.0 * np.pi)
    mdw = rg.weights * grid.radial_part(md.density)
    return grid.broadcast(theta - rg.integrate(theta, mdw, keepdims=True))


# ---------------------------------------------------------------------------
# Automorphism lifts


@dataclass(frozen=True)
class AutomorphismLift:
    """A linear automorphism z -> scale * z with its degree-k section action.

    The section action on the monomial basis is diag(scale^j); composing
    lifts multiplies the scales, so the one-parameter group law is exact.
    ``base_potential`` is the closed-form c with sigma^* omega_0 = omega_0
    + (i/2pi) ddbar c.  ``compose_potential`` keeps the interpolation matrix
    of the last grid it composed on, so a path of potentials on one grid
    builds it once.
    """

    scale: complex
    degree: int

    @property
    def is_identity(self) -> bool:
        return self.scale == 1.0

    def inverse(self) -> "AutomorphismLift":
        return AutomorphismLift(scale=1.0 / self.scale, degree=self.degree)

    def compose(self, other: "AutomorphismLift") -> "AutomorphismLift":
        if self.degree != other.degree:
            raise KQuantError("cannot compose lifts of different degrees")
        return AutomorphismLift(scale=self.scale * other.scale, degree=self.degree)

    def pulled_u(self, grid) -> np.ndarray:
        """u-coordinate of sigma(z) at the grid nodes."""
        lam2 = abs(self.scale) ** 2
        return lam2 * grid.u / (1.0 - grid.u + lam2 * grid.u)

    def base_potential(self, grid) -> np.ndarray:
        """c_sigma = log((1 + |scale|^2 rho)/(1 + rho)), in closed form."""
        lam2 = abs(self.scale) ** 2
        return grid.broadcast(np.log1p((lam2 - 1.0) * grid.u))

    @cached_property
    def _pullback(self) -> list:
        """[grid, matrix]: the interpolation onto the pulled-back radii of the
        last grid composed on.  One slot, so a lift holds one matrix at most."""
        return [None, None]

    def compose_potential(self, pot: Potential) -> np.ndarray:
        """Values of phi(sigma(z)) at the grid nodes: interpolate at |sigma(z)|, then rotate."""
        if self.is_identity:
            return pot.values
        grid = pot.grid
        slot = self._pullback
        if slot[0] is not grid:
            rg = grid.radial
            slot[:] = grid, interp_matrix(rg.u, rg.bary, self.pulled_u(rg))
        return grid.rotate(grid.apply_radial(slot[1], pot.values), float(np.angle(self.scale)))

    def pullback_potential(self, pot: Potential, normalize: bool = False) -> Potential:
        """Potential of sigma^* omega_phi: c_sigma + phi o sigma."""
        vals = self.base_potential(pot.grid) + self.compose_potential(pot)
        out = pot.with_values(vals)
        return out.mean_normalized() if normalize else out


def identity_lift(k: int) -> AutomorphismLift:
    return AutomorphismLift(scale=1.0, degree=k)


def sigma_lift(V: VectorFieldSpec, k: int) -> AutomorphismLift:
    """Degree-k twist automorphism: the time-one flow of -(c0/k) V.

    For the standard generator the point map is the dilation
    z -> exp(-c0 strength / (2 pi k)) z, with c0 the calibrated
    TWIST_RATE_DEFAULT = -pi/2, which makes k psi_k converge to
    (theta + 2)/2; see quantize.psi_potential.
    """
    if k < 1:
        raise KQuantError("degree k must be at least 1")
    if V.is_zero:
        return identity_lift(k)
    lam = V.flow_scale(-TWIST_RATE_DEFAULT / k)
    return AutomorphismLift(scale=lam, degree=k)
