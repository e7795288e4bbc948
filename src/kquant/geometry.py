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
from numbers import Real
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
    "radial_twin",
    "load_potential",
    "MetricData",
    "density_field",
    "kahler_density",
    "metric_data",
    "VectorFieldSpec",
    "rotation_field",
    "holomorphy_potential",
    "AutomorphismLift",
    "identity_lift",
    "lift_at_degree",
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
    marks circle-invariant data and is computed: a profile implies it, and
    otherwise the grid's invariance test decides, unless the caller passes
    False to declare the potential non-invariant.  ``profile``
    optionally carries the exact u-polynomial the values were sampled from,
    up to a constant (so only an invariant potential has one): the
    coefficients of u, u^2, ..., one row per power, with the batch shape
    after it.  Derived metric quantities then use exact polynomial
    derivatives on the radial nodes of either grid instead of spectral
    differentiation, which matters near the pole u = 1; none reads the constant.
    """

    grid: RadialGrid | Full2DGrid
    values: np.ndarray
    invariant: bool = True
    profile: np.ndarray | None = None

    def __post_init__(self):
        if self.values.shape[-len(self.grid.shape) :] != self.grid.shape:
            raise KQuantError(
                f"potential values shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if self.profile is not None and not self.invariant:
            raise KQuantError("a potential with a u-polynomial profile is circle-invariant")
        if self.invariant and self.profile is None:
            object.__setattr__(self, "invariant", self.grid.is_invariant(self.values))

    def with_values(self, values: np.ndarray) -> "Potential":
        """A potential on the same grid, flagged by the invariance of ``values``."""
        return potential_from_values(self.grid, values)

    def scaled(self, t: float) -> "Potential":
        prof = None if self.profile is None else t * self.profile
        return Potential(self.grid, t * self.values, self.invariant, prof)

    def shifted(self, c: float) -> "Potential":
        """Add a constant; the metric is unchanged, the Gram form rescales."""
        return Potential(self.grid, self.values + c, self.invariant, self.profile)

    def mean_normalized(self) -> "Potential":
        """Subtract the base-measure mean; fixes additive gauge."""
        return self.shifted(-self.grid.integrate(self.values))


def zero_potential(grid) -> Potential:
    return Potential(grid, np.zeros(grid.shape), profile=np.zeros(0))


def potential_from_radial_coeffs(grid, coeffs) -> Potential:
    """phi = sum_m c_m u^m with u = rho/(1+rho); invariant by construction."""
    coeffs = np.array(coeffs, dtype=float)
    vals = np.zeros_like(grid.u)
    for m, c in enumerate(coeffs, start=1):
        vals = vals + c * grid.u**m
    return Potential(grid, grid.broadcast(vals), profile=coeffs)


def potential_from_values(grid, values, invariant: bool = True) -> Potential:
    """Sampled values; ``invariant=False`` declares them non-invariant, else the grid decides."""
    return Potential(grid, np.asarray(values, dtype=float), invariant)


def radial_twin(pot: Potential) -> Potential:
    """An invariant potential on its grid's radial factor, profile kept; ``pot`` itself on a radial grid."""
    if not pot.invariant:
        raise KQuantError("only a circle-invariant potential lives on the radial factor")
    rg = pot.grid.radial
    return pot if rg is pot.grid else Potential(rg, pot.grid.radial_part(pot.values), profile=pot.profile)


def _finite_numbers(text: str) -> np.ndarray:
    """The numbers of a potential file's line; NaN or infinity is refused."""
    numbers = np.array([float(t) for t in text.split()])
    if not np.all(np.isfinite(numbers)):
        raise KQuantError(f"potential file has a non-finite entry {numbers[~np.isfinite(numbers)][0]}")
    return numbers


def load_potential(path, grid=None) -> Potential:
    """Load a potential from the text format.

    Two layouts are accepted: radial coefficients ``coeffs: c1 c2 ...`` for
    phi = sum c_m u^m, or raw node samples with a grid header (mode,
    resolution, optional n_theta, then a ``values:`` line).  Every declared
    header key must match the grid's header, so a radial file declares no
    n_theta; without a grid, the header builds one.
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
            return potential_from_radial_coeffs(grid, _finite_numbers(fields["coeffs"]))
        header = {"mode": fields["mode"], "resolution": int(fields["resolution"])}
        if "n_theta" in fields:
            header["n_theta"] = int(fields["n_theta"])
        raw = _finite_numbers(fields["values"])
        grid = build_grid(**header) if grid is None else grid
    except KQuantError:
        raise
    except KeyError as missing:
        raise KQuantError(f"potential file missing field {missing}") from None
    except ValueError as err:
        raise KQuantError(f"potential file has a non-numeric entry: {err}") from None
    if {key: grid.header.get(key) for key in header} != header:
        raise KQuantError(f"potential file header {header} does not match the grid's {grid.header}")
    if raw.size != np.prod(grid.shape):
        raise KQuantError(
            f"potential file has {raw.size} values; grid shape {grid.shape} needs {np.prod(grid.shape)}"
        )
    return potential_from_values(grid, raw.reshape(grid.shape))


# ---------------------------------------------------------------------------
# Metric data


def _profile_coeffs(pot: Potential) -> np.ndarray:
    """The profile's coefficients from the constant term up, with a zero constant."""
    return np.concatenate([np.zeros((1,) + pot.profile.shape[1:]), pot.profile])


def _exact_fields(pot: Potential, *which: int) -> list[np.ndarray]:
    """The fields numbered ``which`` of g1, density, density', W, W' on the radial nodes.

    With g1 = u(1-u) phi_u (so that rho F' = u + g1) the density is 1 + g1'
    and the curvature is (2 dens^2 - W' dens + W dens') / dens^3 for
    W = u(1-u) dens', all exact polynomial arithmetic.  Coefficients of a
    block give fields of shape batch + (n_u,); each field is one Horner pass,
    so a block holds one set of intermediates at a time.
    """

    def der(c):  # numpy's polyder along the first axis, without its per-call overhead
        n = np.arange(1.0, len(c)).reshape((-1,) + (1,) * (c.ndim - 1))
        return n * c[1:] if len(c) > 1 else 0.0 * c[:1]

    def times_uu(c):  # product with u(1-u), the convolution with (0, 1, -1)
        out = np.zeros((len(c) + 2,) + c.shape[1:])
        out[1:-1] = c
        out[2:] -= c
        return out

    g1 = times_uu(der(_profile_coeffs(pot)))
    dens_c = der(g1)
    dens_c[0] += 1.0
    ddens_c = der(dens_c)
    W = times_uu(ddens_c)
    polys = g1, dens_c, ddens_c, W, der(W)
    return [P.polyval(pot.grid.u, polys[i]) for i in which]


@dataclass(frozen=True)
class MetricData:
    """Derived metric quantities of an admissible potential (or block of them).

    ``density`` is A_phi/A_0, ``volume_weights`` are quadrature weights for
    d mu_phi, and ``scalar`` and ``g1`` are computed on first read.  Each
    field comes from an exact profile if there is one, else spectrally.  The
    gradient pairing closes over the same density, so the integration-by-parts
    identities hold exactly at the discrete level up to quadrature error.
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
        if self.potential.profile is not None:
            dens, ddens, Wv, dWv = _exact_fields(self.potential, 1, 2, 3, 4)
            return self.grid.broadcast((2.0 * dens**2 - dWv * dens + Wv * ddens) / dens**3)
        return (2.0 + self.grid.base_laplace(np.log(self.density))) / self.density

    @cached_property
    def g1(self) -> np.ndarray:
        """u(1-u) phi_u on the radial nodes of an invariant potential, whose moment coordinate is u + g1."""
        if self.potential.profile is not None:
            return _exact_fields(self.potential, 0)[0]
        rg = self.grid.radial
        return rg.u * (1.0 - rg.u) * rg.apply_radial(rg.D, self.grid.radial_part(self.potential.values))

    def inner_grad(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """(nabla f, nabla g) with norm |nabla f|^2 = |d_z f|^2 / A_phi."""
        return self.grid.base_inner_grad(f, g) / self.density

    def grad_norm_sq(self, f: np.ndarray) -> np.ndarray:
        """Riemannian |df|^2 = 2 |d_z f|^2 / A_phi."""
        return 2.0 * self.inner_grad(f, f)

    def integrate(self, values: np.ndarray, keepdims: bool = False):
        return self.grid.integrate(values, self.volume_weights, keepdims)


def density_field(pot: Potential) -> np.ndarray:
    """1 - Delta_0 phi, unchecked, from the exact profile if there is one: the
    density of d mu_phi when phi is Kahler."""
    grid = pot.grid
    return 1.0 - grid.base_laplace(pot.values) if pot.profile is None else grid.broadcast(_exact_fields(pot, 1)[0])


def kahler_density(density: np.ndarray) -> np.ndarray:
    """The density, refused unless positive at every node (A_phi > 0, so NaN
    is refused); the refusal names the minimum and its index in the field (or block)."""
    worst = np.argmin(density)
    low = density.flat[worst]
    if not low > 0.0:
        node = tuple(int(i) for i in np.unravel_index(worst, density.shape))
        raise NonKahlerError(f"potential not Kahler: min density {low:.3e} <= 0 at index {node}")
    return density


def metric_data(pot: Potential) -> MetricData:
    """Assemble MetricData, with the density of the exact profile if there is one;
    rejects non-Kahler input (A_phi <= 0 anywhere)."""
    density = kahler_density(density_field(pot))
    return MetricData(potential=pot, density=density, volume_weights=pot.grid.weights * density)


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
    theta = V.strength * (rg.u + md.g1) / (2.0 * np.pi)
    mdw = rg.weights * grid.radial_part(md.density)
    return grid.broadcast(theta - rg.integrate(theta, mdw, keepdims=True))


# ---------------------------------------------------------------------------
# Automorphism lifts


@dataclass(frozen=True)
class AutomorphismLift:
    """A dilation z -> scale * z, scale > 0, with its degree-k section action.

    The twist is the flow of a gradient field, so every lift is a real
    dilation; a scale that is not finite and positive, or a degree below 1,
    is refused.  The section action on the monomial basis is diag(scale^j),
    so the product of two scales acts as the product of their actions.
    ``base_potential`` is the closed-form c with sigma^* omega_0 = omega_0
    + (i/2pi) ddbar c.  A potential with an exact profile is pulled back
    through its polynomial at the pulled-back radii; a sampled one is
    interpolated there, and ``compose_potential`` keeps the interpolation
    matrix of the last radial factor it composed on, so a path of sampled
    potentials on one grid, or on a 2D grid and its radial factor, builds it
    once.
    """

    scale: float
    degree: int

    def __post_init__(self):
        if not (isinstance(self.scale, Real) and 0.0 < self.scale < np.inf):
            raise KQuantError(f"a lift scale must be a finite positive real, got {self.scale!r}")
        if self.degree < 1:
            raise KQuantError("degree k must be at least 1")

    @property
    def is_identity(self) -> bool:
        return self.scale == 1.0

    def inverse(self) -> "AutomorphismLift":
        return AutomorphismLift(scale=1.0 / self.scale, degree=self.degree)

    def pulled_u(self, grid) -> np.ndarray:
        """u-coordinate of sigma(z) at the grid nodes."""
        lam2 = self.scale**2
        return lam2 * grid.u / (1.0 - grid.u + lam2 * grid.u)

    def base_potential(self, grid) -> np.ndarray:
        """c_sigma = log((1 + scale^2 rho)/(1 + rho)), in closed form."""
        return grid.broadcast(np.log1p((self.scale**2 - 1.0) * grid.u))

    @cached_property
    def _pullback(self) -> list:
        """[radial grid, matrix]: the interpolation onto the pulled-back radii of
        the last radial factor composed on.  One slot, so a lift holds one
        matrix at most."""
        return [None, None]

    def compose_potential(self, pot: Potential) -> np.ndarray:
        """Values of phi(sigma(z)) at the grid nodes: phi plus the pullback defect
        of an exact profile, else interpolated at |sigma(z)|."""
        if self.is_identity:
            return pot.values
        if pot.profile is not None:
            return pot.values + self.pullback_defect(pot)
        grid, rg = pot.grid, pot.grid.radial
        slot = self._pullback
        if slot[0] is not rg:
            slot[:] = rg, interp_matrix(rg.u, rg.bary, self.pulled_u(rg))
        return grid.apply_radial(slot[1], pot.values)

    def pullback_defect(self, pot: Potential) -> np.ndarray:
        """phi o sigma - phi at the nodes: an exact profile's polynomial at the
        pulled-back u less its value at u, other potentials interpolated by
        compose_potential."""
        if pot.profile is None:
            return self.compose_potential(pot) - pot.values
        rg, coeffs = pot.grid.radial, _profile_coeffs(pot)
        return pot.grid.broadcast(P.polyval(self.pulled_u(rg), coeffs) - P.polyval(rg.u, coeffs))

    def pullback_potential(self, pot: Potential) -> Potential:
        """Potential of sigma^* omega_phi: c_sigma + phi o sigma."""
        return pot.with_values(self.base_potential(pot.grid) + self.compose_potential(pot))


def identity_lift(k: int) -> AutomorphismLift:
    return AutomorphismLift(scale=1.0, degree=k)


def lift_at_degree(k: int, lift: AutomorphismLift | None) -> AutomorphismLift:
    """The lift a degree-k function uses: the identity for None; a lift of another degree is refused."""
    if lift is None:
        return identity_lift(k)
    if lift.degree != k:
        raise KQuantError(f"a lift of degree {lift.degree} cannot act at degree {k}")
    return lift


def sigma_lift(V: VectorFieldSpec, k: int) -> AutomorphismLift:
    """Degree-k twist automorphism: the time-one flow of -(c0/k) V.

    For the standard generator the point map is the dilation
    z -> exp(-c0 strength / (2 pi k)) z, with c0 the calibrated
    TWIST_RATE_DEFAULT = -pi/2, which makes k psi_k converge to
    (theta + 2)/2; see quantize.psi_potential.
    """
    lam = V.flow_scale(-TWIST_RATE_DEFAULT / max(k, 1))  # the lift refuses k < 1
    return AutomorphismLift(scale=lam, degree=k)
