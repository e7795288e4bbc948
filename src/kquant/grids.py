"""Quadrature grids and spectral calculus on the round sphere model.

All integrals are taken against the unit-volume base measure.  In the affine
chart z the base volume form pushes down to du dtheta/(2 pi) in the
compactified radial coordinate u = |z|^2/(1+|z|^2), so the radial direction
uses Gauss-Legendre nodes on (0, 1) and the angle a uniform periodic rule.
Radial fields are differentiated spectrally through the barycentric
differentiation matrix of the Gauss-Legendre nodes; angular derivatives use
the FFT.  Fields with odd angular frequency carry half-integer powers of
the radial coordinate, so their pointwise derivatives near the pole u = 1
are only approximate (the vanishing local coefficient keeps all weighted
integrals accurate); invariant and even-frequency fields resolve to
roundoff.

The two grid classes share one set of methods (field shape, broadcasting of
radial profiles, base Laplacian and gradient pairing, rotation, Gram forms
and their contractions), so this module is the only one that knows which
kind of grid it holds.  A radial grid holds its Gram forms as the
log-diagonal log h_j in the monomial basis and contracts them by
log-sum-exp, with no matrix factorization and no overflow at high degree;
the full 2D grid holds dense P^dagger P forms and contracts them through a
Cholesky factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "RadialGrid",
    "Full2DGrid",
    "build_grid",
    "check_grid",
    "gauss_legendre_01",
    "barycentric_weights",
    "diff_matrix",
    "interp_matrix",
]

MIN_RESOLUTION = 8


class KQuantError(ValueError):
    pass


class GridError(KQuantError):
    pass


class NotPositiveDefiniteError(KQuantError):
    pass


def gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def barycentric_weights(x: np.ndarray) -> np.ndarray:
    """Barycentric weights of the nodes x, capacity-scaled for stability."""
    n = len(x)
    # 4/(b-a) capacity scaling keeps the pairwise products in double range.
    scale = 4.0 / (x.max() - x.min())
    w = np.ones(n)
    for i in range(n):
        d = scale * (x[i] - x)
        d[i] = 1.0
        w[i] = 1.0 / np.prod(d)
    return w / np.abs(w).max()


def diff_matrix(x: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """Spectral differentiation matrix on arbitrary nodes x."""
    if w is None:
        w = barycentric_weights(x)
    n = len(x)
    D = np.zeros((n, n))
    for i in range(n):
        d = x[i] - x
        d[i] = np.inf
        D[i, :] = (w / w[i]) / d
        D[i, i] = -D[i, :].sum()
    return D


def interp_matrix(x: np.ndarray, w: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Barycentric interpolation matrix sending values at x to values at targets.

    A target that coincides with a node gets the unit row of its first hit.
    """
    P = np.subtract.outer(targets, x)
    hit = P == 0.0
    P[hit] = 1.0
    np.divide(w, P, out=P)
    P /= P.sum(axis=1, keepdims=True)
    rows = np.nonzero(hit.any(axis=1))[0]
    P[rows] = 0.0
    P[rows, hit[rows].argmax(axis=1)] = 1.0
    return P


@dataclass(frozen=True)
class RadialGrid:
    """Radial fast path for circle-invariant data.

    Fields live on the compactified radial coordinate u in (0, 1); rho = |z|^2
    is u/(1-u).  ``weights`` integrate against the base volume form, which is
    exactly du on the u-interval.
    """

    u: np.ndarray
    weights: np.ndarray
    resolution: int

    mode = "radial"

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.resolution,)

    @property
    def radial(self) -> "RadialGrid":
        """The radial factor of the grid: the grid itself."""
        return self

    @property
    def header(self) -> dict:
        return {"mode": self.mode, "resolution": self.resolution}

    @cached_property
    def rho(self) -> np.ndarray:
        return self.u / (1.0 - self.u)

    @cached_property
    def bary(self) -> np.ndarray:
        return barycentric_weights(self.u)

    @cached_property
    def D(self) -> np.ndarray:
        return diff_matrix(self.u, self.bary)

    def integrate(self, values: np.ndarray, weights: np.ndarray | None = None) -> float:
        w = self.weights if weights is None else weights
        return float(np.dot(w, values))

    def d_drho(self, values: np.ndarray) -> np.ndarray:
        return (1.0 - self.u) ** 2 * (self.D @ values)

    def ddbar(self, values: np.ndarray) -> np.ndarray:
        """Mixed chart derivative d_z d_zbar of a radial field: (rho f')'."""
        f_rho = self.d_drho(values)
        return self.d_drho(self.rho * f_rho)

    def broadcast(self, radial_values: np.ndarray) -> np.ndarray:
        """The field of a radial profile."""
        return radial_values

    def radial_part(self, values: np.ndarray) -> np.ndarray:
        """The radial profile of a circle-invariant field."""
        return values

    def base_laplace(self, values: np.ndarray) -> np.ndarray:
        """Delta_0 f = -(d_z d_zbar f)/A_0 = -(u (1-u) f_u)_u.

        The base factor (1-u)^2 cancels analytically, which keeps the
        operator accurate at the outermost nodes.
        """
        return -(self.D @ (self.u * (1.0 - self.u) * (self.D @ values)))

    def base_inner_grad(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """(d_z f, d_z g)/A_0 = u (1-u) f_u g_u for radial real fields."""
        return self.u * (1.0 - self.u) * (self.D @ f) * (self.D @ g)

    def rotate(self, values: np.ndarray, angle: float) -> np.ndarray:
        """Rotation of the chart by ``angle``; radial fields do not move."""
        return values

    def log_section_norms(self, k: int) -> np.ndarray:
        """log |s_j|^2 = j log u + (k-j) log(1-u) at the nodes, shape (n_u, k+1)."""
        j = np.arange(k + 1)
        return j[None, :] * np.log(self.u)[:, None] + (k - j)[None, :] * np.log1p(-self.u)[:, None]

    def _peak_sections(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(|s_j|^2 / max_u |s_j|^2 at the nodes, log max_u |s_j|^2).

        The maximum of u^j (1-u)^{k-j} sits at u = j/k, so every table entry
        lies in [0, 1] and sums over either index stay in double range.
        """
        j = np.arange(1, k)
        peak = np.zeros(k + 1)
        peak[1:k] = j * np.log(j / k) + (k - j) * np.log1p(-j / k)
        return np.exp(self.log_section_norms(k) - peak), peak

    def _contract(self, k: int, log_h: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """(table, terms, shift) with sum_j |s_j|^2 / h_j e^{-shift} = table @ terms."""
        table, peak = self._peak_sections(k)
        g = peak - log_h
        shift = float(np.max(g))
        return table, np.exp(g - shift), shift

    def _log_diagonal(self, form) -> np.ndarray:
        """log h_j of a form contracted here; a dense form is checked and converted.

        Circle-invariant weights pair only equal monomials, so a form this grid
        can contract is diagonal in the monomial basis.
        """
        if form.log_diag is not None:
            return form.log_diag
        diag = np.diagonal(form.entries)
        if np.max(np.abs(form.entries - np.diag(diag))) > 1e-10 * np.max(np.abs(diag)):
            raise KQuantError(
                "non-diagonal form contracted against a radial grid; "
                "use the full 2D grid for non-invariant data"
            )
        if not np.all(diag.real > 0.0):
            raise NotPositiveDefiniteError("form is not positive definite")
        return np.log(diag.real)

    def gram(self, k: int, weight: np.ndarray) -> tuple[None, np.ndarray]:
        """(None, log h_j) with h_j = sum_nodes weight |s_j|^2.

        Radial weights kill every pairing of distinct monomials, so the form
        is its diagonal.
        """
        table, peak = self._peak_sections(k)
        return None, peak + np.log(weight @ table)

    def log_density(self, form) -> np.ndarray:
        """log sum_j |s_j|^2 / h_j at the nodes: the contraction with H^{-1}."""
        table, terms, shift = self._contract(form.degree, self._log_diagonal(form))
        return shift + np.log(table @ terms)

    def geodesic_slope(self, geo, s: float) -> np.ndarray:
        """sum_j 2 lam_j |s_j|^2 / h_j(s) over sum_j |s_j|^2 / h_j(s) at the nodes.

        Between diagonal forms log h_j(s) = log h0_j + 2 lam_j s with
        2 lam = log h1 - log h0; dense endpoints are checked and converted.
        """
        log_h0 = self._log_diagonal(geo.H0)
        rate = self._log_diagonal(geo.H1) - log_h0
        table, terms, _ = self._contract(geo.degree, log_h0 + rate * s)
        return (table @ (rate * terms)) / (table @ terms)

    def log_det(self, form) -> float:
        return float(np.sum(self._log_diagonal(form)))


@dataclass(frozen=True)
class Full2DGrid:
    """Product grid Gauss-Legendre (radial) x uniform periodic (angle).

    Nodes are z = sqrt(rho) e^{i theta}; one affine chart covers the model up
    to a point of measure zero, which quadrature never sees.  Radial
    operations delegate to the radial factor ``radial``.
    """

    u: np.ndarray
    wu: np.ndarray
    theta: np.ndarray
    resolution: int
    n_theta: int

    mode = "full2d"

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.resolution, self.n_theta)

    @cached_property
    def radial(self) -> RadialGrid:
        return RadialGrid(u=self.u, weights=self.wu, resolution=self.resolution)

    @property
    def header(self) -> dict:
        return {"mode": self.mode, "resolution": self.resolution, "n_theta": self.n_theta}

    @cached_property
    def weights(self) -> np.ndarray:
        return np.repeat(self.wu[:, None] / self.n_theta, self.n_theta, axis=1)

    @cached_property
    def _m(self) -> np.ndarray:
        return np.fft.fftfreq(self.n_theta, d=1.0 / self.n_theta)

    @cached_property
    def _a0(self) -> np.ndarray:
        return ((1.0 - self.u) ** 2)[:, None]

    def integrate(self, values: np.ndarray, weights: np.ndarray | None = None) -> float:
        w = self.weights if weights is None else weights
        return float(np.sum(w * values))

    def d_drho(self, values: np.ndarray) -> np.ndarray:
        return self._a0 * (self.radial.D @ values)

    def d_dtheta(self, values: np.ndarray) -> np.ndarray:
        spec = np.fft.fft(values, axis=1)
        return np.real(np.fft.ifft(1j * self._m[None, :] * spec, axis=1))

    def ddbar(self, values: np.ndarray) -> np.ndarray:
        """d_z d_zbar f = (rho f_rho)_rho + f_theta_theta / (4 rho)."""
        spec = np.fft.fft(values, axis=1)
        rho = self.radial.rho[:, None]
        radial = self.d_drho(rho * self.d_drho(spec))
        angular = -(self._m[None, :] ** 2) * spec / (4.0 * rho)
        return np.real(np.fft.ifft(radial + angular, axis=1))

    def broadcast(self, radial_values: np.ndarray) -> np.ndarray:
        return np.repeat(radial_values[:, None], self.n_theta, axis=1)

    def radial_part(self, values: np.ndarray) -> np.ndarray:
        return values[:, 0]

    def base_laplace(self, values: np.ndarray) -> np.ndarray:
        """Delta_0 f = -(d_z d_zbar f)/A_0."""
        return -self.ddbar(values) / self._a0

    def base_inner_grad(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """(d_z f, d_z g)/A_0 = (rho f_rho g_rho + f_theta g_theta/(4 rho))/A_0."""
        rho = self.radial.rho[:, None]
        fr, gr = self.d_drho(f), self.d_drho(g)
        ft, gt = self.d_dtheta(f), self.d_dtheta(g)
        return (rho * fr * gr + ft * gt / (4.0 * rho)) / self._a0

    def rotate(self, values: np.ndarray, angle: float) -> np.ndarray:
        """Values of f(e^{i angle} z), through the angular spectrum."""
        if angle == 0.0:
            return values
        spec = np.fft.fft(values, axis=1)
        return np.real(np.fft.ifft(spec * np.exp(1j * self._m * angle)[None, :], axis=1))

    def _sections(self, k: int) -> np.ndarray:
        """s_j(z) weighted by the base half-norm: z^j (1+rho)^{-k/2}, flattened.

        Magnitudes are u^{j/2} (1-u)^{(k-j)/2} <= 1, so the table stays in range
        for any degree.
        """
        mag = np.exp(0.5 * self.radial.log_section_norms(k))  # (n_u, k+1)
        phase = np.exp(1j * self.theta[:, None] * np.arange(k + 1)[None, :])  # (n_theta, k+1)
        return (mag[:, None, :] * phase[None, :, :]).reshape(-1, k + 1)

    def gram(self, k: int, weight: np.ndarray) -> tuple[np.ndarray, None]:
        """(sum_nodes weight (s_a, s_b), None), assembled as P^dagger P (Hermitian PSD)."""
        P = self._sections(k) * np.sqrt(weight.ravel())[:, None]
        return P.conj().T @ P, None

    def section_table(self, k: int, coeffs: np.ndarray) -> np.ndarray:
        """|tau_a|^2 at the nodes for tau_a = sum_j coeffs[j, a] s_j, shape (n_u, n_theta, N)."""
        B = self._sections(k) @ coeffs
        return (np.abs(B) ** 2).reshape(self.shape + (coeffs.shape[1],))

    def log_density(self, form) -> np.ndarray:
        """log sum_{ab} (H^{-1})_{ba} (s_a, s_b) at the nodes.

        With H = L L^dagger the columns of L^{-dagger} are an H-orthonormal
        basis, whose squared norms sum to the contraction.
        """
        Linv = np.linalg.inv(form.cholesky())
        return np.log(self.section_table(form.degree, Linv.conj().T).sum(axis=-1))

    def geodesic_slope(self, geo, s: float) -> np.ndarray:
        """sum_a 2 lam_a e^{-2 lam_a s}|tau_a|^2 over sum_a e^{-2 lam_a s}|tau_a|^2 at the nodes.

        A geodesic between diagonal forms has monomial tau_a, whose norms
        carry no angle.
        """
        if geo.coeffs is None:
            return self.broadcast(self.radial.geodesic_slope(geo, s))
        tau_sq = self.section_table(geo.degree, geo.coeffs)
        w = np.exp(-2.0 * geo.lambdas * s)
        return (tau_sq @ (2.0 * geo.lambdas * w)) / (tau_sq @ w)

    def log_det(self, form) -> float:
        sign, logdet = np.linalg.slogdet(form.entries)
        if sign.real <= 0:
            raise NotPositiveDefiniteError("form must be positive definite")
        return float(logdet)


def check_grid(mode: str, resolution: int, n_theta: int, degree: int) -> None:
    """Raise GridError unless the grid exists and resolves degree-``degree`` sections.

    Section pairings (s_a, s_b) carry the angular frequency a - b, up to the
    degree, so a full2d grid needs more angular nodes than the degree or the
    Gram form aliases.
    """
    if mode not in ("radial", "full2d"):
        raise GridError(f"unknown grid mode {mode!r}; choices: radial, full2d")
    if resolution < MIN_RESOLUTION:
        raise GridError(f"resolution {resolution} below minimum {MIN_RESOLUTION}")
    if n_theta < MIN_RESOLUTION:
        raise GridError(f"n_theta {n_theta} below minimum {MIN_RESOLUTION}")
    if mode == "full2d" and degree >= n_theta:
        raise GridError(
            f"degree {degree} aliases on {n_theta} angular nodes; n_theta must exceed the degree"
        )


def build_grid(mode: str, resolution: int, n_theta: int = 64):
    """Build a quadrature grid.

    Parameters
    ----------
    mode : "radial" or "full2d"
    resolution : number of radial Gauss-Legendre nodes, at least 8.
    n_theta : angular nodes for the full2d mode (at least 8, power of two
        recommended).
    """
    check_grid(mode, resolution, n_theta, 0)
    u, w = gauss_legendre_01(resolution)
    if mode == "radial":
        return RadialGrid(u=u, weights=w, resolution=resolution)
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    return Full2DGrid(u=u, wu=w, theta=theta, resolution=resolution, n_theta=n_theta)
