"""Quadrature grids and spectral calculus on the round sphere model.

All integrals are taken against the unit-volume base measure.  In the affine
chart z the base volume form pushes down to du dtheta/(2 pi) in the
compactified radial coordinate u = |z|^2/(1+|z|^2), so the radial direction
uses Gauss-Legendre nodes on (0, 1) and the angle a uniform periodic rule.
The Gauss-Legendre rule comes from Newton's method on the Legendre
recurrence, started at Tricomi's asymptotic roots (Hale and Townsend, SIAM
J. Sci. Comput. 2013): O(n^2) work and no eigensolver.
Radial fields are differentiated spectrally through the barycentric
differentiation matrix of the Gauss-Legendre nodes; angular derivatives are
the FFT's spectral derivatives, applied as real n_theta x n_theta matrices.
Fields with odd angular frequency carry half-integer powers of the radial
coordinate, so their pointwise derivatives near the pole u = 1 are only
approximate (the vanishing local coefficient keeps all weighted integrals
accurate); invariant and even-frequency fields resolve to roundoff.

The two grid classes share one set of methods (field shape, broadcasting of
radial profiles, the invariance test, base Laplacian and gradient pairing,
Gram forms and their contractions), so this module is the only one
that knows which kind of grid it holds.  A radial grid makes its Gram forms
as the log-diagonal log h_j in the monomial basis and contracts them by
log-sum-exp, with no matrix factorization and no overflow at high degree;
it refuses a dense form.  The full 2D grid makes dense forms.  Since
|s_a||s_b| depends only on a + b and the angle enters only as
e^{i(b-a) theta}, it forms and contracts them through a real n_u x (2k+1)
pair table and one angular FFT, never through a table of the sections at
every node; a contraction with H^{-1} goes through a Cholesky factor, which
checks positivity.  The log-determinant is the form's own, so no grid
takes one.

Every field operator also takes a block of fields stacked along leading
axes, as the path rule evaluates all its nodes at once: values of shape
batch + ``shape`` give results of the same leading shape.
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


_GAUSS_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}
# Newton steps from Tricomi's roots: three reach every root to an ulp (two leave 2e-12 at n = 2).
NEWTON_STEPS = 3


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_n(x), P_n'(x)) by the three-term recurrence, updated in place."""
    p0, p1, t = np.ones_like(x), x.copy(), np.empty_like(x)
    for j in range(1, n):  # P_{j+1} = ((2j+1) x P_j - j P_{j-1}) / (j+1)
        np.multiply(x, p1, out=t)
        t *= (2 * j + 1) / (j + 1)
        p0 *= -j / (j + 1)
        p0 += t
        p0, p1 = p1, p0
    return p1, n * (x * p1 - p0) / ((x - 1.0) * (x + 1.0))


def gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [0, 1]: one read-only pair per n, shared.

    The roots of P_n on [0, 1) start from Tricomi's asymptotic formula and take
    NEWTON_STEPS Newton steps on the recurrence, O(n^2) with no eigensolver.
    Each weight is 2/((1-x^2) P_n'(x)^2), with P_n' carried to the final root
    by one Taylor step through the Legendre equation; the rule is the exact
    mirror of that half, with the middle node x = 0 of odd n.
    """
    if n not in _GAUSS_RULES:
        if n < 1:
            raise KQuantError(f"a Gauss-Legendre rule needs at least one node, not {n}")
        theta = np.pi * (4.0 * np.arange(1, (n + 1) // 2 + 1) - 1.0) / (4 * n + 2)
        x = (1.0 - (n - 1) / (8.0 * n**3) - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n**4)) * np.cos(theta)
        x[n // 2 :] = 0.0  # the middle root of odd n; an empty slice for even n
        for _ in range(NEWTON_STEPS):
            p, dp = _legendre(n, x)
            last, x = x, x - p / dp
        # P_n' from the last iterate to the root, with (1 - x^2) P'' = 2x P' - n(n+1) P
        dp += (x - last) * (2.0 * last * dp - n * (n + 1) * p) / ((1.0 - last) * (1.0 + last))
        w = 2.0 / ((1.0 - x) * (1.0 + x) * dp**2)
        x, w = np.concatenate((-x, x[: n // 2][::-1])), np.concatenate((w, w[: n // 2][::-1]))
        nodes, weights = 0.5 * (x + 1.0), 0.5 * w
        nodes.flags.writeable = weights.flags.writeable = False
        _GAUSS_RULES[n] = nodes, weights
    return _GAUSS_RULES[n]


def barycentric_weights(x: np.ndarray) -> np.ndarray:
    """Barycentric weights of the nodes x, capacity-scaled for stability.

    Built in blocks of at most 64 rows, so the temporaries stay a block's size.
    """
    n = len(x)
    # 4/(b-a) capacity scaling keeps the pairwise products in double range.
    scale = 4.0 / (x.max() - x.min())
    w = np.empty(n)
    for start in range(0, n, 64):
        i = np.arange(start, min(start + 64, n))
        d = scale * np.subtract.outer(x[i], x)
        d[i - start, i] = 1.0
        w[i] = 1.0 / np.prod(d, axis=1)
    return w / np.abs(w).max()


def diff_matrix(x: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """Spectral differentiation matrix on arbitrary nodes x.

    Built in blocks of at most 64 rows, so the temporaries stay a block's size.
    """
    if w is None:
        w = barycentric_weights(x)
    n = len(x)
    D = np.empty((n, n))
    for start in range(0, n, 64):
        i = np.arange(start, min(start + 64, n))
        d = np.subtract.outer(x[i], x)
        d[i - start, i] = np.inf
        block = D[start : start + 64]
        np.divide(w / w[i, None], d, out=block)
        block[i - start, i] = -block.sum(axis=1)
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


# [nodes, barycentric weights] of the last radial nodes tabulated.
_BARY_SLOT: list = [None, None]


def _shared_bary(u: np.ndarray) -> np.ndarray:
    """Barycentric weights of the nodes u, read-only and shared by the radial
    grids on one node array.  One slot, like the grids' own tables."""
    if _BARY_SLOT[0] is not u:
        bary = barycentric_weights(u)
        bary.flags.writeable = False
        _BARY_SLOT[:] = u, bary
    return _BARY_SLOT[1]


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
    def bary(self) -> np.ndarray:
        return _shared_bary(self.u)

    @cached_property
    def D(self) -> np.ndarray:
        return diff_matrix(self.u, self.bary)

    def integrate(self, values: np.ndarray, weights: np.ndarray | None = None, keepdims: bool = False):
        """The integral of each field of a block; ``keepdims`` keeps a unit field axis."""
        w = self.weights if weights is None else weights
        return np.sum(w * values, axis=-1, keepdims=keepdims)

    def apply_radial(self, matrix: np.ndarray, values: np.ndarray) -> np.ndarray:
        """matrix applied along the radial axis of each field.

        A block is multiplied as matrix @ (fields as columns): of the two
        orientations, this one leaves less of BLAS's packing buffer resident.
        """
        columns = values.reshape(-1, self.resolution).T
        return (matrix @ columns).T.reshape(values.shape)

    def broadcast(self, radial_values: np.ndarray) -> np.ndarray:
        """The field of a radial profile."""
        return radial_values

    def radial_part(self, values: np.ndarray) -> np.ndarray:
        """The radial profile of a circle-invariant field."""
        return values

    def is_invariant(self, values: np.ndarray) -> bool:
        """Whether a field (or block) is circle-invariant: always, on a radial grid."""
        return True

    def base_laplace(self, values: np.ndarray) -> np.ndarray:
        """Delta_0 f = -(d_z d_zbar f)/A_0 = -(u (1-u) f_u)_u.

        The base factor (1-u)^2 cancels analytically, which keeps the
        operator accurate at the outermost nodes.
        """
        D = self.D
        return -self.apply_radial(D, self.u * (1.0 - self.u) * self.apply_radial(D, values))

    def base_laplace_transpose(self, values: np.ndarray) -> np.ndarray:
        """The transpose of base_laplace in the nodal dot product:
        sum(f * base_laplace(g)) = sum(base_laplace_transpose(f) * g)."""
        DT = self.D.T
        return -self.apply_radial(DT, self.u * (1.0 - self.u) * self.apply_radial(DT, values))

    def base_inner_grad(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """(d_z f, d_z g)/A_0 = u (1-u) f_u g_u for radial real fields; f_u is
        formed once when g is f."""
        df = self.apply_radial(self.D, f)
        dg = df if g is f else self.apply_radial(self.D, g)
        return self.u * (1.0 - self.u) * df * dg

    def log_section_norms(self, k: int) -> np.ndarray:
        """log |s_j|^2 = j log u + (k-j) log(1-u) at the nodes, shape (n_u, k+1)."""
        j = np.arange(k + 1)
        return j[None, :] * np.log(self.u)[:, None] + (k - j)[None, :] * np.log1p(-self.u)[:, None]

    @cached_property
    def _peak_slot(self) -> list:
        """[k, table, peak] of the last degree tabulated.  One slot, so a grid
        holds one table at most."""
        return [None, None, None]

    def _peak_sections(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(|s_j|^2 / max_u |s_j|^2 at the nodes, log max_u |s_j|^2), read-only.

        The maximum of u^j (1-u)^{k-j} sits at u = j/k, so every table entry
        lies in [0, 1] and sums over either index stay in double range.
        """
        slot = self._peak_slot
        if slot[0] != k:
            slot[:] = None, None, None  # drop the old table before building the new one
            j = np.arange(1, k)
            peak = np.zeros(k + 1)
            peak[1:k] = j * np.log(j / k) + (k - j) * np.log1p(-j / k)
            table = np.exp(self.log_section_norms(k) - peak)
            table.flags.writeable = peak.flags.writeable = False
            slot[:] = k, table, peak
        return slot[1], slot[2]

    def _contract(self, k: int, log_h: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """(table, terms, shift) with sum_j |s_j|^2 / h_j e^{-shift} = table @ terms."""
        table, peak = self._peak_sections(k)
        g = peak - log_h
        shift = float(np.max(g))
        return table, np.exp(g - shift), shift

    def _log_diagonal(self, form) -> np.ndarray:
        """log h_j of a form contracted here: a log-diagonal form, the only kind
        ``gram`` makes, since circle-invariant weights pair only equal monomials."""
        if form.log_diag is None:
            raise KQuantError("dense form contracted against a radial grid; use the full 2D grid")
        return form.log_diag

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
        2 lam = log h1 - log h0.
        """
        log_h0 = self._log_diagonal(geo.H0)
        rate = self._log_diagonal(geo.H1) - log_h0
        table, terms, _ = self._contract(geo.degree, log_h0 + rate * s)
        return (table @ (rate * terms)) / (table @ terms)


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

    def integrate(self, values: np.ndarray, weights: np.ndarray | None = None, keepdims: bool = False):
        """The integral of each field of a block; ``keepdims`` keeps unit field axes.

        Summed without a block-sized temporary.
        """
        w = self.weights if weights is None else weights
        total = np.einsum("...ij,...ij->...", w, values)
        return total[..., None, None] if keepdims else total

    def apply_radial(self, matrix: np.ndarray, values: np.ndarray) -> np.ndarray:
        """matrix applied along the radial axis of each field."""
        return matrix @ values

    @cached_property
    def _angular(self) -> tuple[np.ndarray, np.ndarray]:
        """Spectral d/dtheta and d^2/dtheta^2 as real n_theta x n_theta right
        factors A, f @ A = Re ifft(symbol * fft f), the Nyquist mode included."""
        m = np.fft.fftfreq(self.n_theta, d=1.0 / self.n_theta)
        spec = np.fft.fft(np.eye(self.n_theta), axis=-1)
        return tuple(np.real(np.fft.ifft(symbol * spec, axis=-1)) for symbol in (1j * m, -(m**2)))

    @cached_property
    def _uv(self) -> np.ndarray:
        """u (1-u) as a column: the radial factor of both base operators."""
        return (self.u * (1.0 - self.u))[:, None]

    def broadcast(self, radial_values: np.ndarray) -> np.ndarray:
        return np.repeat(radial_values[..., None], self.n_theta, axis=-1)

    def radial_part(self, values: np.ndarray) -> np.ndarray:
        return values[..., 0]

    def is_invariant(self, values: np.ndarray) -> bool:
        """Circle invariance of a block: max |f - f(theta_0)| <= 1e-12 max(1, max |f|)."""
        spread = values - values[..., :1]
        np.abs(spread, out=spread)
        return bool(np.max(spread) <= 1e-12 * max(1.0, np.max(values), -np.min(values)))

    def base_laplace(self, values: np.ndarray) -> np.ndarray:
        """Delta_0 f = -(d_z d_zbar f)/A_0 = -(u (1-u) f_u)_u - f_theta_theta / (4 u (1-u)).

        A block runs one field at a time, so its temporaries stay the size of one field.
        """
        D, A2, uv = self.radial.D, self._angular[1], self._uv
        out = np.empty(values.shape)
        for i in np.ndindex(values.shape[:-2]):
            out[i] = -(D @ (uv * (D @ values[i]))) - (values[i] @ A2) / (4.0 * uv)
        return out

    def base_laplace_transpose(self, values: np.ndarray) -> np.ndarray:
        """The transpose of base_laplace in the nodal dot product, one field at a time."""
        D, A2, uv = self.radial.D, self._angular[1], self._uv
        out = np.empty(values.shape)
        for i in np.ndindex(values.shape[:-2]):
            out[i] = -(D.T @ (uv * (D.T @ values[i]))) - (values[i] / (4.0 * uv)) @ A2.T
        return out

    def base_inner_grad(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """(d_z f, d_z g)/A_0 = u (1-u) f_u g_u + f_theta g_theta / (4 u (1-u));
        the derivatives of f are formed once when g is f."""
        D, A = self.radial.D, self._angular[0]
        df, af = D @ f, f @ A
        dg, ag = (df, af) if g is f else (D @ g, g @ A)
        return self._uv * df * dg + af * ag / (4.0 * self._uv)

    def _pair_table(self, k: int) -> np.ndarray:
        """q[u, p] = |s_a||s_b| for a + b = p: u^{p/2} (1-u)^{k-p/2}, shape (n_u, 2k+1).

        Every entry lies in [0, 1], so products stay in range for any degree.
        """
        return np.exp(0.5 * self.radial.log_section_norms(2 * k))

    def gram(self, k: int, weight: np.ndarray) -> tuple[np.ndarray, None]:
        """(H, None) with H_ab = sum_nodes weight conj(s_a) s_b = sum_u q[u, a+b] W[u, b-a].

        W[u, c] = sum_theta weight e^{i c theta} comes from one real FFT; the
        c >= 0 half is contracted with the pair table and the other half is
        its conjugate, so H is exactly Hermitian.
        """
        n = self.n_theta
        c = np.arange(k + 1)
        F = np.fft.rfft(weight, axis=-1)[:, np.minimum(c, n - c)]
        W = np.ascontiguousarray(np.where(c <= n // 2, F.conj(), F))  # c > n/2 reads bin n - c
        # T[a+b, b-a], by one real product on the (re, im) pairs of W
        T = (self._pair_table(k).T @ W.view(np.float64)).view(np.complex128)
        a = c[:, None]
        H = T[a + c, np.abs(c - a)]
        return np.where(c < a, H.conj(), H), None

    def _contract(self, k: int, M: np.ndarray) -> np.ndarray:
        """sum_jl M_jl s_j conj(s_l) at the nodes, for Hermitian M or a stack of them.

        The lower triangle of M is scattered to Mt[j+l, j-l]; the pair table
        turns it into the angular spectrum at every radius, whose frequencies
        fold into the n_theta bins of one inverse real FFT.
        """
        n = self.n_theta
        j, l = np.tril_indices(k + 1)
        Mt = np.zeros(M.shape[:-2] + (2 * k + 1, k + 1), dtype=complex)
        Mt[..., j + l, j - l] = M[..., j, l]
        R = (self._pair_table(k) @ Mt.view(np.float64)).view(np.complex128)  # frequency d >= 0
        half = n // 2 + 1
        spec = np.zeros(R.shape[:-1] + (half,), dtype=complex)
        top = min(k + 1, half)
        spec[..., :top] = R[..., :top]
        if n - k < half:  # frequency -d lands in bin n - d
            spec[..., n - k : half] += R[..., k : n - half : -1].conj()
        return n * np.fft.irfft(spec, n, axis=-1)

    def log_density(self, form) -> np.ndarray:
        """log sum_{ab} (H^{-1})_{ab} s_a conj(s_b) at the nodes.

        A log-diagonal form has monomial sections, whose norms carry no
        angle, so the radial factor contracts it.  Otherwise H^{-1} =
        L^{-dagger} L^{-1} comes from the Cholesky factor, which checks
        positivity.
        """
        if form.log_diag is not None:
            return self.broadcast(self.radial.log_density(form))
        Linv = np.linalg.inv(form.cholesky())
        return np.log(self._contract(form.degree, Linv.conj().T @ Linv))

    def geodesic_slope(self, geo, s: float) -> np.ndarray:
        """sum_a 2 lam_a e^{-2 lam_a s}|tau_a|^2 over sum_a e^{-2 lam_a s}|tau_a|^2 at the nodes.

        With tau_a = sum_j C_ja s_j both sums are contractions, of
        C diag(2 lam w) C^dagger and C diag(w) C^dagger.  A geodesic between
        diagonal forms has monomial tau_a, whose norms carry no angle.
        """
        if geo.coeffs is None:
            return self.broadcast(self.radial.geodesic_slope(geo, s))
        C = geo.coeffs
        w = np.exp(-2.0 * geo.lambdas * s)
        scales = np.stack([2.0 * geo.lambdas * w, w])[:, None, :]
        num, den = self._contract(geo.degree, (C * scales) @ C.conj().T)
        return num / den


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
