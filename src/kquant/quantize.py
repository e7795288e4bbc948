"""Section spaces, the Gram and projective-embedding maps, and balanced data.

Degree-k sections are the monomials s_j = z^j, j = 0..k, with base pointwise
norms |s_j|^2 = rho^j/(1+rho)^k = u^j (1-u)^{k-j}.  The Gram map sends a
potential to the L^2 form H_{ab} = int (s_a, s_b) e^{-k phi} d mu_phi; the
embedding map sends a positive form H back to the potential
(1/k) log[(1/N) sum |s_a|^2_H] built from any H-orthonormal basis.  Their
composition obeys the pointwise identity

    fs(hilb(phi)) = phi + (1/k) log(rho_k(phi)/N_k)

with rho_k the density of states, which is the workhorse checked by the
tests.  The twist potential psi of an automorphism sigma solves
sigma^* omega_phi - omega_phi = i ddbar psi with the normalization
int e^psi d mu_phi = N_k / k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import (
    AutomorphismLift,
    KQuantError,
    MetricData,
    NonKahlerError,
    Potential,
    identity_lift,
    metric_data,
    sections_dim,
)
from .grids import NotPositiveDefiniteError

__all__ = [
    "HermForm",
    "NotPositiveDefiniteError",
    "hilb",
    "fs",
    "BergmanField",
    "bergman",
    "PsiField",
    "psi_potential",
    "balanced_residual",
    "IterationLog",
    "sigma_balanced_iterate",
    "save_herm_form",
    "load_herm_form",
]


@dataclass(frozen=True)
class HermForm:
    """Positive definite Hermitian form on the degree-k section space.

    A form diagonal in the monomial basis, as every Gram form of a radial
    grid is, carries its log-diagonal ``log_diag``; consumers read that and
    never factor the dense matrix.  Such a form is built with
    ``entries=None``; reading ``entries`` then builds and keeps its dense
    diagonal, whose values may under- or overflow at high degree where
    ``log_diag`` stays exact.  Given ``entries``, the form is dense and
    ``log_diag`` is dropped, so replacing the entries of a diagonal form
    never leaves a stale log-diagonal.
    """

    entries: np.ndarray | None
    degree: int
    log_diag: np.ndarray | None = field(default=None, kw_only=True)

    def __post_init__(self):
        if self.degree < 1:
            raise KQuantError("degree k must be at least 1")
        n = sections_dim(self.degree)
        if self.entries is None:
            if self.log_diag is None or self.log_diag.shape != (n,):
                raise KQuantError(f"a diagonal form of degree {self.degree} needs {n} log-diagonal values")
            object.__delattr__(self, "entries")  # built on first read, by __getattr__
        elif self.log_diag is not None:
            object.__setattr__(self, "log_diag", None)
        if self.log_diag is None and self.entries.shape != (n, n):
            raise KQuantError(f"form shape {self.entries.shape} does not match degree {self.degree}")

    def __getattr__(self, name: str):
        # Reached only for an attribute that is not set: the entries of a
        # log-diagonal form, read for the first time.
        if name != "entries" or self.__dict__.get("log_diag") is None:
            raise AttributeError(name)
        entries = self.dense()
        object.__setattr__(self, "entries", entries)
        return entries

    @property
    def dimension(self) -> int:
        return sections_dim(self.degree)

    def dense(self) -> np.ndarray:
        """The dense matrix: ``entries``, or for a log-diagonal form a fresh
        dense diagonal that the form does not keep."""
        if self.log_diag is None:
            return self.entries
        out = np.zeros((self.dimension, self.dimension), dtype=complex)
        np.fill_diagonal(out, np.exp(self.log_diag))
        return out

    def min_eigenvalue(self) -> float:
        if self.log_diag is not None:
            return float(np.exp(np.min(self.log_diag)))
        return float(np.linalg.eigvalsh(0.5 * (self.entries + self.entries.conj().T)).min())

    def cholesky(self) -> np.ndarray:
        H = self.dense()
        try:
            return np.linalg.cholesky(0.5 * (H + H.conj().T))
        except np.linalg.LinAlgError:
            raise NotPositiveDefiniteError("form is not positive definite") from None

    def scaled(self, c: float) -> "HermForm":
        if self.log_diag is not None and c > 0.0:
            return HermForm(None, self.degree, log_diag=self.log_diag + np.log(c))
        return HermForm(entries=c * self.dense(), degree=self.degree)


def save_herm_form(path, form: HermForm) -> None:
    lines = [f"degree: {form.degree}"]
    for row in form.dense():
        lines.append(" ".join(f"{v.real:.17g} {v.imag:.17g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_herm_form(path) -> HermForm:
    try:
        lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    except OSError as err:
        raise KQuantError(f"cannot read herm form file: {err}") from None
    if not lines or not lines[0].lower().startswith("degree:"):
        raise KQuantError("herm form file must start with a degree header")
    try:
        k = int(lines[0].split(":")[1])
        rows = [[float(t) for t in ln.split()] for ln in lines[1:]]
    except ValueError as err:
        raise KQuantError(f"herm form file has a non-numeric entry: {err}") from None
    n = sections_dim(k)
    if len(rows) != n:
        raise KQuantError(f"expected {n} matrix rows, found {len(rows)}")
    for i, row in enumerate(rows):
        if len(row) != 2 * n:
            raise KQuantError(f"matrix row {i} has {len(row)} numbers, expected {2 * n}")
    # each row holds n (real, imaginary) pairs, the memory layout of complex128
    return HermForm(entries=np.array(rows).view(complex), degree=k)


# ---------------------------------------------------------------------------
# Gram and embedding maps


def hilb(pot: Potential, k: int, md: MetricData | None = None) -> HermForm:
    """L^2 Gram form of the degree-k sections against e^{-k phi} d mu_phi.

    The grid chooses the form: a radial grid returns the log-diagonal of the
    (diagonal) monomial Gram form; the full 2D grid assembles the Gram
    matrix as P^dagger P, Hermitian positive semidefinite by construction.
    """
    md = metric_data(pot) if md is None else md
    weight = np.exp(-k * pot.values) * md.volume_weights
    entries, log_diag = pot.grid.gram(k, weight)
    return HermForm(entries, k, log_diag=log_diag)


def fs(form: HermForm, grid) -> Potential:
    """Embedding potential of a positive form: (1/k) log[(1/N) sum |s_a|^2].

    The sum over an H-orthonormal basis equals the contraction of the
    pointwise pairing table with H^{-1}, so the result does not depend on
    which orthonormal basis a factorization produces.
    """
    vals = (grid.log_density(form) - np.log(form.dimension)) / form.degree
    invariant = bool(np.allclose(vals, grid.broadcast(grid.radial_part(vals)), atol=1e-13))
    return Potential(grid, vals, invariant=invariant)


@dataclass(frozen=True)
class BergmanField:
    """Density of states rho_k(phi) at the grid nodes."""

    values: np.ndarray
    degree: int

    def min(self) -> float:
        return float(np.min(self.values))


def bergman(pot: Potential, k: int, md: MetricData | None = None, form: HermForm | None = None) -> BergmanField:
    """rho_k(phi) = e^{-k phi} * contraction of the base pairing with H^{-1}."""
    form = hilb(pot, k, md=md) if form is None else form
    return BergmanField(values=np.exp(pot.grid.log_density(form) - k * pot.values), degree=k)


# ---------------------------------------------------------------------------
# Twist potential


@dataclass(frozen=True)
class PsiField:
    """Normalized potential of the pullback defect sigma^* omega_phi - omega_phi."""

    values: np.ndarray
    degree: int

    def exp(self) -> np.ndarray:
        return np.exp(self.values)


def psi_potential(lift: AutomorphismLift, pot: Potential, md: MetricData | None = None) -> PsiField:
    """Twist potential psi with i ddbar psi = sigma^* omega_phi - omega_phi.

    Constructed from the exact pullback potential: 2 pi psi = c_sigma +
    phi o sigma - phi up to the constant fixed by int e^psi d mu_phi =
    N_k/k, one constant per potential of a block.  For the identity the
    field is the constant log((k+1)/k).
    """
    md = metric_data(pot) if md is None else md
    k = lift.degree
    nu = sections_dim(k) / k
    if lift.is_identity:
        return PsiField(values=np.full_like(pot.values, np.log(nu)), degree=k)
    psi = lift.base_potential(pot.grid) + lift.compose_potential(pot)
    psi -= pot.values
    psi /= 2.0 * np.pi
    mass = md.integrate(np.exp(psi), keepdims=True)
    if not np.all(np.isfinite(mass)) or np.any(mass <= 0.0):
        raise KQuantError("twist potential normalization integral is not finite")
    psi += np.log(nu / mass)
    return PsiField(values=psi, degree=k)


def balanced_residual(
    pot: Potential, k: int, lift: AutomorphismLift | None = None, md: MetricData | None = None
) -> float:
    """Sup-norm of rho_k(phi) - k e^{psi_k(phi)}; zero at normalized balance."""
    lift = identity_lift(k) if lift is None else lift
    md = metric_data(pot) if md is None else md
    rho = bergman(pot, k, md=md)
    psi = psi_potential(lift, pot, md=md)
    return float(np.max(np.abs(rho.values - k * psi.exp())))


# ---------------------------------------------------------------------------
# Fixed-point iteration toward sigma-balanced potentials


@dataclass
class IterationLog:
    converged: bool
    iterations: int
    residuals: list[float] = field(default_factory=list)
    min_eigenvalues: list[float] = field(default_factory=list)
    energies: list[float] = field(default_factory=list)
    message: str = ""


def sigma_balanced_iterate(
    pot: Potential,
    k: int,
    lift: AutomorphismLift | None = None,
    max_iter: int = 200,
    tol: float = 1e-8,
    track_energy: bool = False,
) -> tuple[Potential, IterationLog]:
    """Iterate phi -> mean-normalized pullback of fs(hilb(phi)) by sigma^{-1}.

    At the identity twist this is the classical Gram fixed-point iteration
    whose fixed points have constant density of states.  Non-convergence
    within ``max_iter`` is reported through the log, never raised; loss of
    positivity aborts with diagnostics.
    """
    lift = identity_lift(k) if lift is None else lift
    inv = lift.inverse()
    log = IterationLog(converged=False, iterations=0)
    current = pot.mean_normalized()
    for it in range(max_iter + 1):
        try:
            md = metric_data(current)
        except NonKahlerError as err:
            log.message = f"iteration left the Kahler cone at step {it}: {err}"
            return current, log
        form = hilb(current, k, md=md)
        rho = bergman(current, k, md=md, form=form)
        psi = psi_potential(lift, current, md=md)
        res = float(np.max(np.abs(rho.values - k * psi.exp())))
        log.residuals.append(res)
        log.min_eigenvalues.append(form.min_eigenvalue())
        if track_energy:
            from .functionals import l_sigma_k

            log.energies.append(l_sigma_k(current, k, lift))
        else:
            log.energies.append(np.nan)
        log.iterations = it
        if res <= tol:
            log.converged = True
            return current, log
        if it == max_iter:
            break
        projected = fs(form, current.grid)
        current = inv.pullback_potential(projected, normalize=True)
    log.message = f"no convergence after {max_iter} iterations (residual {log.residuals[-1]:.3e})"
    return current, log
