"""Config-driven experiment harness.

Each experiment runs one variational statement as a quantitative test over a
range of degrees, fits decay rates on a log-log scale, and emits a Report
with pass/fail verdicts against the pinned acceptance thresholds.  Identical
configs reproduce identical reports; every random draw goes through the
config seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import functionals as F
from . import geometry as G
from . import quantize as Q
from .geometry import TWIST_RATE_DEFAULT
from .grids import build_grid, check_grid
from .reporting import FORMATS, FitResult, Report, Series, Verdict

__all__ = [
    "ACCEPTANCE",
    "PUBLISHED_BUMP",
    "ExperimentConfig",
    "EXPERIMENTS",
    "fit_power_law",
    "run_experiment",
]

# Acceptance thresholds, pinned once.
ACCEPTANCE = {
    "balanced_rho_sup": 1e-8,
    "balanced_fs_sup": 1e-9,
    "identity_sup": 1e-9,
    "bergman_fit_p": 0.9,
    "bergman_fit_residual": 0.1,
    "psi_final_factor": 1.5,
    "path_independence_rel": 1e-6,
    "hessian_rel": 1e-4,
    "concavity_level": 1e-10,
    "concavity_k0_max": 32,
    "z_convexity_floor": -1e-8,
    "compare_fit_p": 0.9,
    "quantize_fit_p": 0.9,
    "slope_decay_p": 0.9,
    "chain_slack": 1e-10,
    "minimization_floor": -1e-8,
    "exact_floor": 1e-12,
}

# Fixed test potential published for reproducibility; its expansion window at
# degrees 8..64 sits in the asymptotic regime (fitted decay just above 0.9).
PUBLISHED_BUMP = (0.05, -0.07)

DEFAULT_KS = {
    "bergman-expansion": (8, 16, 32, 64),
    "psi-expansion": (8, 16, 32, 64),
    "path-independence": (4, 8),
    "hessian-check": (8, 32),
    "z-convexity": (6, 12),
    "i-concavity": (8, 16, 32, 64),
    "compare-LZ": (8, 16, 32, 64),
    "quantize-E": (8, 12, 16, 24, 32, 48, 64),
    "almost-balanced": (8, 16, 32, 64),
    "minimization": (8,),
}
# The experiments that fit a power law over their degrees.  path-independence
# fits its gradient-twist defect over k_list and PATH_TWIST_KS, to expose its decay.
FITTED = {"bergman-expansion", "psi-expansion", "path-independence", "compare-LZ", "quantize-E", "almost-balanced"}
PATH_TWIST_KS = (16, 32)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    k_list: tuple[int, ...] = ()
    grid_mode: str = "radial"
    resolution: int = 512
    n_theta: int = 64
    potential: tuple[float, ...] | str = PUBLISHED_BUMP
    seed: int = 2026
    out_dir: str = "reports"
    formats: tuple[str, ...] = ("json",)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS and self.experiment != "all":
            raise G.KQuantError(
                f"unknown experiment {self.experiment!r}; choices: {sorted(EXPERIMENTS)}"
            )
        ks = self.k_list or DEFAULT_KS.get(self.experiment, (8, 16, 32, 64))
        object.__setattr__(self, "k_list", tuple(int(k) for k in ks))
        if any(k < 1 for k in self.k_list) or any(
            a >= b for a, b in zip(self.k_list, self.k_list[1:])
        ):
            raise G.KQuantError("k_list must be strictly increasing positive integers")
        fitted = set(self.k_list) | set(PATH_TWIST_KS if self.experiment == "path-independence" else ())
        if self.experiment in FITTED and len(fitted) < 3:
            raise G.KQuantError(f"a power-law fit needs at least 3 degrees; {self.experiment} fits {sorted(fitted)}")
        if not 8 <= self.resolution <= 4096:
            raise G.KQuantError("resolution must lie in [8, 4096]")
        unknown = [fmt for fmt in self.formats if fmt not in FORMATS]
        if unknown:
            raise G.KQuantError(f"unknown report formats {unknown}; choices: {sorted(FORMATS)}")
        check_grid(self.grid_mode, self.resolution, self.n_theta, self.k_list[-1])


def fit_power_law(pairs) -> FitResult:
    """Least-squares power law v = C k^-p on log-log scale.

    A NaN or infinite value is an error, never a point to drop.  Nonpositive
    values are excluded (their count lands in the flag); a series entirely
    below the exactness floor returns the ``exact`` flag instead of a
    meaningless fit.  At least three positive points are required.
    """
    ks = np.array([float(k) for k, _ in pairs])
    vs = np.array([float(v) for _, v in pairs])
    if not np.all(np.isfinite(vs)):
        raise G.KQuantError(f"power-law fit over non-finite values {vs.tolist()}")
    if np.all(np.abs(vs) <= ACCEPTANCE["exact_floor"]):
        return FitResult(coefficient=0.0, exponent=0.0, residual=0.0, flag="exact")
    keep = vs > 0
    excluded = int(np.sum(~keep))
    ks, vs = ks[keep], vs[keep]
    if len(vs) < 3:
        raise G.KQuantError("power-law fit needs at least 3 positive values")
    coeffs = np.polyfit(np.log(ks), np.log(vs), 1)
    resid = float(np.sqrt(np.mean((np.log(vs) - np.polyval(coeffs, np.log(ks))) ** 2)))
    flag = f"excluded={excluded}" if excluded else ""
    return FitResult(
        coefficient=float(np.exp(coeffs[1])),
        exponent=float(-coeffs[0]),
        residual=resid,
        flag=flag,
    )


# ---------------------------------------------------------------------------
# Shared experiment context


class _Ctx:
    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.grid = build_grid(cfg.grid_mode, cfg.resolution, cfg.n_theta)
        self.V = G.rotation_field(1.0)
        if isinstance(cfg.potential, str) and cfg.potential != "published":
            self.pot = G.load_potential(cfg.potential, self.grid)
        else:
            coeffs = PUBLISHED_BUMP if cfg.potential == "published" else cfg.potential
            self.pot = G.potential_from_radial_coeffs(self.grid, list(coeffs))

    def lift(self, k: int, twisted: bool):
        if not twisted:
            return G.identity_lift(k)
        return G.sigma_lift(self.V, k)

    def seeded_potential(self, rng, scale=0.05):
        for _ in range(64):
            coeffs = rng.uniform(-scale, scale, 4)
            pot = G.potential_from_radial_coeffs(self.grid, list(coeffs))
            try:
                G.metric_data(pot)
            except G.NonKahlerError:
                continue
            return pot
        raise G.KQuantError("could not draw an admissible seeded potential")

    def environment(self) -> dict:
        try:
            blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        except TypeError:  # numpy before 1.25 only prints its configuration
            blas = {}
        return {
            "kquant": __version__,
            "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "volume": G.VOLUME,
            "mean_scalar": G.SBAR,
            "sections": "k+1",
            "twist_rate_constant": TWIST_RATE_DEFAULT,
            "grid_mode": self.cfg.grid_mode,
            "resolution": self.cfg.resolution,
            "n_theta": self.grid.header.get("n_theta"),
            "seed": self.cfg.seed,
            "potential": "samples" if self.pot.profile is None else self.pot.profile.tolist(),
        }


# ---------------------------------------------------------------------------
# Experiments

TWISTS = {False: "identity twist", True: "gradient twist"}


def _sweep(ctx: _Ctx, measure) -> dict:
    """{twisted: [measure(k, lift, twisted) for k in k_list]} over both twists."""
    return {tw: [measure(k, ctx.lift(k, tw), tw) for k in ctx.cfg.k_list] for tw in TWISTS}


def _twist_series(ctx: _Ctx, title: str, twisted: bool, values, fit: bool = False) -> Series:
    """The degree series of one twist; ``{}`` in the title names the twist."""
    ks, values = list(ctx.cfg.k_list), list(values)
    fitted = fit_power_law(list(zip(ks, values))) if fit else None
    return Series(title.format(TWISTS[twisted]), ks, values, fitted)


def _exp_bergman(ctx: _Ctx) -> Report:
    cfg = ctx.cfg
    md = G.metric_data(ctx.pot)
    ks = list(cfg.k_list)
    vals = [float(np.max(np.abs(Q.bergman(ctx.pot, k, md=md).values - k - md.scalar / 2.0))) for k in ks]
    fit = fit_power_law(list(zip(ks, vals)))
    series = [Series("sup|rho_k - k - S/2|", ks, vals, fit)]
    if fit.flag == "exact":
        verdicts = [Verdict("expansion exact", 0.0, ACCEPTANCE["exact_floor"])]
    else:
        verdicts = [
            Verdict("fit exponent", fit.exponent, ACCEPTANCE["bergman_fit_p"], ">="),
            Verdict("fit residual", fit.residual, ACCEPTANCE["bergman_fit_residual"]),
        ]
    return Report("bergman-expansion", series, verdicts, ctx.environment())


def _exp_psi(ctx: _Ctx) -> Report:
    cfg = ctx.cfg
    md = G.metric_data(ctx.pot)
    theta = G.holomorphy_potential(ctx.V, ctx.pot, md)
    target = (theta + G.SBAR) / 2.0
    ks = list(cfg.k_list)
    psis = [Q.psi_potential(ctx.lift(k, True), ctx.pot, md=md) for k in ks]
    vals = [float(np.max(np.abs(k * psi.values - target))) for k, psi in zip(ks, psis)]
    fit = fit_power_law(list(zip(ks, vals)))
    series = [Series("sup|k psi_k - (theta+2)/2|", ks, vals, fit)]
    decreasing = all(b < a for a, b in zip(vals, vals[1:]))
    predicted = fit.predict(ks[-1])
    factor = vals[-1] / predicted if predicted > 0 else math.inf
    verdicts = [
        Verdict("series decreasing", float(decreasing), 1.0, ">="),
        Verdict("final vs fit prediction", factor, ACCEPTANCE["psi_final_factor"]),
    ]
    return Report("psi-expansion", series, verdicts, ctx.environment())


def _three_path_defect(ctx: _Ctx, k: int, twisted: bool) -> float:
    """Max pairwise relative disagreement of three path integrals and, at the
    identity twist, the closed form on the default segment (with a twist the
    default segment is the linear path)."""
    lift = ctx.lift(k, twisted)
    pot = ctx.pot
    mid = G.potential_from_radial_coeffs(ctx.grid, [-0.02, 0.04, 0.015, -0.01])
    i_lin = F.i_sigma_k(pot, k, lift, path=F.linear_path(pot))
    i_rep = F.i_sigma_k(pot, k, lift, path=F.reparam_path(pot, power=2))
    i_two = F.i_sigma_k(pot, k, lift, path=F.two_leg_path(mid, pot))
    values = [i_lin, i_rep, i_two] + ([F.i_sigma_k(pot, k, lift)] if lift.is_identity else [])
    ref = np.max([abs(i_lin), 1e-300])
    return float((np.max(values) - np.min(values)) / ref)


def _exp_path_independence(ctx: _Ctx) -> Report:
    cfg = ctx.cfg
    ks = list(cfg.k_list)
    base_vals = [_three_path_defect(ctx, k, twisted=False) for k in ks]
    ks_tw = sorted(set(ks) | set(PATH_TWIST_KS))
    tw_vals = [_three_path_defect(ctx, k, twisted=True) for k in ks_tw]
    fit_tw = fit_power_law(list(zip(ks_tw, tw_vals)))
    series = [
        Series("three-path defect (reference twist)", ks, base_vals, None),
        Series("three-path defect (gradient twist)", ks_tw, tw_vals, fit_tw),
    ]
    worst = float(np.max(base_vals))
    verdicts = [Verdict("path independence", worst, ACCEPTANCE["path_independence_rel"])]
    rep = Report("path-independence", series, verdicts, ctx.environment())
    rep.notes.append(
        "the gated functional uses the flow of the extremal field, which is "
        "trivial on this model; the gradient-twist defect is second order in "
        f"the twist displacement (fitted decay {fit_tw.exponent:.2f})"
    )
    return rep


def _exp_hessian(ctx: _Ctx) -> Report:
    cfg = ctx.cfg

    def max_rel_err(k, lift, twisted):
        rng = np.random.default_rng([cfg.seed, k, int(twisted)])
        rels = []
        for _ in range(5):
            vel = ctx.seeded_potential(rng, 0.04)
            acc = ctx.seeded_potential(rng, 0.03)
            path = F.quadratic_path(ctx.pot, vel, acc)
            s0, h = 0.5, 0.02
            formula = F.i_sigma_hessian(path, s0, k, lift)
            ivals = [F.i_sigma_k(path.phi(s0 + d), k, lift) for d in (-h, 0.0, h)]
            fd = (ivals[0] - 2.0 * ivals[1] + ivals[2]) / h**2
            rels.append(abs(formula - fd) / abs(fd))
        return float(np.max(rels))

    rels = _sweep(ctx, max_rel_err)
    series = [_twist_series(ctx, "max rel err ({})", tw, vals) for tw, vals in rels.items()]
    worst = float(np.max(rels[False] + rels[True]))
    verdicts = [Verdict("second-derivative formula", worst, ACCEPTANCE["hessian_rel"])]
    return Report("hessian-check", series, verdicts, ctx.environment())


def _exp_z_convexity(ctx: _Ctx) -> Report:
    cfg = ctx.cfg

    def min_second_derivative(k, lift, twisted):
        rng = np.random.default_rng([cfg.seed, 77, k, int(twisted)])
        vals = []
        for _ in range(20):
            H0, H1 = (Q.HermForm(None, k, log_diag=rng.uniform(-1.0, 1.0, k + 1)) for _ in range(2))
            geo = F.bk_geodesic(H0, H1)
            vals.append(F.z_second_derivative_fd(geo, ctx.grid, lift))
        return float(np.min(vals))

    mins = _sweep(ctx, min_second_derivative)
    series = [_twist_series(ctx, "min FD second derivative ({})", tw, vals) for tw, vals in mins.items()]
    worst = float(np.min(mins[False] + mins[True]))
    verdicts = [Verdict("geodesic convexity", worst, ACCEPTANCE["z_convexity_floor"], ">=")]
    return Report("z-convexity", series, verdicts, ctx.environment())


def _exp_concavity(ctx: _Ctx) -> Report:
    cfg = ctx.cfg
    level = ACCEPTANCE["concavity_level"]
    ks = list(cfg.k_list)

    def max_hessian(k, lift, twisted):
        path = F.bergman_path(ctx.pot, k)
        return float(np.max([F.i_sigma_hessian(path, s, k, lift) for s in (0.0, 0.5, 1.0)]))

    maxima = _sweep(ctx, max_hessian)
    series, k0s = [], []
    for tw, vals in maxima.items():
        ok = [v <= level for v in vals]
        k0s.append(next((k for k, good in zip(ks, ok) if good and all(ok[ks.index(k):])), None))
        series.append(_twist_series(ctx, "max hessian along projection path ({})", tw, vals))
    worst_k0 = math.inf if None in k0s else max(k0s)
    verdicts = [Verdict("concavity threshold degree", float(worst_k0), float(ACCEPTANCE["concavity_k0_max"]))]
    rep = Report("i-concavity", series, verdicts, ctx.environment())
    rep.notes.append(f"concavity holds from degree {k0s} on (identity, gradient twist)")
    return rep


def _exp_compare(ctx: _Ctx) -> Report:
    def gap(k, lift, twisted):
        L = F.l_sigma_k(ctx.pot, k, lift)
        Z = F.z_sigma_k(Q.hilb(ctx.pot, k), ctx.grid, lift)
        return abs(L - Z) / k

    series = [
        _twist_series(ctx, "|L - Z o hilb|/k ({})", tw, vals, fit=True)
        for tw, vals in _sweep(ctx, gap).items()
    ]
    verdicts = [
        Verdict(f"fit exponent ({TWISTS[tw]})", s.fit.exponent, ACCEPTANCE["compare_fit_p"], ">=")
        for tw, s in zip(TWISTS, series)
    ]
    return Report("compare-LZ", series, verdicts, ctx.environment())


def _quantize_family(ctx: _Ctx):
    """Scaled copies of the published bump: a bounded one-parameter family."""
    rng = np.random.default_rng([ctx.cfg.seed, 5])
    ts = []
    while len(ts) < 10:
        t = rng.uniform(-1.0, 1.0)
        if abs(t) >= 0.15:
            ts.append(t)
    return [ctx.pot.scaled(t) for t in ts]


def _exp_quantize(ctx: _Ctx) -> Report:
    fam = _quantize_family(ctx)
    E_plain = np.array([F.mabuchi_energy(p) for p in fam])
    E_matched = E_plain + np.array([F.moment_energy(p, ctx.V) for p in fam])
    targets = {False: E_plain, True: E_matched}

    def max_deviation(k, lift, twisted):
        lk = np.array([(2.0 / k) * F.l_sigma_k(p, k, lift) for p in fam])
        ck = float(np.mean(targets[twisted] - lk))
        return float(np.max(np.abs(lk + ck - targets[twisted])))

    devs = _sweep(ctx, max_deviation)
    twisted = _twist_series(ctx, "max deviation ({} vs matched energy)", True, devs[True], fit=True)
    identity = _twist_series(ctx, "max deviation ({} vs k-energy)", False, devs[False], fit=True)
    decreasing = all(b < a for a, b in zip(identity.values, identity.values[1:]))
    verdicts = [
        Verdict("fit exponent (twisted)", twisted.fit.exponent, ACCEPTANCE["quantize_fit_p"], ">="),
        Verdict("identity deviation decreasing", float(decreasing), 1.0, ">="),
    ]
    rep = Report("quantize-E", [twisted, identity], verdicts, ctx.environment())
    rep.notes.append(
        "with a twist the quantized energies converge to the k-energy plus the "
        "moment energy of the twist generator; the identity instance converges "
        "to the k-energy with an intrinsic subleading ratio that keeps its "
        "window fit near 0.8 for degrees up to 64 (reported, not gated)"
    )
    return rep


def _exp_almost_balanced(ctx: _Ctx) -> Report:
    ref = G.zero_potential(ctx.grid)

    def slope_bound_chain(k, lift, twisted):
        fp, bound = F.fk_prime(ctx.pot, ref, k, lift)
        gap = (
            F.z_sigma_k(Q.hilb(ctx.pot, k), ctx.grid, lift)
            - F.z_sigma_k(Q.hilb(ref, k), ctx.grid, lift)
        ) / k
        return abs(fp) / k, bound, gap - fp / k

    series, chain = [], []
    for tw, rows in _sweep(ctx, slope_bound_chain).items():
        slopes, bounds, chains = zip(*rows)
        series.append(_twist_series(ctx, "|f'(0)|/k ({})", tw, slopes, fit=True))
        series.append(_twist_series(ctx, "max |lambda|/k ({})", tw, bounds))
        chain += chains
    identity_fit = series[0].fit
    if identity_fit.flag == "exact":
        verdicts = [Verdict("slope vanishes (exact)", 0.0, ACCEPTANCE["exact_floor"])]
    else:
        verdicts = [Verdict("slope decay", identity_fit.exponent, ACCEPTANCE["slope_decay_p"], ">=")]
    chain_worst = float(np.min(chain))
    verdicts.append(Verdict("convexity chain inequality", chain_worst, -ACCEPTANCE["chain_slack"], ">="))
    rep = Report("almost-balanced", series, verdicts, ctx.environment())
    rep.notes.append(
        "at the reference round potential the identity-twist slope vanishes "
        "identically (the round metric is exactly balanced); the gradient-twist "
        "slope plateaus because the round potential does not solve the "
        "twist-weighted extremal equation"
    )
    return rep


def _exp_minimization(ctx: _Ctx) -> Report:
    cfg = ctx.cfg
    groups = [("trivial", F.trivial_group()), ("circle", F.circle_group(ctx.V))]
    series, verdicts = [], []
    floor = ACCEPTANCE["minimization_floor"]
    for gi, (name, grp) in enumerate(groups):
        rng = np.random.default_rng([cfg.seed, 13, gi])
        diffs = []
        for _ in range(50):
            pot = ctx.seeded_potential(rng, 0.05)
            diffs.append(F.modified_k_energy(pot, grp))
        series.append(Series(f"energy gap ({name} group)", list(range(len(diffs))), diffs, None))
        verdicts.append(Verdict(f"minimum gap ({name})", float(np.min(diffs)), floor, ">="))
    return Report("minimization", series, verdicts, ctx.environment())


EXPERIMENTS = {
    "bergman-expansion": _exp_bergman,
    "psi-expansion": _exp_psi,
    "path-independence": _exp_path_independence,
    "hessian-check": _exp_hessian,
    "z-convexity": _exp_z_convexity,
    "i-concavity": _exp_concavity,
    "compare-LZ": _exp_compare,
    "quantize-E": _exp_quantize,
    "almost-balanced": _exp_almost_balanced,
    "minimization": _exp_minimization,
}


def run_experiment(config: ExperimentConfig) -> Report:
    """Run one named experiment; numerical aborts become failing verdicts.

    Floating-point overflow, invalid values and division by zero raise inside
    the run, so they abort it rather than reach a verdict as inf or NaN.
    """
    ctx = _Ctx(config)
    runner = EXPERIMENTS[config.experiment]
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return runner(ctx)
    except (G.KQuantError, Q.NotPositiveDefiniteError, FloatingPointError) as err:
        rep = Report(config.experiment, [], [Verdict("completed", 0.0, 1.0, ">=")], ctx.environment())
        rep.notes.append(f"aborted: {err}")
        return rep
