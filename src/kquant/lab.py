"""Config-driven experiment harness.

Each experiment runs one variational statement as a quantitative test over a
range of degrees, fits decay rates on a log-log scale, and emits a Report
with pass/fail verdicts against the pinned acceptance thresholds.  Identical
configs reproduce identical reports; every random draw goes through the
config seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
    "calibrate_twist_constant",
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


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    k_list: tuple[int, ...] = ()
    grid_mode: str = "radial"
    resolution: int = 512
    n_theta: int = 64
    potential: tuple[float, ...] | str = PUBLISHED_BUMP
    group: str = "trivial"
    twist_strength: float = 1.0
    twist_rate: float = TWIST_RATE_DEFAULT
    calibrate: bool = False
    seed: int = 2026
    out_dir: str = "reports"
    formats: tuple[str, ...] = ("json",)
    tolerances: dict = field(default_factory=dict)

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
        if not 8 <= self.resolution <= 4096:
            raise G.KQuantError("resolution must lie in [8, 4096]")
        if self.group not in ("trivial", "circle"):
            raise G.KQuantError("group must be 'trivial' or 'circle'")
        unknown = [fmt for fmt in self.formats if fmt not in FORMATS]
        if unknown:
            raise G.KQuantError(f"unknown report formats {unknown}; choices: {sorted(FORMATS)}")
        check_grid(self.grid_mode, self.resolution, self.n_theta, self.k_list[-1])

    def tol(self, name: str) -> float:
        return float(self.tolerances.get(name, ACCEPTANCE[name]))


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


def calibrate_twist_constant(
    grid, pot, V, k: int = 48, window: tuple[float, float] = (-2.5, -0.5)
) -> float:
    """Golden-section fit of the twist rate constant.

    Minimizes the sup-residual of the degree-k twist potential expansion
    kappa = sup |k psi_k - (theta + 2)/2| over the rate constant; the
    minimizer sits at -pi/2 for the gradient conventions used here.
    """
    md = G.metric_data(pot)
    theta = G.holomorphy_potential(V, pot)
    target = (theta + G.SBAR) / 2.0

    def resid(c0):
        lift = G.sigma_lift(V, k, 1.0, rate_constant=c0)
        psi = Q.psi_potential(lift, pot, md=md)
        return float(np.max(np.abs(k * psi.values - target)))

    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = window
    c, d = b - gr * (b - a), a + gr * (b - a)
    for _ in range(40):
        if resid(c) < resid(d):
            b, d = d, c
            c = b - gr * (b - a)
        else:
            a, c = c, d
            d = a + gr * (b - a)
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# Shared experiment context


class _Ctx:
    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.grid = build_grid(cfg.grid_mode, cfg.resolution, cfg.n_theta)
        self.V = G.rotation_field(cfg.twist_strength)
        self.rate = cfg.twist_rate
        if cfg.calibrate:
            probe = G.potential_from_radial_coeffs(self.grid, list(PUBLISHED_BUMP))
            self.rate = calibrate_twist_constant(self.grid, probe, self.V)
        if isinstance(cfg.potential, str) and cfg.potential != "published":
            self.pot = G.load_potential(cfg.potential, self.grid)
        else:
            coeffs = PUBLISHED_BUMP if cfg.potential == "published" else cfg.potential
            self.pot = G.potential_from_radial_coeffs(self.grid, list(coeffs))
        self.rng = np.random.default_rng(cfg.seed)

    def lift(self, k: int, twisted: bool):
        if not twisted:
            return G.identity_lift(k)
        return G.sigma_lift(self.V, k, 1.0, rate_constant=self.rate)

    def seeded_potential(self, rng, scale=0.05, n_terms=4):
        for _ in range(64):
            coeffs = rng.uniform(-scale, scale, n_terms)
            pot = G.potential_from_radial_coeffs(self.grid, list(coeffs))
            try:
                G.metric_data(pot)
            except G.NonKahlerError:
                continue
            return pot
        raise G.KQuantError("could not draw an admissible seeded potential")

    def environment(self) -> dict:
        return {
            "volume": G.VOLUME,
            "mean_scalar": G.SBAR,
            "sections": "k+1",
            "twist_rate_constant": self.rate,
            "twist_strength": self.cfg.twist_strength,
            "grid_mode": self.cfg.grid_mode,
            "resolution": self.cfg.resolution,
            "n_theta": self.grid.header.get("n_theta"),
            "seed": self.cfg.seed,
            "potential": list(self.pot.profile[1]) if self.pot.profile else "samples",
        }


# ---------------------------------------------------------------------------
# Experiments


def _exp_bergman(ctx: _Ctx) -> Report:
    cfg = ctx.cfg
    md = G.metric_data(ctx.pot)
    ks, vals = [], []
    for k in cfg.k_list:
        rho = Q.bergman(ctx.pot, k, md=md)
        vals.append(float(np.max(np.abs(rho.values - k - md.scalar / 2.0))))
        ks.append(k)
    fit = fit_power_law(list(zip(ks, vals)))
    series = [Series("sup|rho_k - k - S/2|", ks, vals, fit)]
    verdicts = []
    if fit.flag == "exact":
        verdicts.append(Verdict("expansion exact", 0.0, cfg.tol("exact_floor"), True))
    else:
        verdicts.append(
            Verdict("fit exponent", fit.exponent, cfg.tol("bergman_fit_p"), fit.exponent >= cfg.tol("bergman_fit_p"), ">=")
        )
        verdicts.append(
            Verdict("fit residual", fit.residual, cfg.tol("bergman_fit_residual"), fit.residual <= cfg.tol("bergman_fit_residual"))
        )
    return Report("bergman-expansion", series, verdicts, ctx.environment())


def _exp_psi(ctx: _Ctx) -> Report:
    cfg = ctx.cfg
    md = G.metric_data(ctx.pot)
    theta = G.holomorphy_potential(ctx.V, ctx.pot)
    target = (theta + G.SBAR) / 2.0
    ks, vals = [], []
    for k in cfg.k_list:
        psi = Q.psi_potential(ctx.lift(k, True), ctx.pot, md=md)
        vals.append(float(np.max(np.abs(k * psi.values - target))))
        ks.append(k)
    fit = fit_power_law(list(zip(ks, vals)))
    series = [Series("sup|k psi_k - (theta+2)/2|", ks, vals, fit)]
    decreasing = all(b < a for a, b in zip(vals, vals[1:]))
    predicted = fit.predict(ks[-1])
    factor = vals[-1] / predicted if predicted > 0 else math.inf
    verdicts = [
        Verdict("series decreasing", float(decreasing), 1.0, decreasing, ">="),
        Verdict("final vs fit prediction", factor, cfg.tol("psi_final_factor"), factor <= cfg.tol("psi_final_factor")),
    ]
    rep = Report("psi-expansion", series, verdicts, ctx.environment())
    rep.notes.append(f"twist rate constant {ctx.rate:.6f} (expected -pi/2 = {-math.pi/2:.6f})")
    return rep


def _three_path_defect(ctx: _Ctx, k: int, twisted: bool) -> float:
    """Max pairwise relative disagreement of three path integrals."""
    lift = ctx.lift(k, twisted)
    pot = ctx.pot
    mid = G.potential_from_radial_coeffs(ctx.grid, [-0.02, 0.04, 0.015, -0.01])
    i_lin = F.i_sigma_k(pot, k, lift, path=F.linear_path(pot))
    i_rep = F.i_sigma_k(pot, k, lift, path=F.reparam_path(pot, power=2))
    i_two = F.i_sigma_k(pot, k, lift, path=F.two_leg_path(mid, pot))
    ref = max(abs(i_lin), 1e-300)
    return max(abs(i_rep - i_lin), abs(i_two - i_lin), abs(i_two - i_rep)) / ref


def _exp_path_independence(ctx: _Ctx) -> Report:
    cfg = ctx.cfg
    ks = list(cfg.k_list)
    base_vals = [_three_path_defect(ctx, k, twisted=False) for k in ks]
    # twisted defect measured over a wider degree range to expose its decay
    ks_tw = sorted(set(ks) | {16, 32})
    tw_vals = [_three_path_defect(ctx, k, twisted=True) for k in ks_tw]
    fit_tw = fit_power_law(list(zip(ks_tw, tw_vals)))
    series = [
        Series("three-path defect (reference twist)", ks, base_vals, None),
        Series("three-path defect (gradient twist)", ks_tw, tw_vals, fit_tw),
    ]
    tol = cfg.tol("path_independence_rel")
    worst = max(base_vals)
    verdicts = [Verdict("path independence", worst, tol, worst <= tol)]
    rep = Report("path-independence", series, verdicts, ctx.environment())
    rep.notes.append(
        "the gated functional uses the flow of the extremal field, which is "
        "trivial on this model; the gradient-twist defect is second order in "
        f"the twist displacement (fitted decay {fit_tw.exponent:.2f})"
    )
    return rep


def _exp_hessian(ctx: _Ctx) -> Report:
    cfg = ctx.cfg
    pot = ctx.pot
    rels_by = {}
    for twisted in (False, True):
        for k in cfg.k_list:
            lift = ctx.lift(k, twisted)
            rng = np.random.default_rng([cfg.seed, k, int(twisted)])
            rels = []
            for _ in range(5):
                vel = ctx.seeded_potential(rng, 0.04).values
                acc = ctx.seeded_potential(rng, 0.03).values
                path = F.quadratic_path(pot, vel, acc)
                s0, h = 0.5, 0.02
                formula = F.i_sigma_hessian(path, s0, k, lift)
                ivals = [F.i_sigma_k(path.phi(s0 + d), k, lift) for d in (-h, 0.0, h)]
                fd = (ivals[0] - 2.0 * ivals[1] + ivals[2]) / h**2
                rels.append(abs(formula - fd) / abs(fd))
            rels_by[(twisted, k)] = max(rels)
    series = [
        Series(
            f"max rel err ({'gradient twist' if tw else 'identity twist'})",
            [k for (t, k) in rels_by if t == tw],
            [v for (t, k), v in rels_by.items() if t == tw],
            None,
        )
        for tw in (False, True)
    ]
    tol = cfg.tol("hessian_rel")
    worst = max(rels_by.values())
    verdicts = [Verdict("second-derivative formula", worst, tol, worst <= tol)]
    return Report("hessian-check", series, verdicts, ctx.environment())


def _exp_z_convexity(ctx: _Ctx) -> Report:
    cfg = ctx.cfg
    records = {}
    for twisted in (False, True):
        for k in cfg.k_list:
            lift = ctx.lift(k, twisted)
            rng = np.random.default_rng([cfg.seed, 77, k, int(twisted)])
            vals = []
            for _ in range(20):
                d0 = np.exp(rng.uniform(-1.0, 1.0, k + 1))
                d1 = np.exp(rng.uniform(-1.0, 1.0, k + 1))
                geo = F.bk_geodesic(
                    Q.HermForm(np.diag(d0).astype(complex), k),
                    Q.HermForm(np.diag(d1).astype(complex), k),
                )
                vals.append(F.z_second_derivative_fd(geo, ctx.grid, lift, s=0.5))
            records[(twisted, k)] = min(vals)
    series = [
        Series(
            f"min FD second derivative ({'gradient twist' if tw else 'identity twist'})",
            [k for (t, k) in records if t == tw],
            [v for (t, k), v in records.items() if t == tw],
            None,
        )
        for tw in (False, True)
    ]
    floor = cfg.tol("z_convexity_floor")
    worst = min(records.values())
    verdicts = [Verdict("geodesic convexity", worst, floor, worst >= floor, ">=")]
    return Report("z-convexity", series, verdicts, ctx.environment())


def _exp_concavity(ctx: _Ctx) -> Report:
    cfg = ctx.cfg
    level = cfg.tol("concavity_level")
    series = []
    k0s = []
    for twisted in (False, True):
        ks, vals = [], []
        for k in cfg.k_list:
            lift = ctx.lift(k, twisted)
            path = F.bergman_path(ctx.pot, k)
            vals.append(max(F.i_sigma_hessian(path, s, k, lift) for s in (0.0, 0.5, 1.0)))
            ks.append(k)
        ok = [v <= level for v in vals]
        k0 = next((k for k, good in zip(ks, ok) if good and all(ok[ks.index(k):])), None)
        k0s.append(k0)
        series.append(
            Series(
                f"max hessian along projection path ({'gradient twist' if twisted else 'identity twist'})",
                ks,
                vals,
                None,
            )
        )
    worst_k0 = max((k for k in k0s if k is not None), default=math.inf)
    if any(k is None for k in k0s):
        worst_k0 = math.inf
    verdicts = [
        Verdict("concavity threshold degree", float(worst_k0), float(cfg.tol("concavity_k0_max")), worst_k0 <= cfg.tol("concavity_k0_max"))
    ]
    rep = Report("i-concavity", series, verdicts, ctx.environment())
    rep.notes.append(f"concavity holds from degree {k0s} on (identity, gradient twist)")
    return rep


def _exp_compare(ctx: _Ctx) -> Report:
    cfg = ctx.cfg
    series, verdicts = [], []
    for twisted in (False, True):
        ks, vals = [], []
        for k in cfg.k_list:
            lift = ctx.lift(k, twisted)
            L = F.l_sigma_k(ctx.pot, k, lift)
            Z = F.z_sigma_k(Q.hilb(ctx.pot, k), ctx.grid, lift)
            vals.append(abs(L - Z) / k)
            ks.append(k)
        fit = fit_power_law(list(zip(ks, vals)))
        label = "gradient twist" if twisted else "identity twist"
        series.append(Series(f"|L - Z o hilb|/k ({label})", ks, vals, fit))
        verdicts.append(
            Verdict(f"fit exponent ({label})", fit.exponent, cfg.tol("compare_fit_p"), fit.exponent >= cfg.tol("compare_fit_p"), ">=")
        )
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
    cfg = ctx.cfg
    fam = _quantize_family(ctx)
    E_plain = np.array([F.mabuchi_energy(p) for p in fam])
    E_matched = E_plain + np.array([F.moment_energy(p, ctx.V) for p in fam])
    series, verdicts = [], []
    for twisted, targets, label in (
        (True, E_matched, "gradient twist vs matched energy"),
        (False, E_plain, "identity twist vs k-energy"),
    ):
        ks, vals = [], []
        for k in cfg.k_list:
            lift = ctx.lift(k, twisted)
            lk = np.array([(2.0 / k) * F.l_sigma_k(p, k, lift) for p in fam])
            ck = float(np.mean(targets - lk))
            vals.append(float(np.max(np.abs(lk + ck - targets))))
            ks.append(k)
        fit = fit_power_law(list(zip(ks, vals)))
        series.append(Series(f"max deviation ({label})", ks, vals, fit))
        if twisted:
            verdicts.append(
                Verdict("fit exponent (twisted)", fit.exponent, cfg.tol("quantize_fit_p"), fit.exponent >= cfg.tol("quantize_fit_p"), ">=")
            )
        else:
            decreasing = all(b < a for a, b in zip(vals, vals[1:]))
            verdicts.append(Verdict("identity deviation decreasing", float(decreasing), 1.0, decreasing, ">="))
    rep = Report("quantize-E", series, verdicts, ctx.environment())
    rep.notes.append(
        "with a twist the quantized energies converge to the k-energy plus the "
        "moment energy of the twist generator; the identity instance converges "
        "to the k-energy with an intrinsic subleading ratio that keeps its "
        "window fit near 0.8 for degrees up to 64 (reported, not gated)"
    )
    return rep


def _exp_almost_balanced(ctx: _Ctx) -> Report:
    cfg = ctx.cfg
    ref = G.zero_potential(ctx.grid)
    series, verdicts = [], []
    chain_worst = math.inf
    for twisted in (False, True):
        ks, fvals, bounds = [], [], []
        for k in cfg.k_list:
            lift = ctx.lift(k, twisted)
            fp, bound = F.fk_prime(ctx.pot, ref, k, lift)
            gap = (
                F.z_sigma_k(Q.hilb(ctx.pot, k), ctx.grid, lift)
                - F.z_sigma_k(Q.hilb(ref, k), ctx.grid, lift)
            ) / k
            chain_worst = min(chain_worst, gap - fp / k)
            ks.append(k)
            fvals.append(abs(fp) / k)
            bounds.append(bound)
        fit = fit_power_law(list(zip(ks, fvals)))
        label = "gradient twist" if twisted else "identity twist"
        series.append(Series(f"|f'(0)|/k ({label})", ks, fvals, fit))
        series.append(Series(f"max |lambda|/k ({label})", ks, bounds, None))
        if not twisted:
            if fit.flag == "exact":
                verdicts.append(Verdict("slope vanishes (exact)", 0.0, cfg.tol("exact_floor"), True))
            else:
                verdicts.append(
                    Verdict("slope decay", fit.exponent, 0.9, fit.exponent >= 0.9, ">=")
                )
    verdicts.append(
        Verdict("convexity chain inequality", chain_worst, -cfg.tol("chain_slack"), chain_worst >= -cfg.tol("chain_slack"), ">=")
    )
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
    floor = cfg.tol("minimization_floor")
    for gi, (name, grp) in enumerate(groups):
        rng = np.random.default_rng([cfg.seed, 13, gi])
        diffs = []
        for _ in range(50):
            pot = ctx.seeded_potential(rng, 0.05)
            diffs.append(F.modified_k_energy(pot, grp))
        series.append(Series(f"energy gap ({name} group)", list(range(len(diffs))), diffs, None))
        worst = min(diffs)
        verdicts.append(Verdict(f"minimum gap ({name})", worst, floor, worst >= floor, ">="))
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
    """Run one named experiment; numerical aborts become failing verdicts."""
    ctx = _Ctx(config)
    runner = EXPERIMENTS[config.experiment]
    try:
        return runner(ctx)
    except (G.KQuantError, Q.NotPositiveDefiniteError, FloatingPointError) as err:
        rep = Report(config.experiment, [], [Verdict("completed", 0.0, 1.0, False, ">=")], ctx.environment())
        rep.notes.append(f"aborted: {err}")
        return rep
