"""Numerical laboratory for balanced metrics and energy functionals on the
polarized round sphere.

The model is the complex projective line with the degree-k line bundle
family, normalized to unit volume and mean scalar curvature 2.  The package
provides the potential calculus (grids, curvature, holomorphy potentials,
automorphism lifts), the quantization maps between potentials and positive
Hermitian forms on section spaces, the twisted energy functional stack with
its variational identities, and a config-driven experiment harness.
"""

from .geometry import (
    SBAR,
    VOLUME,
    AutomorphismLift,
    KQuantError,
    MetricData,
    NonKahlerError,
    Potential,
    VectorFieldSpec,
    holomorphy_potential,
    identity_lift,
    load_potential,
    metric_data,
    potential_from_radial_coeffs,
    potential_from_values,
    rotation_field,
    save_potential,
    sections_dim,
    sigma_lift,
    zero_potential,
)
from .grids import Full2DGrid, RadialGrid, build_grid
from .quantize import (
    BergmanField,
    HermForm,
    IterationLog,
    NotPositiveDefiniteError,
    PsiField,
    balanced_residual,
    bergman,
    fs,
    hilb,
    load_herm_form,
    psi_potential,
    save_herm_form,
    sigma_balanced_iterate,
)
from .functionals import (
    GeodesicInB,
    GroupSpec,
    PathInPotentials,
    bergman_path,
    bk_geodesic,
    calabi,
    circle_group,
    delta_i_sigma,
    delta_l_sigma,
    fk_prime,
    i_k,
    i_sigma_hessian,
    i_sigma_k,
    l_sigma_k,
    linear_path,
    mabuchi_energy,
    modified_k_energy,
    moment_energy,
    projection_pi,
    quadratic_path,
    reduced_scalar,
    reparam_path,
    segment_path,
    trivial_group,
    two_leg_path,
    z_second_derivative_fd,
    z_sigma_k,
)
from .lab import (
    ACCEPTANCE,
    EXPERIMENTS,
    PUBLISHED_BUMP,
    ExperimentConfig,
    fit_power_law,
    run_experiment,
)
from .reporting import FitResult, Report, Series, Verdict, emit_report, report_from_json

__version__ = "0.1.0"
