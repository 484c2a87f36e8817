"""Pairwise-potential toolkit for two-layer network training dynamics."""

from .descent import (
    DescentConfig,
    DescentReport,
    FunctionObjective,
    RandomBallInit,
    StationaritySet,
    gd,
    hessian_descent_step,
    initialize_node,
    min_eigpair,
    node_wise_descent,
    second_gd,
    stationarity_check,
)
from .dynamics import (
    ParticleSystem,
    gradient_flow_field,
    run_trajectory,
    step,
    system_from_objective,
    velocity_field,
)
from .harmonic import (
    LambdaHarmonicRadial,
    TabulatedPotential,
    build_almost_harmonic,
    lambda_harmonic_poly,
    load_or_build_almost_harmonic,
    radial_laplacian,
)
from .harness import (
    ExperimentConfig,
    LayeredNetwork,
    ResultRow,
    generate_separated_target,
    generate_target,
    match_to_target,
    recovery_experiment,
    run_table,
    sgd_train,
)
from .landscape import (
    LandscapeVerdict,
    earnshaw_trace_check,
    eigstrict_laplacian_check,
    poly_orthonormal_check,
    sign_circle_scan,
    subharmonic_sign_check,
)
from .loss import (
    Hypothesis,
    NodeObjective,
    Objective,
    TargetNetwork,
    VectorObjective,
    fd_gradient,
    fd_hessian,
    theta_laplacian,
)
from .potentials import (
    Activation,
    AlmostHarmonicPotential,
    BesselK0Activation,
    BesselK1RadialActivation,
    CoulombPotential,
    ExpLambdaHarmonicPotential,
    GaussianActivation,
    GaussianPotential,
    HermiteActivation,
    HermiteDualPotential,
    LaplaceExpPotential,
    LogPotential,
    PolynomialPotential,
    Potential,
    SignActivation,
    SignPotential,
    activation_from_potential_taylor,
    dual_from_hermite,
    empirical_dual,
    eval_potential,
    parse_potential,
    realizability_certificate_radial,
)

__version__ = "0.1.0"
