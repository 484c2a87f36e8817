"""Pairwise-potential toolkit for two-layer network training dynamics."""

from .descent import (
    DescentConfig,
    DescentReport,
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
    run_trajectory,
    step,
    system_from_objective,
    velocity_field,
)
from .harmonic import (
    LambdaHarmonicRadial,
    TabulatedPotential,
    build_almost_harmonic,
    load_or_build_almost_harmonic,
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
)
from .potentials import (
    CoulombPotential,
    GaussianPotential,
    LaplaceExpPotential,
    LogPotential,
    PolynomialPotential,
    Potential,
    SignPotential,
    parse_potential,
)

__version__ = "0.1.0"
