"""Positive definiteness for matrix-valued kernels, made computational.

The library certifies or refutes positive definiteness of matrix-valued
kernels both discretely (block Gram eigenvalues, with witnesses) and
integrally (quadratic forms against quadrature measures), links the two
views through Urysohn bump test functions and a Nystrom spectral
decomposition, and ships three application pipelines: Riesz-type energy
minimization, partition discretization of quadratic control functionals,
and ridge estimation of Volterra kernels.
"""

from .certify import (
    DEFAULT_TOLERANCE,
    GramBlockMatrix,
    PDReport,
    SearchReport,
    Witness,
    assemble_gram,
    certify_psd,
    direct_quadform,
    random_search_witness,
)
from .domains import (
    Ball,
    Box,
    Circle,
    QuadratureMeasure,
    distance,
    load_points_csv,
    make_box_domain,
    make_circle_domain,
    make_measure,
    restrict_measure,
)
from .integral import (
    GapReport,
    HarnessReport,
    TestFunction,
    ball_mass,
    constant_function,
    discretization_gap,
    equivalence_harness,
    measure_gram,
    mercer_test_function,
    quadform,
    random_test_functions,
    weighted_gram,
)
from .kernels import (
    BlockDiag,
    Brownian,
    Conjugate,
    Constant,
    Gaussian,
    Lift,
    MatrixKernel,
    NegDistance,
    Riesz,
    Scale,
    Sum,
    bound_estimate,
    build_kernel,
    gram_blocks,
    kernel_from_callable,
    kernel_zoo,
    spec_from_json,
    spec_to_json,
    symmetry_check,
)
from .spectral import (
    SpectralDecomposition,
    nystrom_decompose,
    quadform_via_spectrum,
    spectral_coefficients,
    trace_functional,
)
from .applications.control import (
    ControlQP,
    QPSolution,
    assemble_control_qp,
    qp_objective,
    refine_partition_study,
    solve_control_qp,
    solve_qp,
)
from .applications.energy import (
    Configuration,
    EnergyResult,
    discrete_energy,
    make_configuration,
    minimize_energy,
)
from .applications.estimation import (
    EstimationDataset,
    RidgeResult,
    load_dataset_csv,
    objective,
    ridge_estimate,
    save_dataset_csv,
    simulate_volterra_dataset,
)

__version__ = "0.1.0"
