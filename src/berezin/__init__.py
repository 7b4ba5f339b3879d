"""Exact anticommuting probability: Grassmann algebra, Berezin calculus,
anticommuting Brownian motion, Ito calculus, and Feynman-Kac evaluation of
ghost Hamiltonians, all with an independent operator-exponential oracle."""

from .algebra import (
    Family,
    GeneratorId,
    GrassmannElement,
    Parity,
    ONE,
    ZERO,
    aux,
    element_from_json,
    element_to_json,
    eta,
    gen,
    grassmann_exp,
    increment,
    monomial,
    norm,
    parity,
    scalar,
    substitute,
)
from .calculus import (
    SupersmoothFunction,
    apply_kernel,
    berezin_integrate,
    compose_kernels,
    grassmann_delta,
    partial_derivative,
    taylor_residual,
)
from .wiener import (
    BrownianMotion,
    Partition,
    RandomVariable,
    WienerSpace,
    bridge_covariance,
    finite_distribution,
    free_hamiltonian_apply,
    heat_equation_residual,
    heat_kernel,
    heat_kernel_difference,
    mu_distance,
)
from .stochastic import (
    AdaptedMatrix,
    AdaptedProcess,
    ItoProcess,
    MixedPolynomial,
    PicardResult,
    SdeSpec,
    integration_by_parts_residual,
    isometry_residual,
    ito_formula_residual,
    ito_integral,
    picard_solve,
    time_integral,
)
from .feynman_kac import (
    HamiltonianSpec,
    OperatorMatrix,
    apply_hamiltonian,
    closed_form_kernel,
    example_hamiltonian,
    fk_bruteforce,
    fk_evolve,
    hamiltonian_matrix,
    kernel_extract,
    kernel_variables,
    matrix_apply,
    monomial_basis,
    oracle_kernel,
    semigroup_oracle,
    state_variables,
)

__version__ = "0.1.0"
