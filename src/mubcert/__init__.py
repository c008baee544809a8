"""Certification of genuine multipartite entanglement from correlations
measured in pairs of mutually unbiased bases."""

from .correlations import (
    BasisAssignment,
    CertificationReport,
    LbpsPatternSet,
    Witness,
    diagonal_set,
    i3,
    i3_oracle,
    i3_witness,
    i4,
    i4_oracle,
    i4_witness,
    i_m_bipartite,
    i_m_witness,
    i_value_oracle,
    joint_probability,
    lbps_quadripartite,
    lbps_tripartite,
    outcome_distribution,
    uniform_setting,
)
from .linalg import (
    DensityMatrix,
    InvariantError,
    StateVector,
    mix,
    partial_trace,
    permute_parties,
)
from .locc import (
    PovmParams,
    PovmSweepResult,
    min_omega_family,
    omega,
    omega_stack,
    sweep,
)
from .measures import global_q, triangle_tau
from .mub import (
    Basis,
    MubFamily,
    computational_basis,
    fourier_basis,
    fourier_pair,
    is_unbiased,
    prime_mub_family,
    qubit_mub_triple,
)
from .states import (
    bipartitions,
    ghz3,
    ghz4,
    psi_lambda,
    random_pure,
    w3,
    wg4,
)

__version__ = "0.1.0"
