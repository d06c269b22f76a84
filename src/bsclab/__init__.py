"""Simulation and verification lab for interactive communication over
binary symmetric channels with feedback."""

from .core import (
    ALICE,
    BOB,
    CostLedger,
    ErrorCounts,
    InvariantViolation,
    IterationCapExceeded,
    Noise,
    ParameterError,
    ProtocolSpec,
    RandomSource,
    SpecError,
    bit_energy,
    count_errors,
    load_spec,
    run_over_bsc,
    spec_from_dict,
)
from .compressor import (
    ChunkParams,
    find_xi,
    low_error_mass,
    simulate_chunk,
    simulate_noiseless,
)
from .energy import (
    BitWithPrior,
    WalkOutcome,
    brw_to_top,
    expected_energy_cost,
    noiseless_from_noisy,
    noisy_from_noiseless,
    posterior_q,
    sample_with_prior,
    unbiased_walk,
)
from .infotheory import (
    FiniteJoint,
    binary_entropy,
    external_info_cost,
    ine_bounds,
    kl_bernoulli,
    table1_bound,
    uniform_inputs,
)
from .verify import (
    GofResult,
    chi_square_gof,
    exact_chunk_distribution,
    monte_carlo_chunk,
)

__version__ = "0.1.0"
