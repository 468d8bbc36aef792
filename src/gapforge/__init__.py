"""gapforge: perfect-completeness amplification for CSP/PCP-style proof
systems via sampler-wired threshold circuits, plus the gap reductions and
brute-force oracles that validate the guarantees at desk scale."""

from .csp import (
    Clause,
    ConversionReport,
    CspInstance,
    csp_to_3sat,
    disjunction,
    evaluate_clause,
    parse_dimacs,
    parse_gcsp,
    parse_instance,
    satisfied_fraction,
    serialize,
)
from .circuit import (
    DEFAULT_SCHEME,
    GoodnessCertificate,
    RobustCircuit,
    ThresholdScheme,
    auto_fan_in,
    build_deterministic,
    build_randomized,
    certify_goodness,
    evaluate,
    parse_circuit,
    serialize_circuit,
)
from .oracle import (
    OracleReport,
    brute_force_opt,
    chernoff_tail,
    estimate,
    exhaustive_layer_check,
    is_satisfiable,
    lll_condition,
)
from .sampler import (
    RegularGraph,
    SamplerFamily,
    SamplerParams,
    SamplerReport,
    adversarial_corpus,
    build_expander,
    build_full_family,
    build_sampler_family,
    certify_sampler,
    mixing_bound,
    second_eigenvalue,
)
from .transform import (
    ProofString,
    TransformedSystem,
    acceptance_probability,
    exhaustive_adversary,
    export_checks_csp,
    greedy_adversary,
    honest_proof,
    run_check,
    transform,
)
from .gapeth import (
    ReductionParams,
    check_balanced,
    reduce_one_sided,
    reduce_two_sided,
    reduction_family,
    sample_list,
    solve_driver,
)

__version__ = "0.1.0"
