"""Toolkit for arbitrarily varying wiretap channels.

Channel algebra over finite alphabets, structural decision procedures
(symmetrisability, degradedness, best eavesdropper channel), numerical
secrecy-capacity bounds, and a desk-scale coding pipeline (random codebooks,
typicality decoding, permutation robustification, random-code reduction and
elimination of randomness) with exact enumeration-based verification.
"""

__version__ = "0.1.0"

from .bounds import (
    AuxiliaryChannelPair,
    BoundOptions,
    BoundResult,
    avc_capacity,
    multiletter_bound,
    secrecy_lower_bound,
    secrecy_upper_bound_single_letter,
)
from .channels import (
    AVWC,
    Channel,
    Distribution,
    StateSequence,
    enumeration_cap,
    iid_extension,
    index_to_word,
    mixture_channel,
    product_channel_matrix,
    product_channel_prob,
    word_to_index,
)
from .coding import (
    ERASURE,
    EvalReport,
    RandomCode,
    WiretapCode,
    build_random_codebook,
    chernoff_bound,
    check_secrecy_events,
    decode_rule,
    error_probability,
    error_under_product_mixture,
    evaluate_code,
    leakage_bits,
    leakage_under_product_mixture,
)
from .errors import (
    AvwcError,
    DegenerateRateError,
    NumericFailureError,
    PrefixSearchFailureError,
    ReductionFailureError,
    ResourceLimitError,
    SpecFormatError,
)
from .feasibility import FeasibilityResult, LinearSystem, solve_feasibility
from .information import (
    entropy,
    joint_mutual_information,
    kl_divergence,
    mutual_information,
)
from .pipeline import (
    EliminationResult,
    PermutationFamily,
    PrefixCode,
    eliminate_randomness,
    permutation_mean_error,
    reduce_random_code,
    robustify,
    search_prefix_code,
    verify_robustification,
)
from .structure import (
    BestChannelReport,
    DegradednessReport,
    SymmetrisabilityReport,
    find_best_eaves_channel,
    test_degraded,
    test_symmetrisable,
)
from .typicality import (
    TypicalityParams,
    TypicalityReport,
    cond_typical_set,
    typical_set,
    verify_typicality_bounds,
)
