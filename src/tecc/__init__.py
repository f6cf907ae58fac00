"""Triple-error-correcting binary codes from pairs of power functions.

Builds [2^n - 1, 2^n - 3n - 1, 7] codes over GF(2^n) for odd n from four
catalogued families of exponent pairs, certifies the five-valued transform
spectrum that pins the minimum distance at 7, verifies the kernel bounds
behind that certificate by exact GF(2) linear algebra, and ships a syndrome
decoder correcting up to three errors.
"""

from .field import FieldCtx, make_ctx
from .functions import (
    FAMILY_NAMES,
    ConditionViolated,
    DegeneratePair,
    FamilySpec,
    MonomialPair,
    family_exponents,
    instantiate,
    is_apn,
    monomial_pair,
    power_table,
)
from .spectrum import (
    SpectrumReport,
    allowed_values,
    full_spectrum,
    single_table_spectrum,
    spectrum_for_bc,
    transform_single,
)
from .kernel import (
    GoldKernelSummary,
    KasamiKernelSummary,
    KernelReport,
    LinearizedMap,
    gold_kernel_scan,
    gold_map,
    kasami_g_form,
    kasami_kernel_scan,
    kasami_map,
    kernel_of,
)
from .code import (
    ParityCheckMatrix,
    RankDefect,
    SystematicGenerator,
    WeightDistribution,
    build_parity_check,
    codeword_weight_distribution,
    dual_weights_from_spectrum,
    encode,
    extract_message,
    min_distance_bruteforce,
    rank_and_dimension,
    systematic_generator,
    weight3_syndromes_distinct,
)
from .macwilliams import (
    NonIntegralResult,
    macwilliams_transform,
    verify_distance7,
)
from .decoder import (
    CollisionDetected,
    DecodeResult,
    PairIndex,
    Syndrome,
    build_pair_index,
    column_syndrome,
    decode,
    syndrome_of,
)

__version__ = "0.1.0"
