"""Recovery of k-sparse binary signals from generalized linear measurements.

Library layout:

* numerics -- entropy, normal CDF, and the seeded randomness stack
* model    -- the linear / one-bit / logistic channels and Gaussian designs
* decode   -- top-k correlation, exhaustive MLE, single-measurement decoder
* bounds   -- closed-form sample-complexity catalog and the MLE bound curve
* harness  -- Monte Carlo trials (top-k ones from their scores' sufficient
              statistics), sweeps, threshold search, moment checks
* svgplot  -- dependency-free SVG line charts
"""

__version__ = "0.1.0"

from .numerics import (
    RngStream,
    binary_entropy,
    derive_trial_stream,
    sample_gaussian,
    sample_indices,
    std_normal_cdf,
)
from .model import (
    CHANNELS,
    Linear,
    Logistic,
    MeasurementVector,
    Model,
    OneBit,
    SensingMatrix,
    SparseSignal,
    gen_sensing_matrix,
    measure,
    model_tag,
    random_signal,
    sample_projections,
    sign_pm1,
)
from .decode import (
    BudgetExceededError,
    DecodeResult,
    decimal_decode,
    decimal_encode,
    decimal_roundtrip,
    decimal_row,
    mle_decode_linear,
    mle_prefix_decode,
    quantize,
    quantize_then_decode,
    topk_correlation_decode,
)
from .bounds import (
    BoundQuery,
    BoundReport,
    NoiselessRegimeError,
    ScanBound,
    all_or_nothing_threshold,
    bound_report,
    conjectured_alg_threshold,
    curve_to_csv,
    fano_correction,
    glm_fano_lower,
    linear_fano_lower,
    linear_shell_lower,
    logistic_fano_lower,
    mle_bound_curve,
    mle_sample_bound,
    onebit_fano_lower,
    shell_entropy,
    topk_sample_bound,
    topk_sample_bound_closed,
)
from .harness import (
    BracketError,
    M95Result,
    MomentCheck,
    SweepResult,
    TrialConfig,
    TrialOutcome,
    count_successes,
    estimate_m95,
    moment_check_logistic,
    moment_check_onebit,
    run_trial,
    sweep,
    wilson_interval,
)
