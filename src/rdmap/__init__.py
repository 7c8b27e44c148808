"""Certified norm brackets and heat-multiplier approximation on group rings.

The package models a few concrete groups with word lengths, certifies
conditional negativity of those lengths, and uses the resulting heat
multipliers, truncated to balls and rescaled by a certified bound, to
approximate the identity on finitely supported convolution operators with
finite-rank contractions.  Every reported quantity is a two-sided or
one-sided certified bound, never a heuristic estimate.
"""

from .groups import (
    DEFAULT_BALL_CAP,
    BallCapError,
    CyclicGroup,
    FreeAbelianGroup,
    FreeGroup,
    Group,
    GroupMismatchError,
)
from .harness import (
    ConvergenceRow,
    GridSchedule,
    RdSampleReport,
    default_schedule,
    rd_sample_report,
    rows_to_csv,
    rows_to_json,
    run_grid,
    select_epsilon,
)
from .kernels import (
    CnVerdict,
    DecayCertificate,
    KernelMatrix,
    PsdVerdict,
    cn_check,
    cn_check_matrix,
    decay_certificate,
    length_kernel,
    psd_check,
    schoenberg_kernel,
)
from .multipliers import (
    HeatMultiplier,
    MultiplierNormBound,
    TableMultiplier,
    apply,
    lemma_norm_bound,
    map_defect,
    scaled_multiplier,
    table_multiplier,
)
from .operators import (
    GroupRingElement,
    NormBracket,
    RdParams,
    UnsoundBoundError,
    builtin_rd_params,
    convolve,
    delta,
    l1_norm,
    l2_norm,
    opnorm_bracket,
    opnorm_lower,
    opnorm_upper,
    random_element,
    sobolev_norm,
)

__version__ = "0.1.0"

__all__ = [
    "BallCapError",
    "CnVerdict",
    "ConvergenceRow",
    "CyclicGroup",
    "DEFAULT_BALL_CAP",
    "DecayCertificate",
    "FreeAbelianGroup",
    "FreeGroup",
    "GridSchedule",
    "Group",
    "GroupMismatchError",
    "GroupRingElement",
    "HeatMultiplier",
    "KernelMatrix",
    "MultiplierNormBound",
    "NormBracket",
    "PsdVerdict",
    "RdParams",
    "RdSampleReport",
    "TableMultiplier",
    "UnsoundBoundError",
    "apply",
    "builtin_rd_params",
    "cn_check",
    "cn_check_matrix",
    "convolve",
    "decay_certificate",
    "default_schedule",
    "delta",
    "l1_norm",
    "l2_norm",
    "lemma_norm_bound",
    "length_kernel",
    "map_defect",
    "opnorm_bracket",
    "opnorm_lower",
    "opnorm_upper",
    "psd_check",
    "random_element",
    "rd_sample_report",
    "rows_to_csv",
    "rows_to_json",
    "run_grid",
    "scaled_multiplier",
    "schoenberg_kernel",
    "select_epsilon",
    "sobolev_norm",
    "table_multiplier",
]
