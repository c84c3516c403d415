"""Exact analysis of binary-input, binary-output non-signaling boxes.

Boxes are 4x4 conditional probability tables P(ab|xy). The package covers
validation and CHSH non-locality, the arcsin criterion for quantum
realizability, XOR composition of independent copies with its closed-form
distillation curves and constrained optimum, local relabelings with
depolarization onto the isotropic line, exhaustive search over two-copy
adaptive wirings, and the distributed AND game.
"""

from .boxes import (
    AB_LABELS,
    CHSH_LABELS,
    DEFAULT_TOL,
    XY_LABELS,
    Box,
    Correlators,
    FamilyParams,
    InvalidBoxError,
    NonSignalingCheck,
    SignalingBoxError,
    ValidationReport,
    Violation,
    chsh_csv,
    chsh_values,
    correlators,
    deterministic,
    is_local,
    is_non_signaling,
    isotropic,
    load_box,
    mix,
    nl,
    nl_correlators,
    noise,
    p_eps,
    p_eps_delta,
    pr,
    require_non_signaling,
    require_valid,
    validate,
)
from .distill import (
    MAX_OPTIMIZE_N,
    DistillationReport,
    DistillationRow,
    InfeasibleRegionError,
    Optimum,
    distillation_report,
    is_distillable_at,
    nl_closed_eps,
    nl_closed_eps_delta,
    optimize_quantum_distillation,
)
from .games import (
    AndGameStrategy,
    GameResult,
    and_game_success,
    and_game_success_closed,
    classical_and_optimum,
    play_and_game,
)
from .quantum import (
    TSIRELSON_BOUND,
    QuantumVerdict,
    arcsin_sums,
    is_quantum_box,
    is_quantum_correlators,
    tsirelson_check,
)
from .search import (
    RAW_STRATEGY_COUNT,
    SearchResult,
    behavior_class_count,
    behavior_key,
    canonical_strategy,
    enumerate_strategies,
    search_2copy,
)
from .symmetry import (
    Relabeling,
    canonical_form,
    chsh_functional,
    chsh_stabilizer,
    depolarize,
    relabelings,
)
from .wiring import (
    MAX_XOR_COPIES,
    AdaptiveStrategy,
    Wiring2,
    compose_wiring2,
    compose_xor,
    first_box_strategy,
    xor_correlator_law,
    xor_strategy,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
