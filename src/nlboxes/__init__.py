"""Exact analysis of binary-input, binary-output non-signaling boxes.

Boxes are 4x4 conditional probability tables P(ab|xy). The package covers
validation and CHSH non-locality, the arcsin criterion for quantum
realizability, XOR composition of independent copies with its closed-form
distillation curves and constrained optimum, local relabelings with
depolarization onto the isotropic line, exhaustive search over two-copy
adaptive wirings, and the distributed AND game.

Names load on first use: ``import nlboxes`` imports neither numpy nor any
submodule, and the first access to a name, say ``nlboxes.search_2copy``,
imports the one submodule that defines it (with what that submodule
imports) and keeps the value in this namespace, so later accesses are
plain attribute lookups. The submodules themselves (``nlboxes.search`` and
so on) load the same way.
"""

from importlib import import_module as _import_module

# Each public name, by the submodule that defines it.
_SUBMODULE_NAMES = {
    "boxes": (
        "AB_LABELS", "CHSH_LABELS", "DEFAULT_TOL", "MAX_OPTIMIZE_N", "MAX_XOR_COPIES", "XY_LABELS", "Box",
        "Correlators", "FamilyParams", "InfeasibleRegionError", "InvalidBoxError", "NonSignalingCheck",
        "SignalingBoxError", "ValidationReport", "Violation", "chsh_csv", "chsh_values", "correlators",
        "deterministic", "is_local", "is_non_signaling", "isotropic", "load_box", "mix", "nl",
        "nl_correlators", "noise", "p_eps", "p_eps_delta", "pr", "require_non_signaling", "require_valid",
        "validate",
    ),
    "distill": (
        "DistillationReport", "DistillationRow", "Optimum", "distillation_report", "is_distillable_at",
        "nl_closed_eps", "nl_closed_eps_delta", "optimize_quantum_distillation",
    ),
    "games": (
        "AndGameStrategy", "GameResult", "and_game_success", "and_game_success_closed", "classical_and_optimum",
        "play_and_game",
    ),
    "quantum": (
        "TSIRELSON_BOUND", "QuantumVerdict", "arcsin_sums", "is_quantum_box", "is_quantum_correlators",
        "tsirelson_check",
    ),
    "search": (
        "RAW_STRATEGY_COUNT", "SearchResult", "behavior_class_count", "behavior_key", "canonical_strategy",
        "enumerate_strategies", "search_2copy",
    ),
    "symmetry": (
        "Relabeling", "canonical_form", "chsh_functional", "chsh_stabilizer", "depolarize", "relabelings",
    ),
    "wiring": (
        "AdaptiveStrategy", "Wiring2", "compose_wiring2", "compose_xor", "first_box_strategy",
        "xor_correlator_law", "xor_strategy",
    ),
}
_SUBMODULE_OF = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = sorted([*_SUBMODULE_OF, *_SUBMODULE_NAMES])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULE_NAMES:
        return _import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _SUBMODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_SUBMODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
