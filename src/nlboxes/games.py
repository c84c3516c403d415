"""Distributed AND game evaluated exactly.

Alice holds bits (x1, x2), Bob holds (y1, y2), and they win when the XOR
of their output bits equals (x1 XOR y1) AND (x2 XOR y2). Expanding the
target over GF(2) splits it into the local products x1*x2 and y1*y2 plus
the cross terms x1*y2 and x2*y1, so two box uses, one per cross term,
turn any CHSH violation into a win-rate advantage: Alice plays box 1 with
x1 and box 2 with x2, Bob plays box 1 with y2 and box 2 with y1, and each
party XORs its local product with its two box outputs.

For a resource with CHSH functional S = X00 + X01 + X10 - X11 the win
probability is q**2 + (1-q)**2 with q = (4 + S) / 8. The authority is the
literal enumeration in ``_win_probability``, which ``and_game_success``
runs; tests check the closed form against it. ``play_and_game`` reads the
same value as one gathered product: the flat cells of the 128 winning
products are fixed at import in the enumeration's order, and their terms
are summed in that order from 0.0, so the result is the enumeration's bit
for bit, signed zeros included.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .boxes import DEFAULT_TOL, Box, _correlators, chsh_values, nl_correlators, require_non_signaling
from .wiring import _check_copies, _compose_xor


@dataclass(frozen=True)
class AndGameStrategy:
    """Resource box plus an optional XOR pre-distillation depth."""

    resource: Box
    m: int = 1

    def __post_init__(self) -> None:
        _check_copies(self.m, "m")


def _played_box(strategy: AndGameStrategy, tol: float) -> Box:
    """The resource, checked, then XOR-composed over m copies."""
    require_non_signaling(strategy.resource, tol)
    if strategy.m == 1:
        return strategy.resource
    return _compose_xor(strategy.resource, strategy.m, tol)


def _win_probability(box: Box) -> float:
    m = box.matrix
    total = 0.0
    for x1, x2, y1, y2 in product((0, 1), repeat=4):
        target = (x1 ^ y1) & (x2 ^ y2)
        for a1, b1, a2, b2 in product((0, 1), repeat=4):
            p = m[2 * x1 + y2, 2 * a1 + b1] * m[2 * x2 + y1, 2 * a2 + b2]
            a = (x1 & x2) ^ a1 ^ a2
            b = (y1 & y2) ^ b1 ^ b2
            if (a ^ b) == target:
                total += p
    return total / 16.0


# Flat cells (i, j) of the 128 winning products, in ``_win_probability``'s order.
_WIN_I, _WIN_J = np.array([
    (4 * (2 * x1 + y2) + 2 * a1 + b1, 4 * (2 * x2 + y1) + 2 * a2 + b2)
    for x1, x2, y1, y2 in product((0, 1), repeat=4)
    for a1, b1, a2, b2 in product((0, 1), repeat=4)
    if ((x1 & x2) ^ a1 ^ a2 ^ (y1 & y2) ^ b1 ^ b2) == ((x1 ^ y1) & (x2 ^ y2))
]).T


def _gathered_win_probability(box: Box) -> float:
    """``_win_probability`` as one gathered product over the winning cells.

    ``np.add.accumulate`` adds left to right, like the loop's ``total +=``,
    where ``np.sum`` would add pairwise. The leading 0.0 is the loop's
    start, so every partial sum is the loop's own, signed zeros included.
    """
    f = box.matrix.ravel()
    terms = np.concatenate(((0.0,), f[_WIN_I] * f[_WIN_J]))
    return np.add.accumulate(terms)[-1] / 16.0


def and_game_success(strategy: AndGameStrategy, tol: float = DEFAULT_TOL) -> float:
    """Exact win probability under uniform inputs, by full enumeration."""
    return _win_probability(_played_box(strategy, tol))


def and_game_success_closed(strategy: AndGameStrategy, tol: float = DEFAULT_TOL) -> float:
    """Closed form q**2 + (1-q)**2 with q = (4 + S)/8 of the played box."""
    s = chsh_values(_correlators(_played_box(strategy, tol)))[0]
    q = (4.0 + s) / 8.0
    return q * q + (1.0 - q) * (1.0 - q)


@lru_cache(maxsize=1)
def classical_and_optimum() -> float:
    """Best deterministic win rate, by exhausting all 16 x 16 strategy pairs.

    Each party's strategy is a truth table over its two input bits. Shared
    randomness mixes deterministic pairs and the win rate is linear in the
    mixture, so the deterministic maximum is the classical optimum.
    """
    best = 0.0
    for fa in range(16):
        for fb in range(16):
            wins = 0
            for x1, x2, y1, y2 in product((0, 1), repeat=4):
                a = (fa >> (2 * x1 + x2)) & 1
                b = (fb >> (2 * y1 + y2)) & 1
                if (a ^ b) == ((x1 ^ y1) & (x2 ^ y2)):
                    wins += 1
            best = max(best, wins / 16.0)
    return best


@dataclass(frozen=True)
class GameResult:
    resource_nl: float
    m: int
    s_value: float
    success: float
    classical_baseline: float

    @property
    def margin(self) -> float:
        return self.success - self.classical_baseline

    def to_json_dict(self) -> dict:
        return {**asdict(self), "margin": self.margin}


def play_and_game(resource: Box, m: int = 1, tol: float = DEFAULT_TOL) -> GameResult:
    """Evaluate the fixed cross-term strategy and report it against the classical bar."""
    played = _played_box(AndGameStrategy(resource, m), tol)
    return GameResult(
        resource_nl=nl_correlators(_correlators(resource)),
        m=m,
        s_value=chsh_values(_correlators(played))[0],
        success=_gathered_win_probability(played),
        classical_baseline=classical_and_optimum(),
    )
