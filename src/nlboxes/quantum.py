"""Quantum realizability of correlator tuples and boxes.

A tuple of four correlators is reachable by measurements on a shared
quantum state exactly when, for every input pair, the arcsines of the
three aligned correlators minus the arcsine of the fourth stay within pi
in absolute value. The Tsirelson bound 2*sqrt(2) on CHSH values follows
from this criterion but is strictly weaker, and both tests are exposed so
the gap can be exhibited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .boxes import (
    DEFAULT_TOL,
    Box,
    Correlators,
    chsh_values,
    correlators,
    require_non_signaling,
)

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)


def _arcsin(value: float, tol: float) -> float:
    if not abs(value) <= 1.0 + tol:  # also rejects NaN
        raise ValueError(f"correlator {value!r} is not in [-1, 1]")
    # Clamp so saturated tuples (e.g. all |X| = 1) cannot produce NaN.
    return math.asin(min(1.0, max(-1.0, value)))


def arcsin_sums(c: Correlators, tol: float = DEFAULT_TOL) -> tuple[float, float, float, float]:
    """The four signed arcsine combinations, one per input pair."""
    grid = ((c.x00, c.x01), (c.x10, c.x11))
    asin = ((_arcsin(grid[0][0], tol), _arcsin(grid[0][1], tol)),
            (_arcsin(grid[1][0], tol), _arcsin(grid[1][1], tol)))
    vals = []
    for x in (0, 1):
        for y in (0, 1):
            vals.append(asin[x][y] + asin[x][1 - y] + asin[1 - x][y] - asin[1 - x][1 - y])
    return tuple(vals)


def is_quantum_correlators(c: Correlators, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Decide quantum realizability of a correlator tuple.

    Returns ``(verdict, slack)`` where ``slack`` is the largest absolute
    arcsine combination minus pi; the tuple is quantum iff ``slack <= tol``.
    """
    worst = max(abs(v) for v in arcsin_sums(c, tol)) - math.pi
    return worst <= tol, worst


@dataclass(frozen=True)
class QuantumVerdict:
    """Outcome of a box-level quantum realizability test.

    ``correlator_level_only`` marks boxes whose marginals are not uniform:
    for those the verdict certifies only that the correlators are quantum
    reachable, since the uniform-marginal lifting does not apply.
    """

    quantum: bool
    slack: float
    correlator_level_only: bool = False

    def __bool__(self) -> bool:
        return self.quantum


def has_uniform_marginals(box: Box, tol: float = DEFAULT_TOL) -> bool:
    m = box.matrix
    for r in range(4):
        if abs(float(m[r, 0] + m[r, 1]) - 0.5) > tol:
            return False
        if abs(float(m[r, 0] + m[r, 2]) - 0.5) > tol:
            return False
    return True


def is_quantum_box(box: Box, tol: float = DEFAULT_TOL) -> QuantumVerdict:
    """Quantum realizability of a non-signaling box.

    With uniform marginals the correlator criterion settles the question:
    local output randomization realizes any quantum correlator tuple as a
    full box. Otherwise the verdict is flagged ``correlator_level_only``.
    """
    require_non_signaling(box, tol)
    ok, slack = is_quantum_correlators(correlators(box, tol), tol)
    return QuantumVerdict(ok, slack, correlator_level_only=not has_uniform_marginals(box, tol))


def tsirelson_check(c: Correlators, tol: float = DEFAULT_TOL) -> bool:
    """Necessary condition only: largest CHSH value at most 2*sqrt(2)."""
    return max(chsh_values(c)) <= TSIRELSON_BOUND + tol
