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
    _correlators,
    _marginals,
    check_tol,
    chsh_values,
    nl_correlators,
    require_non_signaling,
)

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)


def _arcsin(value: float, tol: float) -> float:
    if not abs(value) <= 1.0 + tol:
        raise ValueError(f"correlator {value!r} is not in [-1, 1]")
    # Clamp so saturated tuples (e.g. all |X| = 1) cannot produce NaN.
    return math.asin(min(1.0, max(-1.0, value)))


def arcsin_sums(c: Correlators, tol: float = DEFAULT_TOL) -> tuple[float, float, float, float]:
    """The four signed arcsine combinations, one per input pair.

    They are the first four CHSH expressions taken over the arcsines of
    the correlators.
    """
    tol = check_tol(tol)
    return chsh_values(Correlators(*(_arcsin(v, tol) for v in c.as_tuple())))[:4]


def is_quantum_correlators(c: Correlators, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Decide quantum realizability of a correlator tuple.

    Returns ``(verdict, slack)`` where ``slack`` is the largest absolute
    arcsine combination minus pi; the tuple is quantum iff ``slack <= tol``.
    """
    tol = check_tol(tol)
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
    """True iff P(a=0|xy) and P(b=0|xy) are 1/2 within ``tol`` on every row.

    The box is not validated: a NaN marginal, which no comparison passes,
    makes the answer False.
    """
    tol = check_tol(tol)
    alice, bob = _marginals(box)
    return all(abs(p[0] - 0.5) <= tol for p in alice + bob)


def is_quantum_box(box: Box, tol: float = DEFAULT_TOL) -> QuantumVerdict:
    """Quantum realizability of a non-signaling box.

    With uniform marginals the correlator criterion settles the question:
    local output randomization realizes any quantum correlator tuple as a
    full box. Otherwise the verdict is flagged ``correlator_level_only``.

    A box valid within ``tol`` can have a correlator up to 5 ``tol`` past
    [-1, 1], and a little more after rounding: (a - c) + (d - b) is the row
    sum, at most 1 + tol, less twice b + c, where each entry is at least
    -tol. So the correlators are clamped into [-1, 1] first, as ``_arcsin``
    clamps those within ``tol`` of it, and every valid box gets a verdict.
    """
    require_non_signaling(box, tol)
    clamped = (min(1.0, max(-1.0, v)) for v in _correlators(box).as_tuple())
    ok, slack = is_quantum_correlators(Correlators(*clamped), tol)
    return QuantumVerdict(ok, slack, correlator_level_only=not has_uniform_marginals(box, tol))


def tsirelson_check(c: Correlators, tol: float = DEFAULT_TOL) -> bool:
    """Necessary condition only: largest CHSH value at most 2*sqrt(2)."""
    tol = check_tol(tol)
    return nl_correlators(c) <= TSIRELSON_BOUND + tol
