"""Closed-form distillation curves and the constrained optimum.

For the resource family ``p_eps_delta(eps, delta)`` the XOR protocol over
n copies has CHSH non-locality 3*(1-2*delta)**n - (1-2*eps)**n whenever
0 <= delta < eps < 1/2 (there the CHSH maximum sits at input pair 00 with
positive sign). The optimizer maximizes that value over n, eps and delta,
subject to the resource being quantum realizable and the protocol strictly
gaining.

With d = 1 - 2*delta and e = 1 - 2*eps the constraints are the quantum
bound 3*asin(d) - asin(e) <= pi, nl_in = 3*d - e > 2 and the gain
e - e**n > 3*(d - d**n), the last two with margin ``DISTILL_MARGIN``.
nl_in > 2 needs d > 1/3, where the gain's right side is positive, and
e - e**n <= 0 for e <= 0, so the gain needs e > 0. On e > 0 the objective
3*d**n - e**n falls as e rises. So for fixed (n, delta) the best point is
the lowest feasible e: the larger of the quantum boundary
e_q = sin(3*asin(d) - pi), which binds only for d > 1/2, and the smallest
e that passes the gain check, found by bisection on [0, n**(-1/(n-1))]
where e - e**n rises. That e is feasible iff it also passes the nl_in
check and e < 1. What remains is a 1-D problem in delta.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .boxes import (
    DEFAULT_TOL,
    Box,
    Correlators,
    FamilyParams,
    _clean,
    _correlators,
    check_tol,
    format_17g,
    nl_correlators,
    p_eps_delta,
    require_non_signaling,
)
from .quantum import is_quantum_correlators
from .wiring import _check_copies, _xor_powers

# Strictness margin for calling a point distillable; keeps boundary points
# from flipping on rounding noise.
DISTILL_MARGIN = 1e-12

# Halvings of the gain-root bracket, which ends 2**-64 of its first width.
_BISECTIONS = 64
# Most ulps ``_inside`` moves e; the array and scalar forms differ by a few.
_POLISH_ULPS = 16
# The optimizer's delta sweep spacing, and the spacing at which its
# refinement stops. Finer refinement only chases rounding: below a spacing
# of about 1e-9 the objective is flat to within an ulp.
_COARSE_STEP = 1e-3
_REFINE_TO = 1e-8


def nl_closed_eps(eps: float, n: int) -> float:
    """3 - (1 - 2*eps)**n, the distillation curve of ``p_eps``."""
    return nl_closed_eps_delta(eps, 0.0, n)


def nl_closed_eps_delta(eps: float, delta: float, n: int) -> float:
    """3*(1-2*delta)**n - (1-2*eps)**n, the curve of ``p_eps_delta``.

    Equals the CHSH non-locality of the composed box for
    delta <= eps <= 1 - delta, that is |1 - 2*eps| <= 1 - 2*delta; outside
    that regime it is still the CHSH expression at input pair 00 but no
    longer the maximum at every n.
    """
    FamilyParams(eps, delta)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 3.0 * (1.0 - 2.0 * delta) ** n - (1.0 - 2.0 * eps) ** n


def is_distillable_at(eps: float, delta: float, n: int) -> bool:
    """True iff the n-copy XOR protocol strictly gains on a non-local resource."""
    nl_in = nl_closed_eps_delta(eps, delta, 1)
    nl_out = nl_closed_eps_delta(eps, delta, n)
    return nl_out > nl_in + DISTILL_MARGIN and nl_in > 2.0 + DISTILL_MARGIN


@dataclass(frozen=True)
class DistillationRow:
    n: int
    nl_closed: float
    nl_brute: float
    distilled: bool


@dataclass(frozen=True)
class DistillationReport:
    """Per-n comparison of the closed form against brute-force composition."""

    eps: float
    delta: float
    resource_quantum: bool
    rows: tuple[DistillationRow, ...]

    def to_csv(self) -> str:
        lines = ["n,eps,delta,nl_in,nl_out,quantum,distillable"]
        nl_in = nl_closed_eps_delta(self.eps, self.delta, 1)
        for row in self.rows:
            lines.append(
                ",".join(
                    (
                        str(row.n),
                        format_17g(self.eps),
                        format_17g(self.delta),
                        format_17g(nl_in),
                        format_17g(row.nl_closed),
                        str(self.resource_quantum).lower(),
                        str(row.distilled).lower(),
                    )
                )
            )
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "eps": self.eps,
            "delta": self.delta,
            "resource_quantum": self.resource_quantum,
            "rows": [
                {
                    "n": row.n,
                    "nl_closed": row.nl_closed,
                    "nl_brute": row.nl_brute,
                    "distilled": row.distilled,
                }
                for row in self.rows
            ],
        }


def distillation_report(
    eps: float,
    delta: float,
    n_values: Iterable[int],
    tol: float = DEFAULT_TOL,
) -> DistillationReport:
    """Evaluate the XOR protocol at each n, both closed-form and brute-force.

    ``n_values`` is read once, so any iterable works; the rows follow its
    order, duplicates included. The resource is composed once, up to the
    largest n, and each row reads its n off that run: the same numbers as
    ``compose_xor`` at that n, bit for bit. Raises ``ValueError`` before
    any composition unless every n is an int in 1..16 and
    delta <= eps <= 1 - delta, the regime where the closed form is the
    composed box's CHSH value.
    """
    resource = p_eps_delta(eps, delta)
    if not delta <= eps <= 1.0 - delta:
        raise ValueError(
            f"the XOR closed form holds only for delta <= eps <= 1 - delta, got eps={eps!r}, delta={delta!r}"
        )
    n_values = list(n_values)
    for n in n_values:
        _check_copies(n)
    require_non_signaling(resource, tol)
    quantum, _ = is_quantum_correlators(
        Correlators(1.0 - 2.0 * delta, 1.0 - 2.0 * delta, 1.0 - 2.0 * delta, 1.0 - 2.0 * eps), tol
    )
    powers = _xor_powers(resource, max(n_values, default=1))
    rows = []
    for n in n_values:
        closed = nl_closed_eps_delta(eps, delta, n)
        brute = nl_correlators(_correlators(Box(_clean(powers[n - 1], tol))))
        if abs(closed - brute) > tol:
            raise AssertionError(
                f"closed form {closed!r} disagrees with composition {brute!r} at n={n}"
            )
        rows.append(DistillationRow(n, closed, brute, is_distillable_at(eps, delta, n)))
    return DistillationReport(eps, delta, quantum, tuple(rows))


@dataclass(frozen=True)
class Optimum:
    n: int
    eps: float
    delta: float
    nl_in: float
    nl_out: float


class InfeasibleRegionError(RuntimeError):
    """No parameter point satisfies the quantum and distillability constraints."""


def _lowest_feasible(ns: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Objective and e = 1 - 2*eps at the lowest feasible e, per (n, delta).

    ``ns`` indexes the rows and ``delta`` the columns. The value is -inf
    where no eps is feasible for that pair.
    """
    n = ns[:, None]
    d = 1.0 - 2.0 * delta[None, :]
    # Quantum boundary 3*asin(d) - asin(e) <= pi; it binds only for d > 1/2.
    e_q = np.where(d > 0.5, np.sin(3.0 * np.arcsin(d) - math.pi), -1.0)
    # Gain root: the gain rises in e on [0, n**(-1/(n-1))]; bisect there for the
    # smallest e that passes the gain check as written, kept in (hi - 2*width, hi].
    out_d = 3.0 * d**n
    in_d = 3.0 * d
    width = 0.5 * n ** (-1.0 / (n - 1.0))
    hi = 2.0 * width
    for _ in range(_BISECTIONS):
        mid = hi - width
        hi = np.where(out_d - mid**n > in_d - mid + DISTILL_MARGIN, mid, hi)
        width = 0.5 * width
    e = np.maximum(e_q, hi)
    nl_in = in_d - e
    nl_out = out_d - e**n
    feasible = (nl_in > 2.0 + DISTILL_MARGIN) & (nl_out > nl_in + DISTILL_MARGIN) & (e < 1.0)
    return np.where(feasible, nl_out, -np.inf), e


def _best(ns: np.ndarray, delta: np.ndarray) -> tuple[float, int, float, float]:
    """(value, n, e, delta) of the best pair; ties go to smaller n, then smaller delta."""
    values, e = _lowest_feasible(ns, delta)
    i, j = np.unravel_index(np.argmax(values), values.shape)
    return float(values[i, j]), int(ns[i]), float(e[i, j]), float(delta[j])


def _inside(n: int, e: float, delta: float) -> float:
    """The eps of the first e, going up by ulps, that the scalar checks accept.

    Array rounding can leave a boundary point an ulp outside
    ``is_quantum_correlators`` or ``is_distillable_at``; a larger e is inward of both.
    """
    d = 1.0 - 2.0 * delta
    for _ in range(_POLISH_ULPS):
        eps = (1.0 - e) / 2.0
        _, slack = is_quantum_correlators(Correlators(d, d, d, 1.0 - 2.0 * eps), 0.0)
        if slack <= 0.0 and is_distillable_at(eps, delta, n):
            break
        e = math.nextafter(e, 1.0)
    return eps


def optimize_quantum_distillation(
    n_max: int = 20,
    fixed_delta: float | None = None,
    tol: float = DEFAULT_TOL,
) -> Optimum:
    """Best quantum-realizable resource for the XOR protocol, deterministically.

    Scans n from 2 to ``n_max``. For each (n, delta) the best eps is
    exact: it gives the lowest feasible e = 1 - 2*eps (see the module
    docstring). Under ``fixed_delta`` that settles the answer. Otherwise
    delta is swept over [0, 1/6), outside which nothing is feasible, at
    spacing 1e-3. The best delta is then refined by nested 41-point grids
    of half-width 2*step, step starting at 1e-3 and divided by ten per
    level while it is at least 1e-8, so the last spacing is 1e-9. Ties
    break toward smaller n, then smaller delta.

    The returned point passes the arcsine test with zero slack or lies
    inside it, so ``nl_out`` exceeds 1 + sqrt(2) by rounding at most (it
    does not at the defaults); ``tol`` loosens only the final feasibility
    assertion, never the search. Raises
    ``InfeasibleRegionError`` when no evaluated point satisfies the
    constraints (at delta = 0, for instance), and ``ValueError`` before any
    evaluation unless ``n_max`` >= 2, ``fixed_delta`` is None or in [0, 1],
    and ``tol`` is finite and >= 0.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    check_tol(tol)
    if fixed_delta is not None and not 0.0 <= fixed_delta <= 1.0:
        raise ValueError(f"fixed_delta must be in [0, 1], got {fixed_delta}")

    ns = np.arange(2, n_max + 1)
    if fixed_delta is not None:
        best = _best(ns, np.array([fixed_delta], dtype=float))
    else:
        # nl_in = 3*d - e > 2 with e > 0 needs d > 2/3, so delta < 1/6.
        best = _best(ns, np.arange(0.0, 1.0 / 6.0, _COARSE_STEP))
        step = _COARSE_STEP
        while step >= _REFINE_TO:
            centre = best[3]
            delta = np.linspace(max(0.0, centre - 2.0 * step), min(1.0, centre + 2.0 * step), 41)
            found = _best(ns, delta)
            if found[0] > best[0]:
                best = found
            step /= 10.0
    value, n_star, e_star, delta_star = best
    if value == -np.inf:
        raise InfeasibleRegionError("no feasible (eps, delta, n) point")

    eps_star = _inside(n_star, e_star, delta_star)
    value = nl_closed_eps_delta(eps_star, delta_star, n_star)
    nl_in = nl_closed_eps_delta(eps_star, delta_star, 1)
    d = 1.0 - 2.0 * delta_star
    quantum, _ = is_quantum_correlators(Correlators(d, d, d, 1.0 - 2.0 * eps_star), tol)
    if not quantum or value <= nl_in:
        raise AssertionError("optimizer returned an infeasible point")
    return Optimum(n_star, eps_star, delta_star, nl_in, value)
