"""Closed-form distillation curves and the constrained optimum.

For the resource family ``p_eps_delta(eps, delta)`` the XOR protocol over
n copies has CHSH non-locality 3*(1-2*delta)**n - (1-2*eps)**n whenever
delta <= eps <= 1 - delta (there the CHSH maximum sits at input pair 00
with positive sign; see ``nl_closed_eps_delta``). The optimizer maximizes
that value over n, eps and delta, subject to the resource being quantum
realizable and the protocol strictly gaining.

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

The lowest feasible e is at least max(e_q, 0), and e**n rises on e >= 0,
so 3*d**n - max(e_q, 0)**n bounds the objective from above at every
(n, delta). Rounding is monotone, so the bound holds in floating point up
to pow's ulp-level error, which ``_BOUND_SLACK`` covers. The optimizer
skips every n row whose largest bound is below a floor, a value some
point already reaches: such a row cannot hold the best pair. The coarse
sweep's floor is the objective at its grid point of largest bound; each
refinement level's floor is the best value so far. A row gives the same
bits alone as inside the full grid, so the answer is the unpruned one. At
the defaults only the n = 2 row is evaluated.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import asdict, dataclass

import numpy as np

from .boxes import (
    DEFAULT_TOL,
    MAX_OPTIMIZE_N,
    MAX_XOR_COPIES,
    Correlators,
    FamilyParams,
    InfeasibleRegionError,
    _check_int,
    _check_unit,
    _clean,
    _correlator_rows,
    check_tol,
    format_17g,
    nl_correlators,
    p_eps_delta,
    require_non_signaling,
)
from .quantum import is_quantum_correlators
from .wiring import _xor_powers

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
# Slack on ``_bound`` before it rules an n row out: it covers pow's ulp-level
# error, so no row whose value could reach the floor is skipped.
_BOUND_SLACK = 1e-12


def nl_closed_eps(eps: float, n: int) -> float:
    """3 - (1 - 2*eps)**n, the distillation curve of ``p_eps``."""
    return nl_closed_eps_delta(eps, 0.0, n)


def nl_closed_eps_delta(eps: float, delta: float, n: int) -> float:
    """3*(1-2*delta)**n - (1-2*eps)**n, the curve of ``p_eps_delta``.

    Equals the CHSH non-locality of the composed box for
    delta <= eps <= 1 - delta, that is |1 - 2*eps| <= 1 - 2*delta; outside
    that regime it is still the CHSH expression at input pair 00 but no
    longer the maximum at every n. Raises ``ValueError`` unless ``n`` is an
    int in 1..``sys.maxsize``, Python or numpy and not a bool: the bound
    keeps the powers within a float's exponent.
    """
    params = FamilyParams(eps, delta)
    n = _check_int(n, "n", 1)
    return 3.0 * (1.0 - 2.0 * params.delta) ** n - (1.0 - 2.0 * params.eps) ** n


def is_distillable_at(eps: float, delta: float, n: int) -> bool:
    """True iff the n-copy XOR protocol strictly gains on a non-local resource."""
    return _gains(nl_closed_eps_delta(eps, delta, 1), nl_closed_eps_delta(eps, delta, n))


def _gains(nl_in: float, nl_out: float) -> bool:
    """``is_distillable_at`` of the closed-form values at 1 and n copies."""
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
        # asdict keeps ``rows`` a tuple, which never equals the list that JSON reads back.
        return {**asdict(self), "rows": [asdict(row) for row in self.rows]}


def distillation_report(
    eps: float,
    delta: float,
    n_values: Iterable[int],
    tol: float = DEFAULT_TOL,
) -> DistillationReport:
    """Evaluate the XOR protocol at each n, both closed-form and brute-force.

    ``n_values`` is read once, so any iterable works; the rows follow its
    order, duplicates included. The resource is composed once, up to the
    largest n, as one (n_max, 4, 4) stack that is cleaned and reduced to
    correlators in one batch; each row reads its n off that batch: the same
    numbers as ``compose_xor`` at that n, bit for bit. The closed form and
    the composition are compared on every row, and the distillability
    verdict reuses one nl_in for all rows. Raises ``ValueError`` before
    any composition unless every n is an int in 1..16 and
    delta <= eps <= 1 - delta, the regime where the closed form is the
    composed box's CHSH value. Each n is checked as it is read, so reading
    stops at the first bad one: a long range fails at 17 without being
    listed.
    """
    params = FamilyParams(eps, delta)  # plain floats from here on
    eps, delta = params.eps, params.delta
    resource = p_eps_delta(eps, delta)
    if not delta <= eps <= 1.0 - delta:
        raise ValueError(
            f"the XOR closed form holds only for delta <= eps <= 1 - delta, got eps={eps!r}, delta={delta!r}"
        )
    ns = [_check_int(n, "n", 1, MAX_XOR_COPIES) for n in n_values]
    tol = check_tol(tol)
    require_non_signaling(resource, tol)
    quantum, _ = is_quantum_correlators(
        Correlators(1.0 - 2.0 * delta, 1.0 - 2.0 * delta, 1.0 - 2.0 * delta, 1.0 - 2.0 * eps), tol
    )
    # Row k - 1 holds the correlators of the cleaned k-copy box.
    correlator_rows = _correlator_rows(_clean(_xor_powers(resource, max(ns, default=1)), tol))
    nl_in = nl_closed_eps_delta(eps, delta, 1)
    rows = []
    for n in ns:
        closed = nl_closed_eps_delta(eps, delta, n)
        brute = nl_correlators(Correlators(*correlator_rows[n - 1]))
        if abs(closed - brute) > tol:
            raise AssertionError(
                f"closed form {closed!r} disagrees with composition {brute!r} at n={n}"
            )
        rows.append(DistillationRow(n, closed, brute, _gains(nl_in, closed)))
    return DistillationReport(eps, delta, quantum, tuple(rows))


@dataclass(frozen=True)
class Optimum:
    n: int
    eps: float
    delta: float
    nl_in: float
    nl_out: float


def _grid(ns: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n as floats at full grid shape, d = 1 - 2*delta as a row, and the quantum boundary e_q.

    n is a full array, never a broadcast column: numpy squares the base
    when the exponent is a lone 2, even broadcast, and that square is not
    bit for bit the pow that the same 2 gets inside a larger grid. So each
    row gives the same bits alone as in any grid with more than one column.
    """
    n = np.repeat(ns[:, None].astype(float), delta.size, axis=1)
    d = 1.0 - 2.0 * delta[None, :]
    # Quantum boundary 3*asin(d) - asin(e) <= pi; it binds only for d > 1/2.
    return n, d, np.where(d > 0.5, np.sin(3.0 * np.arcsin(d) - math.pi), -1.0)


def _bound(ns: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """3*d**n - max(e_q, 0)**n, at least ``_lowest_feasible``'s objective per (n, delta).

    Holds in floating point up to pow's ulp error: see the module docstring.
    """
    n, d, e_q = _grid(ns, delta)
    return 3.0 * d**n - np.maximum(e_q, 0.0) ** n


def _lowest_feasible(ns: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Objective and e = 1 - 2*eps at the lowest feasible e, per (n, delta).

    ``ns`` indexes the rows and ``delta`` the columns. The value is -inf
    where no eps is feasible for that pair.
    """
    n, d, e_q = _grid(ns, delta)
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


def _best(
    ns: np.ndarray, delta: np.ndarray, floor: float | None = None
) -> tuple[float, int, float, float]:
    """(value, n, e, delta) of the best pair; ties go to smaller n, then smaller delta.

    Under a ``floor`` the n rows whose bound stays below it are skipped, as
    none of their values reaches it; value is -inf when every row is.
    """
    if floor is not None:
        ns = ns[_bound(ns, delta).max(axis=1) + _BOUND_SLACK >= floor]
        if not ns.size:
            return -math.inf, 0, math.nan, math.nan
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

    Scans n from 2 to ``n_max``, skipping the n rows that an exact bound
    rules out. For each (n, delta) the best eps is exact: it gives the
    lowest feasible e = 1 - 2*eps (see the module docstring). Under
    ``fixed_delta`` that settles the answer. Otherwise delta is swept over
    [0, 1/6), outside which nothing is feasible, at spacing 1e-3. The best
    delta is then refined by nested 41-point grids of half-width 2*step,
    step starting at 1e-3 and divided by ten per level while it is at
    least 1e-8, so the last spacing is 1e-9. Ties break toward smaller n,
    then smaller delta.

    The returned point passes the arcsine test with zero slack or lies
    inside it, so ``nl_out`` exceeds 1 + sqrt(2) by rounding at most (it
    does not at the defaults); ``tol`` loosens only the final feasibility
    assertion, never the search. Raises
    ``InfeasibleRegionError`` when no evaluated point satisfies the
    constraints (at delta = 0, for instance), and ``ValueError`` before any
    evaluation unless ``n_max`` is an int in 2..``MAX_OPTIMIZE_N``,
    ``fixed_delta`` is None or a number in [0, 1], and ``tol`` is a finite
    number >= 0; a number is a Python or numpy int or float, not a bool.
    """
    n_max = _check_int(n_max, "n_max", 2, MAX_OPTIMIZE_N)
    tol = check_tol(tol)
    if fixed_delta is not None:
        fixed_delta = _check_unit(fixed_delta, "fixed_delta")

    ns = np.arange(2, n_max + 1)
    if fixed_delta is not None:
        best = _best(ns, np.array([fixed_delta], dtype=float))
    else:
        # nl_in = 3*d - e > 2 with e > 0 needs d > 2/3, so delta < 1/6.
        delta = np.arange(0.0, 1.0 / 6.0, _COARSE_STEP)
        # The coarse floor is the objective at the grid point of largest bound.
        i, j = np.unravel_index(np.argmax(_bound(ns, delta)), (ns.size, delta.size))
        best = _best(ns, delta, _lowest_feasible(ns[i : i + 1], delta[j : j + 1])[0].item())
        step = _COARSE_STEP
        while step >= _REFINE_TO:
            centre = best[3]
            delta = np.linspace(max(0.0, centre - 2.0 * step), min(1.0, centre + 2.0 * step), 41)
            found = _best(ns, delta, best[0])
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
