"""Closed-form distillation curves and the constrained optimum.

For the resource family ``p_eps_delta(eps, delta)`` the XOR protocol over
n copies has CHSH non-locality 3*(1-2*delta)**n - (1-2*eps)**n whenever
0 <= delta < eps < 1/2 (there the CHSH maximum sits at input pair 00 with
positive sign). The optimizer maximizes that value over n and over the
parameter rectangle, subject to the resource being quantum realizable and
the protocol strictly gaining, by a deterministic coarse grid followed by
local refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import DEFAULT_TOL, Correlators, FamilyParams, format_17g, nl, p_eps_delta
from .quantum import is_quantum_correlators
from .wiring import compose_xor

# Strictness margin for calling a point distillable; keeps boundary points
# from flipping on rounding noise.
DISTILL_MARGIN = 1e-12


def nl_closed_eps(eps: float, n: int) -> float:
    """3 - (1 - 2*eps)**n, the distillation curve of ``p_eps``."""
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 3.0 - (1.0 - 2.0 * eps) ** n


def nl_closed_eps_delta(eps: float, delta: float, n: int) -> float:
    """3*(1-2*delta)**n - (1-2*eps)**n, the curve of ``p_eps_delta``.

    Equals the CHSH non-locality of the composed box for
    0 <= delta <= eps and delta <= 1/2; outside that regime it is still
    the CHSH expression at input pair 00 but no longer the maximum.
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
    n_values: list[int] | range,
    tol: float = DEFAULT_TOL,
) -> DistillationReport:
    """Evaluate the XOR protocol at each n, both closed-form and brute-force."""
    resource = p_eps_delta(eps, delta)
    quantum, _ = is_quantum_correlators(
        Correlators(1.0 - 2.0 * delta, 1.0 - 2.0 * delta, 1.0 - 2.0 * delta, 1.0 - 2.0 * eps), tol
    )
    rows = []
    for n in n_values:
        closed = nl_closed_eps_delta(eps, delta, n)
        brute = nl(compose_xor(resource, n, tol), tol)
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


def _feasible_values(
    n: int, eps: np.ndarray, delta: np.ndarray, tol: float
) -> np.ndarray:
    """Objective over a parameter grid, -inf where constraints fail."""
    e_grid, d_grid = np.meshgrid(eps, delta, indexing="ij")
    e = 1.0 - 2.0 * e_grid
    d = 1.0 - 2.0 * d_grid
    nl_in = 3.0 * d - e
    nl_out = 3.0 * d**n - e**n
    asin_e = np.arcsin(np.clip(e, -1.0, 1.0))
    asin_d = np.arcsin(np.clip(d, -1.0, 1.0))
    quantum = (np.abs(3.0 * asin_d - asin_e) <= math.pi + tol) & (
        np.abs(asin_d + asin_e) <= math.pi + tol
    )
    feasible = quantum & (nl_out > nl_in + DISTILL_MARGIN) & (nl_in > 2.0 + DISTILL_MARGIN)
    return np.where(feasible, nl_out, -np.inf)


def _grid_argmax(
    n: int, eps: np.ndarray, delta: np.ndarray, tol: float
) -> tuple[float, float, float] | None:
    vals = _feasible_values(n, eps, delta, tol)
    flat = int(np.argmax(vals))
    best = float(vals.flat[flat])
    if best == -np.inf:
        return None
    i, j = divmod(flat, len(delta))
    # np.argmax takes the first maximum in row-major order, so ties resolve
    # to the smallest eps, then the smallest delta.
    return best, float(eps[i]), float(delta[j])


def _refine(
    n: int,
    coarse: tuple[float, float, float],
    step: float,
    refine_to: float,
    fixed_delta: float | None,
    tol: float,
) -> tuple[float, float, float]:
    best = coarse  # feasible by construction, so refinement can only improve
    eps_c, delta_c = coarse[1], coarse[2]
    while True:
        eps = np.linspace(max(refine_to, eps_c - 2.0 * step), min(1.0, eps_c + 2.0 * step), 41)
        if fixed_delta is None:
            delta = np.linspace(max(0.0, delta_c - 2.0 * step), min(1.0, delta_c + 2.0 * step), 41)
        else:
            delta = np.array([fixed_delta])
        found = _grid_argmax(n, eps, delta, tol)
        if found is not None and found[0] > best[0]:
            best = found
            eps_c, delta_c = found[1], found[2]
        step /= 10.0
        if step < refine_to:
            break
    return best


def optimize_quantum_distillation(
    n_max: int = 20,
    coarse_step: float = 1e-3,
    refine_to: float = 1e-8,
    fixed_delta: float | None = None,
    tol: float = DEFAULT_TOL,
) -> Optimum:
    """Best quantum-realizable resource for the XOR protocol, deterministically.

    Scans n from 2 to ``n_max``. For each n a coarse grid with step
    ``coarse_step`` covers eps in (0, 1] and delta in [0, 1], then the
    best cell is refined by nested 41x41 grids down to ``refine_to``
    parameter resolution. Ties break toward smaller n, then smaller eps,
    then smaller delta. Raises ``InfeasibleRegionError`` when nothing
    satisfies the constraints (possible only under ``fixed_delta``), and
    ``ValueError`` unless ``coarse_step`` is in (0, 1] and ``refine_to`` is
    finite and positive, before any grid is built.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    if not 0.0 < coarse_step <= 1.0:
        raise ValueError(f"coarse_step must be in (0, 1], got {coarse_step}")
    if not 0.0 < refine_to < np.inf:
        raise ValueError(f"refine_to must be finite and > 0, got {refine_to}")
    eps = np.arange(coarse_step, 1.0 + coarse_step / 2.0, coarse_step)
    if fixed_delta is None:
        delta = np.arange(0.0, 1.0 + coarse_step / 2.0, coarse_step)
    else:
        if not 0.0 <= fixed_delta <= 1.0:
            raise ValueError(f"fixed_delta must be in [0, 1], got {fixed_delta}")
        delta = np.array([fixed_delta])

    best: tuple[float, int, float, float] | None = None
    for n in range(2, n_max + 1):
        coarse = _grid_argmax(n, eps, delta, tol)
        if coarse is None:
            continue
        value, eps_star, delta_star = _refine(n, coarse, coarse_step, refine_to, fixed_delta, tol)
        if best is None or value > best[0]:
            best = (value, n, eps_star, delta_star)

    if best is None:
        raise InfeasibleRegionError("no feasible (eps, delta, n) point")

    value, n_star, eps_star, delta_star = best
    nl_in = nl_closed_eps_delta(eps_star, delta_star, 1)
    quantum, _ = is_quantum_correlators(
        Correlators(
            1.0 - 2.0 * delta_star,
            1.0 - 2.0 * delta_star,
            1.0 - 2.0 * delta_star,
            1.0 - 2.0 * eps_star,
        ),
        tol,
    )
    if not quantum or value <= nl_in:
        raise AssertionError("optimizer returned an infeasible point")
    return Optimum(n_star, eps_star, delta_star, nl_in, value)
