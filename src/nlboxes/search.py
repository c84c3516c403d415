"""Exhaustive search over deterministic adaptive two-copy wirings.

There are 32768 raw strategies per party. Many are interchangeable: they
induce the same composite box for every non-signaling resource. The dedup
here is exact, not heuristic. A strategy enters every composite only
through its 0/1 tensor u over (party input, final bit) x (box outcomes,
box inputs). Split u into four blocks, one per (party input, final bit),
and read each block as a 4x4 matrix B over (a1, x1) x (a2, x2), with
(a, x) at index 2*a + x. A composite entry contracts B with the two
copies' tables P(a1 b1|x1 y1) P(a2 b2|x2 y2), each read as a vector over
the party's own (a, x). No-signaling says exactly that every such vector
satisfies e(0,0) + e(1,0) = e(0,1) + e(1,1): summing over a removes x. So
each vector is K c for the 4x3 integer basis K of that relation's
orthogonal complement, and B enters only through the 3x3 matrix K^T B K.
The key is those four matrices, 36 small integers per code: equal keys
give identical composites on every non-signaling resource. Codes with
equal keys collapse to the one with the smallest encoding; the resulting
6212 classes are pinned by a digest in the tests. This also removes
strategies that ignore a box end (the ignored end's marginal is input
independent) and order swaps of non-adaptive plans.

The pair scan is a tensor contraction: a strategy enters the composite
only through a 0/1 tensor over (party input, final bit) x (box outcomes,
box inputs), so CHSH values of all strategy pairs reduce to one matrix
product per chunk. The reported best pair is re-verified through the
reference composer.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .boxes import DEFAULT_TOL, Box, nl, require_non_signaling
from .wiring import AdaptiveStrategy, Wiring2, compose_wiring2

RAW_STRATEGY_COUNT = 1 << 15


def _strategy_tables(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized decode of strategy codes into map tables."""
    order = (codes >> 14) & 1
    f1 = np.stack([(codes >> (13 - x)) & 1 for x in (0, 1)], axis=1)
    f2 = np.stack(
        [
            np.stack([(codes >> (11 - 2 * x - o)) & 1 for o in (0, 1)], axis=1)
            for x in (0, 1)
        ],
        axis=1,
    )
    out = np.stack(
        [
            np.stack(
                [
                    np.stack([(codes >> (7 - 4 * x - 2 * o1 - o2)) & 1 for o2 in (0, 1)], axis=1)
                    for o1 in (0, 1)
                ],
                axis=1,
            )
            for x in (0, 1)
        ],
        axis=1,
    )
    return order, f1, f2, out


def _branches(tables, x: int, a1: int, a2: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Box inputs and final bit on party input x when the copies return (a1, a2)."""
    order, f1, f2, out = tables
    idx = np.arange(len(order))
    a_first = np.where(order == 0, a1, a2)
    a_second = np.where(order == 0, a2, a1)
    x_first = f1[:, x]
    x_second = f2[idx, x, a_first]
    x1 = np.where(order == 0, x_first, x_second)
    x2 = np.where(order == 0, x_second, x_first)
    a_out = out[idx, x, a_first, a_second]
    return x1, x2, a_out


@lru_cache(maxsize=1)
def _u_tensor() -> np.ndarray:
    """0/1 tensor of every raw code: (code, party input x final bit, outcomes x inputs)."""
    codes = np.arange(RAW_STRATEGY_COUNT)
    tables = _strategy_tables(codes)
    u = np.zeros((RAW_STRATEGY_COUNT, 4, 16), dtype=np.int8)
    for x in (0, 1):
        for a1 in (0, 1):
            for a2 in (0, 1):
                x1, x2, a_out = _branches(tables, x, a1, a2)
                u[codes, 2 * x + a_out, (a1 * 2 + a2) * 4 + x1 * 2 + x2] = 1
    return u


# Basis of the (a, x) vectors orthogonal to the non-signaling relation
# e(0,0) + e(1,0) = e(0,1) + e(1,1), with (a, x) at index 2*a + x.
_NS_BASIS = np.array([[1, 0, 0], [1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=np.int8)


@dataclass(frozen=True)
class _Dedup:
    rep_codes: np.ndarray  # class id -> smallest encoding, ascending
    class_of_code: np.ndarray  # raw code -> class id


@lru_cache(maxsize=1)
def _dedup() -> _Dedup:
    u = _u_tensor()
    # Each (party input, final bit) block as a matrix over (a1, x1) x (a2, x2).
    blocks = u.reshape(-1, 4, 2, 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(-1, 4, 4, 4)
    keys = np.ascontiguousarray(_NS_BASIS.T @ blocks @ _NS_BASIS).reshape(RAW_STRATEGY_COUNT, 36)
    _, first, inverse = np.unique(
        keys.view(np.dtype((np.void, keys.shape[1]))).ravel(), return_index=True, return_inverse=True
    )
    # np.unique numbers classes in key order; renumber them by smallest code.
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.int32)
    rank[order] = np.arange(len(order), dtype=np.int32)
    return _Dedup(rep_codes=first[order].astype(np.int32), class_of_code=rank[inverse.ravel()])


def behavior_key(strategy: AdaptiveStrategy) -> int:
    """Stable id of the strategy's behavior class."""
    dedup = _dedup()
    return int(dedup.class_of_code[strategy.encode()])


def canonical_strategy(strategy: AdaptiveStrategy) -> AdaptiveStrategy:
    """Smallest-encoding strategy with identical observable behavior."""
    dedup = _dedup()
    return AdaptiveStrategy.decode(int(dedup.rep_codes[dedup.class_of_code[strategy.encode()]]))


def enumerate_strategies() -> list[AdaptiveStrategy]:
    """Deduplicated strategies, sorted by encoding."""
    return [AdaptiveStrategy.decode(int(c)) for c in _dedup().rep_codes]


def behavior_class_count() -> int:
    return len(_dedup().rep_codes)


@lru_cache(maxsize=1)
def _rep_u_matrix() -> np.ndarray:
    """0/1 tensor of each representative: (class, party input x final, outcomes x inputs)."""
    return _u_tensor()[_dedup().rep_codes].astype(float)


def _box_kernel(matrix: np.ndarray) -> np.ndarray:
    """Product probabilities of the two copies over all outcome/input combos."""
    t4 = np.asarray(matrix).reshape(2, 2, 2, 2)  # [x, y, a, b]
    k8 = np.einsum("xyab,XYAB->aAxXbByY", t4, t4)
    return k8.reshape(16, 16)


@lru_cache(maxsize=1)
def _chsh_weights() -> np.ndarray:
    """Eight CHSH functionals on composite tables laid out as (xa, yb)."""
    w = np.zeros((8, 4, 4))
    for k, (x0, y0) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        for x, y, a, b in product(range(2), repeat=4):
            sign = -1.0 if (x, y) == (1 - x0, 1 - y0) else 1.0
            w[k, 2 * x + a, 2 * y + b] = sign * (1.0 if a == b else -1.0)
    w[4:] = -w[:4]
    return w


@dataclass(frozen=True)
class SearchResult:
    box: Box
    nl_in: float
    nl_out: float
    wiring: Wiring2
    strategies_raw: int
    strategies_deduped: int
    wall_time_s: float
    tol: float = DEFAULT_TOL  # the tolerance the search ran under

    @property
    def distilled(self) -> bool:
        return self.nl_out > self.nl_in + self.tol

    def to_json_dict(self) -> dict:
        return {
            "box": self.box.to_json_dict(),
            "nl_in": self.nl_in,
            "nl_out": self.nl_out,
            "wiring": self.wiring.to_json_dict(),
            "strategies_raw": self.strategies_raw,
            "strategies_deduped": self.strategies_deduped,
            "wall_time_s": self.wall_time_s,
        }


def pair_nl_values(box: Box, alice: AdaptiveStrategy, tol: float = DEFAULT_TOL) -> np.ndarray:
    """CHSH non-locality of (alice, tau) over every deduplicated tau.

    Fast path used by tests to cross-check chunks of the scan against the
    reference composer.
    """
    require_non_signaling(box, tol)
    u = _rep_u_matrix()
    k = _box_kernel(box.matrix)
    ua = _u_tensor()[alice.encode()]
    t = ua @ k  # (4, 16)
    g = np.einsum("kab,am->kbm", _chsh_weights(), t).reshape(8, 64)
    return (u.reshape(len(u), 64) @ g.T).max(axis=1)


def search_2copy(
    box: Box,
    tol: float = DEFAULT_TOL,
    jobs: int = 1,
    chunk: int = 64,
) -> SearchResult:
    """Best two-copy wiring of ``box`` over all deduplicated strategy pairs.

    Deterministic strategies suffice: the CHSH value of a mixture of
    wirings never exceeds the best component, so shared randomness cannot
    beat the maximum found here. Ties resolve to the smallest strategy
    encodings, so results are identical run to run and do not depend on
    ``jobs``.
    """
    started = time.perf_counter()
    require_non_signaling(box, tol)
    nl_in = nl(box, tol)

    u = _rep_u_matrix()
    n_reps = len(u)
    k = _box_kernel(box.matrix)
    t = np.einsum("cam,mn->can", u, k)
    g = np.einsum("kab,cam->ckbm", _chsh_weights(), t).reshape(n_reps, 8, 64)
    flat_u = u.reshape(n_reps, 64)

    def eval_chunk(start: int) -> tuple[float, int, int]:
        stop = min(start + chunk, n_reps)
        vals = (g[start:stop].reshape(-1, 64) @ flat_u.T).reshape(stop - start, 8, n_reps).max(axis=1)
        flat = int(np.argmax(vals))
        si, ti = divmod(flat, n_reps)
        return float(vals[si, ti]), start + si, ti

    starts = range(0, n_reps, chunk)
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(eval_chunk, starts))
    else:
        outcomes = [eval_chunk(s) for s in starts]

    best_val, best_si, best_ti = -np.inf, -1, -1
    for val, si, ti in outcomes:  # chunk order fixes the tie-break
        if val > best_val:
            best_val, best_si, best_ti = val, si, ti

    rep_codes = _dedup().rep_codes
    wiring = Wiring2(
        AdaptiveStrategy.decode(int(rep_codes[best_si])),
        AdaptiveStrategy.decode(int(rep_codes[best_ti])),
    )
    nl_out = nl(compose_wiring2(box, wiring, tol), tol)
    if abs(nl_out - best_val) > 1e-9:
        raise AssertionError(
            f"scan value {best_val!r} disagrees with reference composition {nl_out!r}"
        )
    return SearchResult(
        box=box,
        nl_in=nl_in,
        nl_out=nl_out,
        wiring=wiring,
        strategies_raw=RAW_STRATEGY_COUNT,
        strategies_deduped=n_reps,
        wall_time_s=time.perf_counter() - started,
        tol=tol,
    )
