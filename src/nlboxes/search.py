"""Exhaustive search over deterministic adaptive two-copy wirings.

There are 32768 raw strategies per party, one per 15-bit code; the
``AdaptiveStrategy`` docstring gives the code layout. Many are
interchangeable: they induce the same composite box for every
non-signaling resource. The dedup here is exact, not heuristic. A
strategy enters every composite only through its 0/1 tensor u over
(party input, final bit) x (box outcomes, box inputs), read for all
codes at once off one table of their bits. Split u into four blocks, one
per (party input, final bit), and read each block as a 4x4 matrix B over
(a1, x1) x (a2, x2), with (a, x) at index 2*a + x. A composite entry
contracts B with the two copies' tables P(a1 b1|x1 y1) P(a2 b2|x2 y2),
each read as a vector over the party's own (a, x). No-signaling says
exactly that every such vector satisfies e(0,0) + e(1,0) = e(0,1) +
e(1,1): summing over a removes x. So each vector is K c for the 4x3
integer basis K of that relation's orthogonal complement, and B enters
only through the 3x3 matrix K^T B K.
The key is those four matrices, 36 small integers per code: equal keys
give identical composites on every non-signaling resource. Codes with
equal keys collapse to the one with the smallest encoding; the resulting
6212 classes are pinned by a digest in the tests. This also removes
strategies that ignore a box end (the ignored end's marginal is input
independent) and order swaps of non-adaptive plans.

The pair scan works in the same coordinates as the key. The CHSH
correlator X_xy of a composite counts each party's final bit 0 with +1
and 1 with -1, so it depends on a class only through its signed key
signed[x] = key[x, final 0] - key[x, final 1], 2 x 9 integers. The box
enters as R = kron(Q, Q). Here P is the box read over (a, x) x (b, y);
no-signaling puts its rows and columns in the span of K, so P = K Q K^T
with Q = L P L^T for L an integer left inverse of K. Then
X_xy = signed_s[x] . R . signed_t[y]. A CHSH functional is a sign
pattern over (x, y), so the values of one Alice row against every Bob
class are one product with the 18 signed coordinates of all classes.
Only S = X00 + X01 + X10 - X11 is scanned, whose row for Alice class s
is [(s0 + s1) R, (s0 - s1) R], and only on some Alice classes:

- Each party has 8 local relabelings: flip the input, flip the final bit,
  flip the final bit on input 1. Each maps strategies to strategies, hence
  classes to classes, and relabeling both strategies of a pair relabels
  their composite box. The eight CHSH functionals are the images of S
  under these relabelings, so the best value of any of them over all
  pairs is the best S over all pairs.
- The 8 relabelings of a pair that keep S fixed pair each Alice
  relabeling with one Bob relabeling. They map a pair to a pair with the
  same S, so it is enough to scan the Alice classes that are the smallest
  of their orbit (797 of 6212) against every Bob class.

Ties resolve to the smallest encodings: the winner is the smallest class
pair (s, t) for which some functional is within 1e-12 of the maximum.
By the two arguments above, s is the first scanned Alice class whose S
row comes that near the maximum, and t is the smallest orbit minimum
among the Bob classes that come that near with s. The reported pair is
re-verified through the reference composer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .boxes import CHSH_SIGNS, DEFAULT_TOL, Box, _correlators, nl_correlators, require_non_signaling
from .wiring import AdaptiveStrategy, Wiring2, compose_wiring2

RAW_STRATEGY_COUNT = 1 << 15


@lru_cache(maxsize=1)
def _u_tensor() -> np.ndarray:
    """0/1 tensor of every raw code: (code, party input x final bit, outcomes x inputs)."""
    codes = np.arange(RAW_STRATEGY_COUNT)
    # The code's bits, sliced into the maps as ``AdaptiveStrategy.decode`` does.
    bits = (codes[:, None] >> np.arange(14, -1, -1)) & 1
    swapped = bits[:, 0] == 1  # copy 1 is queried first
    first_input = bits[:, 1:3]
    second_input = bits[:, 3:7].reshape(-1, 2, 2)
    output = bits[:, 7:].reshape(-1, 2, 2, 2)
    u = np.zeros((RAW_STRATEGY_COUNT, 4, 16), dtype=np.int8)
    for x, a1, a2 in product((0, 1), repeat=3):
        # As in ``AdaptiveStrategy.trace``, for every code at once.
        o_first = np.where(swapped, a2, a1)
        o_second = np.where(swapped, a1, a2)
        i_first = first_input[:, x]
        i_second = second_input[codes, x, o_first]
        final = output[codes, x, o_first, o_second]
        x1 = np.where(swapped, i_second, i_first)
        x2 = np.where(swapped, i_first, i_second)
        u[codes, 2 * x + final, (a1 * 2 + a2) * 4 + x1 * 2 + x2] = 1
    return u


# Basis of the (a, x) vectors orthogonal to the non-signaling relation
# e(0,0) + e(1,0) = e(0,1) + e(1,1), with (a, x) at index 2*a + x.
_NS_BASIS = np.array([[1, 0, 0], [1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=np.int8)
# Integer left inverse of _NS_BASIS: _NS_LEFT_INVERSE @ _NS_BASIS is the identity.
_NS_LEFT_INVERSE = np.array([[1, 0, 0, 0], [-1, 1, 0, 0], [1, -1, 1, 0]], dtype=float)


@dataclass(frozen=True)
class _Dedup:
    rep_codes: np.ndarray  # class id -> smallest encoding, ascending
    class_of_code: np.ndarray  # raw code -> class id
    # class id -> (party input, 9) key of final bit 0 minus key of final bit 1;
    # exact integers, held as floats for the scan's products
    signed: np.ndarray


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
    rep_codes = first[order].astype(np.int32)
    by_final = keys[rep_codes].reshape(-1, 2, 2, 9)  # (class, party input, final bit, 9)
    signed = (by_final[:, :, 0] - by_final[:, :, 1]).astype(float)
    return _Dedup(rep_codes=rep_codes, class_of_code=rank[inverse.ravel()], signed=signed)


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


# One party's relabelings as (flip input, flip final bit, flip final bit on
# input 1), in the field order of ``symmetry.Relabeling``.
_PARTY_RELABELINGS = tuple(product((0, 1), repeat=3))


def _relabel_codes(codes: np.ndarray, flip_x: int, flip_a: int, a_flip_with_x: int) -> np.ndarray:
    """Codes of the strategies that run ``codes`` on input x ^ flip_x and
    flip the final bit by flip_a ^ (a_flip_with_x & x). The masks follow the
    code layout in ``AdaptiveStrategy``."""
    if flip_x:  # swap the x = 0 and x = 1 halves of each map; keep the order bit
        codes = (
            (codes & 0x4000)
            | (codes << 1 & 0x2000) | (codes >> 1 & 0x1000)
            | (codes << 2 & 0x0C00) | (codes >> 2 & 0x0300)
            | (codes << 4 & 0x00F0) | (codes >> 4 & 0x000F)
        )
    return codes ^ (0xF0 * flip_a) ^ (0x0F * (flip_a ^ a_flip_with_x))


# S values within this of the maximum count as tied with it.
_NEAR_MAX = 1e-12

# Alice rows per product in the pair scan; the result does not depend on it.
_CHUNK = 64

# The eight CHSH functionals as signs over (Bob input y, Alice input x), S first.
_CHSH_SIGNS = CHSH_SIGNS.reshape(8, 2, 2).transpose(0, 2, 1)


@dataclass(frozen=True)
class _Orbits:
    class_perms: np.ndarray  # (relabeling, class) -> image class, in _PARTY_RELABELINGS order
    orbit_min: np.ndarray  # class -> smallest class of its orbit
    reps: np.ndarray  # classes that are the smallest of their orbit, ascending


@lru_cache(maxsize=1)
def _orbits() -> _Orbits:
    dedup = _dedup()
    perms = np.stack([dedup.class_of_code[_relabel_codes(dedup.rep_codes, *r)] for r in _PARTY_RELABELINGS])
    orbit_min = perms.min(axis=0)  # the 8 relabelings form a group, so each column is an orbit
    return _Orbits(perms, orbit_min, np.flatnonzero(orbit_min == np.arange(len(orbit_min))))


def _functional_rows(box: Box, signs: np.ndarray, alice_signed: np.ndarray) -> np.ndarray:
    """Rows whose product with a Bob class's 18 signed coordinates gives a
    CHSH functional: signs (..., y, x) @ alice_signed (..., x, 9) @ R, flattened."""
    p = np.asarray(box.matrix).reshape(2, 2, 2, 2).transpose(2, 0, 3, 1).reshape(4, 4)  # (a, x) x (b, y)
    q = _NS_LEFT_INVERSE @ p @ _NS_LEFT_INVERSE.T
    rows = (signs @ alice_signed) @ np.kron(q, q)
    return rows.reshape(*rows.shape[:-2], 18)


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
    # Where the time went, in seconds, and how much was scanned. These stay
    # out of the JSON form, which is pinned.
    kernel_s: float = 0.0  # input checks, cached tables, box coordinates, S rows
    scan_s: float = 0.0  # pair scan and tie-break
    verify_s: float = 0.0  # re-verification through the reference composer
    alice_rows_scanned: int = 0
    pairs_scanned: int = 0

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
    dedup = _dedup()
    rows = _functional_rows(box, _CHSH_SIGNS, dedup.signed[dedup.class_of_code[alice.encode()]])
    return (rows @ dedup.signed.reshape(-1, 18).T).max(axis=0)


def search_2copy(box: Box, tol: float = DEFAULT_TOL) -> SearchResult:
    """Best two-copy wiring of ``box`` over all deduplicated strategy pairs.

    Deterministic strategies suffice: the CHSH value of a mixture of
    wirings never exceeds the best component, so shared randomness cannot
    beat the maximum found here. Ties resolve to the smallest strategy
    encodings, so results are identical run to run and do not depend on
    how the scan is chunked.
    """
    started = time.perf_counter()
    require_non_signaling(box, tol)
    nl_in = nl_correlators(_correlators(box))

    dedup = _dedup()
    orbits = _orbits()
    bob = dedup.signed.reshape(-1, 18)
    n_reps = len(bob)
    # S of (reps[i], t) is g[i] . bob[t].
    g = _functional_rows(box, _CHSH_SIGNS[0], dedup.signed[orbits.reps])
    kernel_done = time.perf_counter()

    def s_values(start: int) -> np.ndarray:
        return g[start:start + _CHUNK] @ bob.T

    row_max = np.concatenate([s_values(start).max(axis=1) for start in range(0, len(g), _CHUNK)])
    best_val = float(row_max.max())
    near = best_val - _NEAR_MAX
    row = int(np.argmax(row_max >= near))
    start = row - row % _CHUNK  # recompute the row exactly as the scan saw it
    best_si = int(orbits.reps[row])
    best_ti = int(orbits.orbit_min[s_values(start)[row - start] >= near].min())
    scan_done = time.perf_counter()

    wiring = Wiring2(
        AdaptiveStrategy.decode(int(dedup.rep_codes[best_si])),
        AdaptiveStrategy.decode(int(dedup.rep_codes[best_ti])),
    )
    nl_out = nl_correlators(_correlators(compose_wiring2(box, wiring, tol)))
    if abs(nl_out - best_val) > 1e-9:
        raise AssertionError(
            f"scan value {best_val!r} disagrees with reference composition {nl_out!r}"
        )
    finished = time.perf_counter()
    return SearchResult(
        box=box,
        nl_in=nl_in,
        nl_out=nl_out,
        wiring=wiring,
        strategies_raw=RAW_STRATEGY_COUNT,
        strategies_deduped=n_reps,
        wall_time_s=finished - started,
        tol=tol,
        kernel_s=kernel_done - started,
        scan_s=scan_done - kernel_done,
        verify_s=finished - scan_done,
        alice_rows_scanned=len(g),
        pairs_scanned=len(g) * n_reps,
    )
