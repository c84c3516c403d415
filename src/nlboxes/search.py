"""Exhaustive search over deterministic adaptive two-copy wirings.

There are 32768 raw strategies per party, one per 15-bit code; the
``AdaptiveStrategy`` docstring gives the code layout. Many are
interchangeable: they induce the same composite box for every
non-signaling resource. The dedup here is exact, not heuristic. On party
input x a strategy enters every composite only through two 0/1 matrices
B[x, final bit] over (a1, x1) x (a2, x2), with (a, x) at index 2*a + x:
the box outcomes and box inputs that ``trace`` reports. A composite entry
contracts B with the two copies' tables P(a1 b1|x1 y1) P(a2 b2|x2 y2),
each read as a vector over the party's own (a, x). No-signaling says
exactly that every such vector satisfies e(0,0) + e(1,0) = e(0,1) +
e(1,1): summing over a removes x. So each vector is K c for the 4x3
integer basis K of that relation's orthogonal complement, and B enters
only through the 3x3 matrix K^T B K.

A code's half key at input x is its two matrices K^T B[x, final] K, 18
small integers. It depends only on the order bit and the maps used on
input x, and the two inputs' maps sit on disjoint code bits. So the dedup
reads B[0, .] off ``trace`` for the 256 codes that set only input 0's bits
(mask 0x6CF0), 1024 calls, and finds 82 distinct half keys among them, the
halves. A code's half at input 1 is the input-0 half of its input-flipped
code. A class is a pair of halves, one per input: equal pairs give
identical composites on every non-signaling resource. Codes with equal
pairs collapse to the one with the smallest encoding; the resulting 6212
classes are pinned by a digest in the tests. This also removes strategies
that ignore a box end (the ignored end's marginal is input independent)
and order swaps of non-adaptive plans. ``behavior_key`` reads a code's
class off a flat uint16 table over the 32768 codes, not off numpy scalars.
``canonical_strategy`` indexes one flat tuple over the 32768 codes that
holds each code's class representative, and ``enumerate_strategies`` reads
the representatives out of it at their own codes. The first call of either
decodes the representatives and fills the tuple, once per process, so every
call for one class returns the same object, and a search alone decodes none.

The pair scan works in the same coordinates. The CHSH correlator X_xy of
a composite counts each party's final bit 0 with +1 and 1 with -1, so it
depends on a class only through its signed halves
signed[x] = key[x, final 0] - key[x, final 1], 9 integers each; the 82
half keys give 82 distinct signed halves. The box enters as R = kron(Q, Q).
Here P is the box read over (a, x) x (b, y); no-signaling puts its rows
and columns in the span of K, so P = K Q K^T with Q = L P L^T for L an
integer left inverse of K. Then X_xy = signed_s[x] . R . signed_t[y]. A
CHSH functional is a sign pattern over (x, y); only
S = X00 + X01 + X10 - X11 is scanned, and it separates by party input:

    S(s, t) = (s0 + s1) R t0 + (s0 - s1) R t1,  s_x = signed_s[x], t_y = signed_t[y].

Let V_o be the halves of the codes with order bit o, 66 for each o and the
same at both inputs (flipping the input keeps the order bit). Flipping a
code's final bit on both inputs negates its halves and keeps its order bit,
and no half is zero, so the halves form 41 pairs {h, -h} and each V_o is
closed under negation. The halves are numbered so that half h + 41 is
-(half h), and the first 41 run V_0 only (8), shared (25), V_1 only (8):
V_o is the pairs of the slice [0:33] for o = 0 and [8:41] for o = 1. The
classes' pairs (signed[0], signed[1]) are exactly V_0 x V_0 together with
V_1 x V_1. With G = halves[:41] R^T (41 x 9) and an Alice class's columns
u = s0 + s1 and w = s0 - s1, plus = (G u, -G u) and minus = (G w, -G w)
hold the two terms against every half, and S(s, t) = plus[t0] + minus[t1].
Its largest value over all Bob classes is the larger over o of
max plus[V_o] + max minus[V_o]: rounded addition is monotone, so over a
product set the maximum of the sums is the sum of the maxima, bit for bit.
Negation and abs are exact, so max plus[V_o] is the largest |G u| over the
slice of V_o, and it is the same for -u. plus depends on an Alice class
only through u up to sign, and minus only through w up to sign, and the
scanned Alice classes share columns: 797 classes have 578 distinct u and
420 distinct w up to sign (499 w before: 79 +- pairs and the zero column).
The dedup builds those 998 columns, in one array with u first, together
with the classes: the search has one cached table, built once per process
on first use. The scan takes G c as one matrix product per block of 333 of
them, and keeps each column's two maxima of |G c| over the slices of V_0
and V_1; an Alice row's maximum is gathered from the maxima of its u and w
columns. For the winning row it takes G u and G w again, as one (41, 2)
product, extends each over the 82 halves as (p, -p) times the row's sign
over its column, and adds plus[h0] + minus[h1] over all 82 x 82 pairs of
halves (half at input 0, half at input 1). The largest sum over the 6212
pairs that are classes is the row maximum, up to a few ulps: the small
product may round its 9-term dot products apart from the block product's.
The 1e-12 tie window absorbs that, so some class always ties with it. The
scan covers every Bob class, but only some Alice classes:

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
among the Bob classes that come that near with s. The scan holds that
minimum per pair of halves, with the class count where the pair is no
class, so t is one masked minimum over the row's 82 x 82 sums; a class
always ties, so the filler is never that minimum. The reported pair is
re-verified through the reference composer.
"""

from __future__ import annotations

import sys
import time
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .boxes import CHSH_SIGNS, DEFAULT_TOL, Box, _correlators, check_tol, nl_correlators, require_non_signaling
from .wiring import AdaptiveStrategy, Wiring2, _compose_wiring2

RAW_STRATEGY_COUNT = 1 << 15


# Basis of the (a, x) vectors orthogonal to the non-signaling relation
# e(0,0) + e(1,0) = e(0,1) + e(1,1), with (a, x) at index 2*a + x.
_NS_BASIS = np.array([[1, 0, 0], [1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=np.int8)
# Integer left inverse of _NS_BASIS: _NS_LEFT_INVERSE @ _NS_BASIS is the identity.
_NS_LEFT_INVERSE = np.array([[1, 0, 0, 0], [-1, 1, 0, 0], [1, -1, 1, 0]], dtype=float)


# Code bits that input 0 reads: the order bit and the x = 0 maps, in the
# code layout of ``AdaptiveStrategy``.
_INPUT0_BITS = 0x6CF0


# The search's one table: the classes and halves, and the scan's arrays.
@dataclass(frozen=True)
class _Dedup:
    rep_codes: np.ndarray  # class id -> smallest encoding, ascending
    # The distinct signed halves, exact integers held as floats for the scan's
    # products: one half of each +- pair, those of order bit 0 only, then
    # those of both, then those of order bit 1 only; then their negations in
    # the same order.
    halves: np.ndarray
    half_of: np.ndarray  # (class id, party input) -> row of halves
    signed: np.ndarray  # halves[half_of]: (class id, party input, 9)
    # Order bit o -> the rows of the first half of halves whose +- pairs make
    # up V_o, the halves of the codes with that order bit.
    in_order: tuple[slice, slice]
    # Raw code -> class id as a flat uint16 table: Python indexes it in about
    # a fifth of the time that a numpy scalar lookup takes.
    class_table: array
    # The scan's arrays.
    alice: np.ndarray  # the scanned Alice classes, each the smallest of its orbit, ascending
    # The columns u = s0 + s1, then w = s0 - s1, of the scanned Alice classes,
    # s_x a class's signed half at party input x: each side's distinct columns
    # up to sign, in one (9, columns) array.
    columns: np.ndarray
    column_of: np.ndarray  # (2, scanned Alice row) -> its u column, its w column
    sign_of: np.ndarray  # (2, scanned Alice row) -> +-1.0: its u and w over those columns
    # (half at input 0, half at input 1) -> the smallest class of the orbit of
    # that pair's Bob class, or the class count where the pair is no class.
    orbit_min_of_pair: np.ndarray


@lru_cache(maxsize=1)
def _dedup() -> _Dedup:
    codes = np.arange(RAW_STRATEGY_COUNT)
    input0_codes = codes[(codes & ~_INPUT0_BITS) == 0]
    # Each such code's B[0, final] over (a1, x1) x (a2, x2), read off ``trace``.
    blocks = np.zeros((len(input0_codes), 2, 4, 4), dtype=np.int8)
    for i, code in enumerate(input0_codes.tolist()):
        strategy = AdaptiveStrategy.decode(code)
        for a1, a2 in product((0, 1), repeat=2):
            (x1, x2), final = strategy.trace(0, (a1, a2))
            blocks[i, final, 2 * a1 + x1, 2 * a2 + x2] = 1
    keys = np.ascontiguousarray(_NS_BASIS.T @ blocks @ _NS_BASIS).reshape(-1, 18)
    _, first, key_of = np.unique(keys.view(np.dtype((np.void, 18))).ravel(), return_index=True, return_inverse=True)
    in_v = np.zeros((2, len(first)), dtype=bool)
    in_v[input0_codes >> 14, key_of] = True
    by_final = keys[first].reshape(-1, 2, 9)
    signed = by_final[:, 0] - by_final[:, 1]
    # Flipping a code's final bit on both inputs negates its half and keeps
    # its order bit, and no half is zero, so the halves form +- pairs. Keep
    # the first half of each pair, numbered V_0 only, shared, V_1 only, so
    # that each V_o's kept halves are a slice; then the negations, in the
    # same order, so that half h + 41 is -(half h). The order bit is a code's
    # top bit.
    negation = (signed[:, None] == -signed[None]).all(axis=2).argmax(axis=1)
    kept = np.flatnonzero(np.arange(len(first)) < negation)
    kept = kept[np.argsort(in_v[1, kept].astype(np.int8) - in_v[0, kept], kind="stable")]
    order = np.concatenate([kept, negation[kept]])
    halves = signed[order].astype(float)
    # A code's half at input 0 is that of its input-0 bits, read off a table
    # over all codes; its half at input 1 is the input-0 half of its
    # input-flipped code.
    input0_half = np.zeros(RAW_STRATEGY_COUNT, dtype=np.intp)
    input0_half[input0_codes] = np.argsort(order)[key_of]
    flipped = _relabel_codes(codes, 1, 0, 0)
    half_at = [input0_half[c & _INPUT0_BITS] for c in (codes, flipped)]
    # A class is a pair of halves; number the classes by smallest code.
    pair = half_at[0] * len(halves) + half_at[1]
    smallest = np.full(len(halves) ** 2, RAW_STRATEGY_COUNT)
    np.minimum.at(smallest, pair, codes)
    rep_of_code = smallest[pair]
    is_rep = rep_of_code == codes
    rep_codes = np.flatnonzero(is_rep).astype(np.int32)
    half_of = np.stack([h[rep_codes] for h in half_at], axis=1)
    # A representative's class id is the count of representatives below it.
    class_of_code = (np.cumsum(is_rep) - 1)[rep_of_code]
    # The 8 relabelings form a group, so a class's 8 images are its orbit.
    orbit_min = np.min([class_of_code[_relabel_codes(rep_codes, *r)] for r in _PARTY_RELABELINGS], axis=0)
    alice = np.flatnonzero(orbit_min == np.arange(len(orbit_min)))
    s0, s1 = halves[half_of[alice]].swapaxes(0, 1)  # the scanned classes' signed halves at inputs 0 and 1
    (u, u_of, u_sign), (w, w_of, w_sign) = map(_distinct_columns, (s0 + s1, s0 - s1))
    orbit_min_of_pair = np.full((len(halves),) * 2, len(orbit_min))
    orbit_min_of_pair[half_of[:, 0], half_of[:, 1]] = orbit_min
    return _Dedup(
        rep_codes=rep_codes,
        halves=halves,
        half_of=half_of,
        signed=halves[half_of],
        in_order=(slice(0, int(in_v[0, kept].sum())), slice(len(kept) - int(in_v[1, kept].sum()), len(kept))),
        # Through bytes: tolist() would box 32768 Python ints.
        class_table=array("H", class_of_code.astype(np.uint16).tobytes()),
        alice=alice,
        columns=np.ascontiguousarray(np.hstack([u, w])),
        column_of=np.stack([u_of, u.shape[1] + w_of]),
        sign_of=np.stack([u_sign, w_sign]),
        orbit_min_of_pair=orbit_min_of_pair,
    )


def behavior_key(strategy: AdaptiveStrategy) -> int:
    """Stable id of the strategy's behavior class."""
    return _dedup().class_table[strategy._code]


# Raw code -> its class's shared representative, filled by the first call of
# ``canonical_strategy`` or ``enumerate_strategies``, not with the dedup, so
# that a cold search decodes none of the 6212 representatives. A module-level
# tuple and not an lru_cache: the lookup is one index, and a cached-function
# call costs several times that.
# On a 2-core Xeon, 256 lookups took 110 us this way and 177 us through an
# lru_cache, of which 92 us is the calls into ``canonical_strategy`` themselves.
_canonical: tuple[AdaptiveStrategy, ...] = ()


def _build_canonical() -> tuple[AdaptiveStrategy, ...]:
    global _canonical
    dedup = _dedup()
    representatives = tuple(map(AdaptiveStrategy.decode, dedup.rep_codes.tolist()))
    _canonical = tuple(map(representatives.__getitem__, dedup.class_table))
    return _canonical


def canonical_strategy(strategy: AdaptiveStrategy) -> AdaptiveStrategy:
    """Smallest-encoding strategy with identical observable behavior. Every
    call for one class returns the same object."""
    return (_canonical or _build_canonical())[strategy._code]


def enumerate_strategies() -> list[AdaptiveStrategy]:
    """Deduplicated strategies, sorted by encoding, as a new list."""
    return list(map((_canonical or _build_canonical()).__getitem__, _dedup().rep_codes.tolist()))


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

# The eight CHSH functionals as signs over (Bob input y, Alice input x), S first.
_CHSH_SIGNS = np.array(CHSH_SIGNS).reshape(8, 2, 2).transpose(0, 2, 1)


def _box_coordinates(box: Box) -> np.ndarray:
    """R = kron(Q, Q), the box in the two copies' no-signaling coordinates."""
    p = np.asarray(box.matrix).reshape(2, 2, 2, 2).transpose(2, 0, 3, 1).reshape(4, 4)  # (a, x) x (b, y)
    q = _NS_LEFT_INVERSE @ p @ _NS_LEFT_INVERSE.T
    # One multiply per entry, as in np.kron, without its general-shape set-up.
    return (q[:, None, :, None] * q[None, :, None, :]).reshape(9, 9)


def _functional_rows(box: Box, signs: np.ndarray, alice_signed: np.ndarray) -> np.ndarray:
    """Rows whose product with a Bob class's 18 signed coordinates gives a
    CHSH functional: signs (..., y, x) @ alice_signed (..., x, 9) @ R, flattened."""
    rows = (signs @ alice_signed) @ _box_coordinates(box)
    return rows.reshape(*rows.shape[:-2], 18)


def _half_functionals(box: Box) -> np.ndarray:
    """G = halves R^T over the first half of halves, one half of each +- pair:
    row t of G times an Alice column u is u R halves[t]."""
    halves = _dedup().halves
    return halves[:len(halves) // 2] @ _box_coordinates(box).T


def _distinct_columns(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows up to sign of a small-integer (n, 9) array, as
    (9, distinct) columns, with each row's column and sign: a row is its sign
    times its column, and a column's first nonzero entry is positive. Rows
    are told apart by one integer key each, their entries as digits:
    ``np.unique(axis=0)`` on the 797 rows takes about 2.8 ms, several times
    this whole set-up."""
    lead = rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)]
    sign = np.where(lead < 0, -1.0, 1.0)
    rows = rows * sign[:, None]
    digits = (rows - rows.min()).astype(np.int64)
    keys = digits @ (int(digits.max()) + 1) ** np.arange(rows.shape[1])
    _, first, column_of = np.unique(keys, return_index=True, return_inverse=True)
    return rows[first].T, column_of, sign


# Columns per block product. Each (41, columns) product, 109,224 B at 333
# columns, then stays under 128 KiB, glibc's default mmap threshold, so it
# comes from the heap rather than from a fresh mapping; and only one block
# product is live at once. With larger temporaries the heap top outgrew
# glibc's trim threshold and each warm search faulted in about 95 fresh
# pages. The 998 scanned columns take three blocks.
_ROW_BLOCK = 333


def _block_product(g: np.ndarray, columns: np.ndarray, start: int) -> np.ndarray:
    """G c for the block of columns from ``start``, (41, block)."""
    return g @ columns[:, start:start + _ROW_BLOCK]


def _column_maxima(g: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """(2, columns): the largest entry of G c over the halves V_0 and over
    V_1, for each column c. Each V_o is closed under negation, so that is
    the largest |G c| over V_o's kept halves; and it is the same for -c."""
    in_order = _dedup().in_order
    out = np.empty((2, columns.shape[1]))
    for start in range(0, columns.shape[1], _ROW_BLOCK):
        product = _block_product(g, columns, start)
        np.abs(product, out=product)
        for o, v in enumerate(in_order):
            out[o, start:start + _ROW_BLOCK] = product[v].max(axis=0)
    return out


def _row_max(g: np.ndarray, dedup: _Dedup) -> np.ndarray:
    """Largest S of each scanned Alice row over all Bob classes, the larger
    over o of max plus[V_o] + max minus[V_o]; within a few ulps of the
    largest of the row's ``_pair_values`` that are classes."""
    maxima = _column_maxima(g, dedup.columns)
    # One gather: (V_0 over u, V_0 over w, V_1 over u, V_1 over w).
    u0, w0, u1, w1 = maxima.take(np.concatenate((dedup.column_of, dedup.column_of + maxima.shape[1])))
    return np.maximum(u0 + w0, u1 + w1)


def _pair_values(g: np.ndarray, dedup: _Dedup, row: int) -> np.ndarray:
    """S of one scanned Alice row against every pair of halves (h0, h1),
    plus[h0] + minus[h1], (82, 82). The pairs (half_of[c, 0], half_of[c, 1])
    are the Bob classes c. Half h + 41 is -(half h), so over all 82 halves a
    row's plus is (p, -p) times its u sign, for p = G c of its u column c,
    and minus likewise: G takes both columns in one (41, 2) product."""
    p = (g @ dedup.columns[:, dedup.column_of[:, row]]) * dedup.sign_of[:, row]
    plus, minus = np.concatenate((p, -p)).T
    return plus[:, None] + minus


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
    # Input checks, the cached table, box coordinates, G over the halves. In
    # a fresh process the first call builds the one cached table (the classes
    # and halves, the orbits and the distinct Alice columns), which is most
    # of the ~12 ms kernel of a CLI search.
    kernel_s: float = 0.0
    scan_s: float = 0.0  # block products and column maxima per block of Alice columns distinct up to sign, and the tie-break
    verify_s: float = 0.0  # re-verification through the reference composer
    alice_rows_scanned: int = 0
    pairs_scanned: int = 0  # pairs the row maxima cover: Alice rows x Bob classes

    @property
    def distilled(self) -> bool:
        """A gain from a non-local input. Every local box reaches 2 under a
        wiring that outputs a deterministic box, which is no distillation."""
        return self.nl_in > 2.0 + self.tol and self.nl_out > self.nl_in + self.tol

    def to_json_dict(self) -> dict:
        # Written out: the pinned form leaves out tol and the phase timings, and nests the box.
        return {
            "box": self.box.to_json_dict(),
            "nl_in": self.nl_in,
            "nl_out": self.nl_out,
            "wiring": self.wiring.to_json_dict(),
            "strategies_raw": self.strategies_raw,
            "strategies_deduped": self.strategies_deduped,
            "wall_time_s": self.wall_time_s,
        }


def _scan_tol(tol: float) -> float:
    """How far the scan's best S may lie from the NL that the reference
    composer gives the winning pair, for an input checked at ``tol``:
    48 tol (1 + 21 tol), plus 1e-9 for rounding, saturating at the largest
    float.

    The scan reads the box P through Q = L P L^T, that is, as P' = K Q K^T.
    P' is P with some entries moved by signaling gaps, each at most tol: an
    entry at a = x = 1 by Bob's gap at its (b, y), one at b = y = 1 by
    Alice's gap at its (a, x), and the entry at a = b = x = y = 1 by four
    gaps. So D = P - P' has absolute row masses 0, 2 tol, 2 tol and 6 tol.

    A composite correlator sums, over outcome tuples, products of one entry
    of each copy, so S(P, P) - S(P', P') = S(D, P) + S(P, D) - S(D, D).
    Put |D| in one copy and |P| in the other. Per input pair the sum is at
    most D's largest row mass times P's row mass or, when the parties query
    the copies in opposite orders, times P's marginal plus the 5 tol that
    P's gaps and negative entries add: 6 tol (1 + 15 tol) in all. Over the
    four correlators of S and the two copies that is 48 tol (1 + 15 tol);
    S(D, D) adds at most 4 * 2 * (6 tol)^2 = 288 tol^2. Every CHSH
    functional is bounded alike, so the bound holds for NL too.
    """
    return min(48.0 * tol * (1.0 + 21.0 * tol) + 1e-9, sys.float_info.max)


def pair_nl_values(box: Box, alice: AdaptiveStrategy, tol: float = DEFAULT_TOL) -> np.ndarray:
    """CHSH non-locality of (alice, tau) over every deduplicated tau.

    Uses the 18 signed coordinates, not the scan's halves, so it checks the
    scan by separate arithmetic; tests also check it against the reference
    composer.
    """
    require_non_signaling(box, tol)
    dedup = _dedup()
    rows = _functional_rows(box, _CHSH_SIGNS, dedup.signed[behavior_key(alice)])
    return (rows @ dedup.signed.reshape(-1, 18).T).max(axis=0)


def search_2copy(box: Box, tol: float = DEFAULT_TOL) -> SearchResult:
    """Best two-copy wiring of ``box`` over all deduplicated strategy pairs.

    Deterministic strategies suffice: the CHSH value of a mixture of
    wirings never exceeds the best component, so shared randomness cannot
    beat the maximum found here. Ties resolve to the smallest strategy
    encodings, so results are identical run to run. For an input within
    ``tol`` of the no-signaling set, the scan ranks pairs by values within
    ``_scan_tol(tol)`` of the reference composer's, and the winner's two
    values are checked against that bound.
    """
    started = time.perf_counter()
    tol = check_tol(tol)
    require_non_signaling(box, tol)
    nl_in = nl_correlators(_correlators(box))

    dedup = _dedup()
    g = _half_functionals(box)
    kernel_done = time.perf_counter()

    row_max = _row_max(g, dedup)
    best_val = float(row_max.max())
    near = best_val - _NEAR_MAX
    row = int(np.argmax(row_max >= near))
    best_si = int(dedup.alice[row])
    best_ti = int(dedup.orbit_min_of_pair[_pair_values(g, dedup, row) >= near].min())
    scan_done = time.perf_counter()

    wiring = Wiring2(
        AdaptiveStrategy.decode(int(dedup.rep_codes[best_si])),
        AdaptiveStrategy.decode(int(dedup.rep_codes[best_ti])),
    )
    # The box passed the entry check above; the composite is still checked.
    nl_out = nl_correlators(_correlators(_compose_wiring2(box, wiring, tol)))
    if abs(nl_out - best_val) > _scan_tol(tol):
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
        strategies_deduped=len(dedup.rep_codes),
        wall_time_s=finished - started,
        tol=tol,
        kernel_s=kernel_done - started,
        scan_s=scan_done - kernel_done,
        verify_s=finished - scan_done,
        alice_rows_scanned=len(dedup.alice),
        pairs_scanned=len(dedup.alice) * len(dedup.rep_codes),
    )
