"""Local composition of independent box copies.

Two kinds of protocol are implemented. ``compose_xor`` feeds the party
inputs to n copies in parallel and XORs the outputs, for any n up to 16.
``compose_wiring2`` runs an arbitrary deterministic adaptive strategy per
party over two copies: each party picks which copy to query first, chooses
its inputs adaptively, and computes a final bit from everything it saw.

Both return the exact output distribution. Because the copies are
independent and non-signaling, the joint probability of a full outcome
tuple factorizes into a product over copies no matter how the two parties
interleave their queries, so no global schedule is needed.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import product

from .boxes import (
    DEFAULT_TOL,
    MAX_XOR_COPIES,
    Box,
    Correlators,
    _check_int,
    _is_bit,
    _shown,
    check_tol,
    correlators,
    is_non_signaling,
    require_non_signaling,
)


def compose_xor(box: Box, n: int, tol: float = DEFAULT_TOL) -> Box:
    """Distribution of the XOR of the outputs of n parallel copies.

    Exact: for each input pair, the row of the result is the n-fold
    convolution of the copy's outcome distribution over XOR of output
    pairs, which sums the same products as enumerating all 4**n outcome
    tuples. The convolution runs as n - 1 steps over the four rows as
    Python floats (see ``_xor_powers``). Requires 1 <= n <= 16. For several
    n of one box, ``distillation_report`` composes once and reads each n
    off that run.
    """
    n = _check_int(n, "n", 1, MAX_XOR_COPIES)
    require_non_signaling(box, tol)
    return _compose_xor(box, n)


def _compose_xor(box: Box, n: int) -> Box:
    """``compose_xor`` of a box and copy count the caller has already checked."""
    return Box(_xor_powers(box, n)[-1])


def _xor_powers(box: Box, n_max: int) -> list[tuple[tuple[float, ...], ...]]:
    """Rows of the 1- to ``n_max``-copy XOR compositions, as Python floats.

    Entry k - 1 of the result holds the four rows of k copies. Outcome pairs
    (a, b) are indexed by 2a + b, so the XOR of two pairs is the XOR of their
    indices, and each copy adds one step per row: with ``acc`` the previous
    step's row and ``r`` the box's row, entry j is
    ``(((0.0 + acc[0] * r[0 ^ j]) + acc[1] * r[1 ^ j]) + acc[2] * r[2 ^ j]) + acc[3] * r[3 ^ j]``,
    written out below for j = 0..3: the scalar convolution, added left to
    right from 0.0, which turns a -0.0 first term into +0.0. The additions
    are spelled out because ``sum`` of floats is compensated from Python
    3.12 on.
    """
    rows = box.rows
    powers = [rows]
    for _ in range(1, n_max):
        powers.append(tuple(
            ((((0.0 + a0 * r0) + a1 * r1) + a2 * r2) + a3 * r3,
             (((0.0 + a0 * r1) + a1 * r0) + a2 * r3) + a3 * r2,
             (((0.0 + a0 * r2) + a1 * r3) + a2 * r0) + a3 * r1,
             (((0.0 + a0 * r3) + a1 * r2) + a2 * r1) + a3 * r0)
            for (a0, a1, a2, a3), (r0, r1, r2, r3) in zip(powers[-1], rows)
        ))
    return powers


def xor_correlator_law(box: Box, n: int, tol: float = DEFAULT_TOL) -> Correlators:
    """Closed form for ``compose_xor``: each correlator is raised to the n-th power.

    The XOR of independent +-1 variables multiplies their expectations, so
    this must agree with the brute-force composition entrywise.
    """
    n = _check_int(n, "n", 1, MAX_XOR_COPIES)
    c = correlators(box, tol)
    return Correlators(c.x00**n, c.x01**n, c.x10**n, c.x11**n)


# A binary pair of a strategy map, indexed by its 2-bit field in the code
# (first entry high).
_BIT_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))
# A pair of binary pairs, indexed by its 4-bit field: shared tuples, so
# decoded strategies share their ``second_input`` and ``output`` halves.
_PAIR_PAIRS = tuple((p, q) for p in _BIT_PAIRS for q in _BIT_PAIRS)
# The map of each of the 15 code bits, most significant first.
_BIT_MAPS = ("order",) + ("first_input",) * 2 + ("second_input",) * 4 + ("output",) * 8


@dataclass(frozen=True)
class AdaptiveStrategy:
    """One party's deterministic plan over its two box ends.

    ``order`` names the physical copy queried first. ``first_input`` maps
    the party input to the first query bit, ``second_input`` maps (party
    input, first outcome) to the second query bit, and ``output`` maps
    (party input, first outcome, second outcome) to the final bit, with
    outcomes listed in query order. There are 2*4*16*256 = 32768 such
    strategies.

    A strategy's 15-bit code is the bits of its four maps in field order,
    most significant bit first: ``order``, ``first_input[x]``,
    ``second_input[x][o]``, ``output[x][o1][o2]``. Each strategy holds its
    code from construction on, as the plain attribute ``_code``, which is
    not a field: equality, hashing, ``repr`` and the JSON form read the
    fields only. The constructor takes any maps of the right shape whose 15
    entries are ints 0 or 1, Python or numpy and not bools, and stores the
    fields ``decode`` gives its code: nested tuples of plain ints.
    """

    order: int
    first_input: tuple[int, int]
    second_input: tuple[tuple[int, int], tuple[int, int]]
    output: tuple[tuple[tuple[int, int], tuple[int, int]], tuple[tuple[int, int], tuple[int, int]]]

    def __post_init__(self) -> None:
        try:
            (f0, f1), ((s00, s01), (s10, s11)) = self.first_input, self.second_input
            ((o000, o001), (o010, o011)), ((o100, o101), (o110, o111)) = self.output
        except (TypeError, ValueError) as exc:  # not iterable, or the wrong length
            raise ValueError("strategy maps must be total on their binary domains") from exc
        bits = (self.order, f0, f1, s00, s01, s10, s11, o000, o001, o010, o011, o100, o101, o110, o111)
        for name, bit in zip(_BIT_MAPS, bits):
            if not _is_bit(bit):
                raise ValueError(f"{name} must be 0 or 1, got {_shown(bit)}")
        code = sum(int(bit) << 14 - i for i, bit in enumerate(bits))
        vars(self).update(vars(self.decode(code)))

    def trace(self, x: int, outcomes: tuple[int, int]) -> tuple[tuple[int, int], int]:
        """Inputs fed to the physical copies and the final bit.

        ``outcomes`` lists the bits the physical copies would return,
        indexed by physical copy (not query order).
        """
        first = self.order
        o_first = outcomes[first]
        o_second = outcomes[1 - first]
        i_first = self.first_input[x]
        i_second = self.second_input[x][o_first]
        final = self.output[x][o_first][o_second]
        inputs = (i_first, i_second) if first == 0 else (i_second, i_first)
        return inputs, final

    def encode(self) -> int:
        """The 15-bit code of the maps; lexicographic on the maps. Packed once,
        when the strategy is built or decoded."""
        return self._code

    @classmethod
    def decode(cls, code: int) -> "AdaptiveStrategy":
        """The strategy whose ``encode`` is ``code``.

        Below the order bit, the code holds seven 2-bit fields, one per
        binary pair of the maps. ``first_input`` is read off ``_BIT_PAIRS``
        by its 2-bit field; ``second_input`` and each half of ``output`` are
        read off ``_PAIR_PAIRS`` by their 4-bit fields. Both tables hold
        shared tuples of plain ints, so the maps are binary and total by
        construction. The fields and the code are therefore set in one step,
        without the checks of ``__post_init__``. Raises ``ValueError`` unless
        ``code`` is an int in 0..32767, Python or numpy and not a bool.
        """
        code = _check_int(code, "strategy code", 0, (1 << 15) - 1)
        pp = _PAIR_PAIRS
        strategy = object.__new__(cls)
        vars(strategy).update(
            order=code >> 14,
            first_input=_BIT_PAIRS[code >> 12 & 3],
            second_input=pp[code >> 8 & 15],
            output=(pp[code >> 4 & 15], pp[code & 15]),
            _code=code,
        )
        return strategy

    def to_json_dict(self) -> dict:
        # Written out: asdict would keep the nested tuples, and JSON reads back lists.
        return {
            "order": self.order,
            "first_input": list(self.first_input),
            "second_input": [list(row) for row in self.second_input],
            "output": [[list(inner) for inner in mid] for mid in self.output],
        }


def xor_strategy() -> AdaptiveStrategy:
    """Both copies queried with the party input, final bit is the XOR."""
    return AdaptiveStrategy(
        order=0,
        first_input=(0, 1),
        second_input=((0, 0), (1, 1)),
        output=(((0, 1), (1, 0)), ((0, 1), (1, 0))),
    )


def first_box_strategy() -> AdaptiveStrategy:
    """Query both copies with the party input but output the first outcome."""
    return AdaptiveStrategy(
        order=0,
        first_input=(0, 1),
        second_input=((0, 0), (1, 1)),
        output=(((0, 0), (1, 1)), ((0, 0), (1, 1))),
    )


@dataclass(frozen=True)
class Wiring2:
    """A pair of adaptive strategies, one per party, over two shared copies."""

    alice: AdaptiveStrategy
    bob: AdaptiveStrategy

    def to_json_dict(self) -> dict:
        # Written out: each strategy turns its own tuples into lists.
        return {"alice": self.alice.to_json_dict(), "bob": self.bob.to_json_dict()}


def compose_wiring2(box: Box, wiring: Wiring2, tol: float = DEFAULT_TOL) -> Box:
    """Exact box simulated by running a two-copy wiring on ``box``.

    Enumerates the 16 physical outcome tuples per input pair; each tuple
    fixes both parties' adaptive paths, hence the inputs every copy saw,
    and contributes the product of the two copy probabilities.

    The input is checked at ``tol``; the composite is checked against its
    derivation bound ``_composite_tol(tol)``, 12 tol (1 + 10 tol) plus
    64 ulp(1) of rounding. A composite row sums products of two input rows,
    so an input within ``tol`` of a no-signaling box gives a composite within
    a multiple of ``tol`` of one. Split each party's marginal into its mean
    over the other party's input plus a deviation of at most tol / 2, and
    each entry into positive and negative parts (row masses at most 1 + 4 tol
    and 3 tol). Then a composite row sum is within 3 tol (1 + 7 tol) of 1,
    its marginals within 4 tol (1 + 7 tol) of each other, and its entries
    within 11 tol (1 + 10 tol) of [0, 1]. At ``tol`` 0 only rounding is left.
    """
    tol = check_tol(tol)
    require_non_signaling(box, tol)
    return _compose_wiring2(box, wiring, tol)


def _trace_offsets(strategy: AdaptiveStrategy, scale: int) -> list[list[tuple[int, ...]]]:
    """The strategy's 8 traces as index offsets, per party input x and in
    outcome order (o0, o1) of the physical copies: the input fed to copy 0,
    its outcome o0, the input fed to copy 1, its outcome o1, and the final
    bit, each times ``scale``. A box entry sits at row 2 * (Alice's input) +
    (Bob's) and column 2 * (Alice's outcome) + (Bob's), so Alice's scale is 2
    and Bob's 1."""
    return [
        [
            (scale * i0, scale * o0, scale * i1, scale * o1, scale * final)
            for o0, o1 in product((0, 1), repeat=2)
            for (i0, i1), final in [strategy.trace(x, (o0, o1))]
        ]
        for x in (0, 1)
    ]


def _composite_tol(tol: float) -> float:
    """The tolerance a two-copy composite is checked at, for an input checked
    at ``tol``: the bound derived in ``compose_wiring2``, plus rounding. Above
    a ``tol`` of about 1.2e153 the bound overflows and is taken as the largest
    float, a tolerance that still refuses NaN and infinite entries and row
    sums that overflow."""
    return min(12.0 * tol * (1.0 + 10.0 * tol) + 64 * 2.0**-52, sys.float_info.max)


def _compose_wiring2(box: Box, wiring: Wiring2, tol: float) -> Box:
    """``compose_wiring2`` of a box the caller has already checked at ``tol``;
    the composite is still checked, at ``_composite_tol(tol)``."""
    # Python floats: the same products, added in the same order, as numpy
    # float64 scalars, without their per-operation overhead.
    m = box.rows
    alice, bob = _trace_offsets(wiring.alice, 2), _trace_offsets(wiring.bob, 1)
    out = [[0.0] * 4 for _ in range(4)]
    for x, y in product((0, 1), repeat=2):
        row = out[2 * x + y]
        # Alice's outcomes (a1, a2) outer and Bob's (b1, b2) inner: the terms
        # are added in the order of one loop over (a1, a2, b1, b2).
        for xa1, a1, xa2, a2, a in alice[x]:
            for yb1, b1, yb2, b2, b in bob[y]:
                row[a + b] += m[xa1 + yb1][a1 + b1] * m[xa2 + yb2][a2 + b2]
    result = Box(out)
    check = is_non_signaling(result, _composite_tol(tol))
    if not check.ok:
        raise AssertionError(
            f"wiring produced a signaling box (residual {check.residual:.3g}); "
            "this cannot happen for a non-signaling resource"
        )
    return result
