"""Local relabelings, depolarization, and canonical forms.

A relabeling lets each party flip its input bit, flip its output bit, and
flip its output conditionally on its own input. The 64 combinations act on
a box by permuting table cells; they preserve validity and non-signaling.

Averaging a box over the subgroup that fixes the CHSH functional
S = X00 + X01 + X10 - X11 projects it onto the isotropic line: the result
has uniform marginals and correlators (eta, eta, eta, -eta) with
eta = S/4, so S is preserved exactly.

A relabeling has one internal form, its flat cell permutation ``cells``,
and every function here that takes a box works on the box's Python floats
through it, so none of them imports numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from itertools import product
from operator import itemgetter
from typing import TYPE_CHECKING

from .boxes import (
    CHSH_SIGNS,
    DEFAULT_TOL,
    Box,
    InvalidBoxError,
    _is_bit,
    _shown,
    chsh_values,
    correlators,
    require_non_signaling,
    require_valid,
)
from .wiring import AdaptiveStrategy

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class Relabeling:
    """One local reversible transform, six flip bits in total.

    Alice maps x to x^flip_x and a to a ^ (a_flip_with_x AND x) ^ flip_a;
    Bob acts the same way on y and b. Each bit is an int 0 or 1, Python or
    numpy and not a bool, kept as a plain int; ``ValueError`` otherwise.
    """

    flip_x: int
    flip_a: int
    a_flip_with_x: int
    flip_y: int
    flip_b: int
    b_flip_with_y: int

    def __post_init__(self) -> None:
        for field in fields(self):
            bit = getattr(self, field.name)
            if not _is_bit(bit):
                raise ValueError(f"{field.name} must be 0 or 1, got {_shown(bit)}")
            object.__setattr__(self, field.name, int(bit))

    @cached_property
    def cells(self) -> tuple[int, ...]:
        """Flat cell permutation as 16 ints: result flat cell i is box flat cell ``cells[i]``.
        Computed on first access and kept."""
        cells = [0] * 16
        for x, y, a, b in product((0, 1), repeat=4):
            sx = x ^ self.flip_x
            sy = y ^ self.flip_y
            sa = a ^ (self.a_flip_with_x & x) ^ self.flip_a
            sb = b ^ (self.b_flip_with_y & y) ^ self.flip_b
            cells[4 * (2 * x + y) + 2 * a + b] = 4 * (2 * sx + sy) + 2 * sa + sb
        return tuple(cells)

    def permutation(self) -> np.ndarray:
        """``cells`` as an intp array: result.flat[i] = box.flat[perm[i]]. Imports numpy."""
        import numpy as np

        return np.array(self.cells, dtype=np.intp)

    def apply(self, box: Box) -> Box:
        flat = [v for row in box.rows for v in row]
        image = [flat[c] for c in self.cells]
        return Box([image[0:4], image[4:8], image[8:12], image[12:16]])


@lru_cache(maxsize=1)
def relabelings() -> tuple[Relabeling, ...]:
    """All 64 local relabelings, in lexicographic flip-bit order."""
    return tuple(
        Relabeling(*bits) for bits in product((0, 1), repeat=6)
    )


# Per relabeling, in ``relabelings()`` order, the getter of its image's 16
# flat cells: ``_IMAGE_GETTERS[i](flat)`` is the flat image as a tuple.
_IMAGE_GETTERS = tuple(itemgetter(*sigma.cells) for sigma in relabelings())

# Coefficients of S on the 16 flat cells: its sign on the correlator of the
# input pair (row) times that correlator's sign (-1)**(a XOR b) on the output
# pair (column). Only the stabilizer reads them; S itself is read off the
# correlators.
_S_WEIGHTS = tuple(s * t for s in CHSH_SIGNS[0] for t in (1.0, -1.0, -1.0, 1.0))


@lru_cache(maxsize=1)
def chsh_stabilizer() -> tuple[Relabeling, ...]:
    """Relabelings that preserve S as a functional on all boxes."""
    return tuple(
        sigma for sigma in relabelings() if tuple(_S_WEIGHTS[c] for c in sigma.cells) == _S_WEIGHTS
    )


@lru_cache(maxsize=1)
def _depolarize_sources() -> tuple[tuple[int, ...], ...]:
    """Per flat cell, the cell each image under ``chsh_stabilizer()`` reads
    it from, in the stabilizer's order."""
    return tuple(zip(*(sigma.cells for sigma in chsh_stabilizer())))


def chsh_functional(box: Box) -> float:
    """S = X00 + X01 + X10 - X11, the CHSH expression at input pair 00.

    S is read off the box's correlators: it equals
    ``play_and_game(box, 1)``'s ``s_value``, bit for bit. The box is
    validated at the default tolerance, as ``canonical_form`` does; a box
    that fails raises ``InvalidBoxError``.
    """
    return chsh_values(correlators(box))[0]


def depolarize(box: Box, tol: float = DEFAULT_TOL) -> Box:
    """Average over the S-preserving relabelings; exact isotropic output.

    The result has correlators (S/4, S/4, S/4, -S/4) and uniform marginals,
    with S taken from the input box. Each cell adds its images under the
    stabilizer one at a time from 0.0 on the box's Python floats, then
    divides by their count, so rounding and signed zeros follow that one
    order. A sum that overflows, on a box valid only at a huge ``tol``,
    raises ``InvalidBoxError``.
    """
    require_non_signaling(box, tol)
    flat = [v for row in box.rows for v in row]
    out = []
    for sources in _depolarize_sources():
        # Written out: ``sum`` of floats is compensated from Python 3.12 on.
        total = 0.0
        for c in sources:
            total += flat[c]
        out.append(total / len(sources))
    if not all(map(math.isfinite, out)):
        raise InvalidBoxError("invalid box: a depolarized entry is not finite")
    return Box([out[0:4], out[4:8], out[8:12], out[12:16]])


def canonical_form(obj: Box | AdaptiveStrategy):
    """Canonical representative of a box orbit or a strategy behavior class.

    Boxes are reduced to the lexicographically smallest table over the 64
    relabelings, compared as tuples of the box's Python floats in row-major
    order; of equal tables (-0.0 equals 0.0) the first relabeling's is kept,
    with its own bits. Strategies are reduced to the smallest encoding
    among all strategies with identical observable behavior (same composite
    box for every non-signaling resource). A box that is not row-stochastic
    raises ``InvalidBoxError``.
    """
    if isinstance(obj, Box):
        require_valid(obj)
        flat = [v for row in obj.rows for v in row]
        image = min([get(flat) for get in _IMAGE_GETTERS])  # min keeps the first of equal images
        return Box([image[0:4], image[4:8], image[8:12], image[12:16]])
    if isinstance(obj, AdaptiveStrategy):
        from .search import canonical_strategy

        return canonical_strategy(obj)
    raise TypeError(f"canonical_form expects a Box or AdaptiveStrategy, got {type(obj).__name__}")
