"""Local relabelings, depolarization, and canonical forms.

A relabeling lets each party flip its input bit, flip its output bit, and
flip its output conditionally on its own input. The 64 combinations act on
a box by permuting table cells; they preserve validity and non-signaling.

Averaging a box over the subgroup that fixes the CHSH functional
S = X00 + X01 + X10 - X11 projects it onto the isotropic line: the result
has uniform marginals and correlators (eta, eta, eta, -eta) with
eta = S/4, so S is preserved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import product

import numpy as np

from .boxes import (
    CHSH_SIGNS,
    DEFAULT_TOL,
    Box,
    _clean,
    _correlators,
    _is_bit,
    _shown,
    chsh_values,
    require_non_signaling,
    require_valid,
)
from .wiring import AdaptiveStrategy


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

    def permutation(self) -> np.ndarray:
        """Flat cell permutation: result.flat[i] = box.flat[perm[i]]."""
        perm = np.empty(16, dtype=np.intp)
        for x, y, a, b in product((0, 1), repeat=4):
            sx = x ^ self.flip_x
            sy = y ^ self.flip_y
            sa = a ^ (self.a_flip_with_x & x) ^ self.flip_a
            sb = b ^ (self.b_flip_with_y & y) ^ self.flip_b
            perm[4 * (2 * x + y) + 2 * a + b] = 4 * (2 * sx + sy) + 2 * sa + sb
        return perm

    def apply(self, box: Box) -> Box:
        flat = np.asarray(box.matrix).reshape(16)
        return Box(flat[self.permutation()].reshape(4, 4))


@lru_cache(maxsize=1)
def relabelings() -> tuple[Relabeling, ...]:
    """All 64 local relabelings, in lexicographic flip-bit order."""
    return tuple(
        Relabeling(*bits) for bits in product((0, 1), repeat=6)
    )


# Coefficients of S on the 16 flat cells: its sign on the correlator of the
# input pair (row) times that correlator's sign (-1)**(a XOR b) on the output
# pair (column). Only the stabilizer reads them; S itself is read off the
# correlators.
_S_WEIGHTS = np.outer(CHSH_SIGNS[0], (1.0, -1.0, -1.0, 1.0)).ravel()


@lru_cache(maxsize=1)
def _permutations() -> np.ndarray:
    """Row i is ``relabelings()[i].permutation()``."""
    table = np.stack([sigma.permutation() for sigma in relabelings()])
    table.setflags(write=False)
    return table


@lru_cache(maxsize=1)
def _stabilizer_rows() -> np.ndarray:
    """Rows of ``_permutations()`` that leave the coefficients of S unchanged."""
    return np.flatnonzero((_S_WEIGHTS[_permutations()] == _S_WEIGHTS).all(axis=1))


@lru_cache(maxsize=1)
def chsh_stabilizer() -> tuple[Relabeling, ...]:
    """Relabelings that preserve S as a functional on all boxes."""
    return tuple(relabelings()[i] for i in _stabilizer_rows())


def chsh_functional(box: Box) -> float:
    """S = X00 + X01 + X10 - X11, the CHSH expression at input pair 00.

    S is read off the box's correlators: it equals
    ``chsh_values(correlators(box))[0]``, and ``play_and_game(box, 1)``'s
    ``s_value``, bit for bit. The box is not validated; a non-finite entry
    raises ``ValueError`` from ``Correlators``.
    """
    return chsh_values(_correlators(box))[0]


def depolarize(box: Box, tol: float = DEFAULT_TOL) -> Box:
    """Average over the S-preserving relabelings; exact isotropic output.

    The result has correlators (S/4, S/4, S/4, -S/4) and uniform marginals,
    with S taken from the input box.
    """
    require_non_signaling(box, tol)
    images = np.asarray(box.matrix).reshape(16)[_permutations()[_stabilizer_rows()]]
    # Summed one image at a time from 0.0, so rounding and signed zeros do
    # not depend on how numpy would reduce the stack.
    return Box(_clean((sum(images, 0.0) / len(images)).reshape(4, 4), tol))


def canonical_form(obj: Box | AdaptiveStrategy):
    """Canonical representative of a box orbit or a strategy behavior class.

    Boxes are reduced to the lexicographically smallest table over the 64
    relabelings. Strategies are reduced to the smallest encoding among all
    strategies with identical observable behavior (same composite box for
    every non-signaling resource). A box that is not row-stochastic raises
    ``InvalidBoxError``.
    """
    if isinstance(obj, Box):
        require_valid(obj)
        images = np.asarray(obj.matrix).reshape(16)[_permutations()]
        # lexsort's last key is the primary one; ties keep the first relabeling.
        return Box(images[np.lexsort(images.T[::-1])[0]].reshape(4, 4))
    if isinstance(obj, AdaptiveStrategy):
        from .search import canonical_strategy

        return canonical_strategy(obj)
    raise TypeError(f"canonical_form expects a Box or AdaptiveStrategy, got {type(obj).__name__}")
