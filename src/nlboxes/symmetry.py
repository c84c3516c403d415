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

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .boxes import _CORR_SIGNS, CHSH_SIGNS, DEFAULT_TOL, Box, _clean, require_non_signaling
from .wiring import AdaptiveStrategy


@dataclass(frozen=True)
class Relabeling:
    """One local reversible transform, six flip bits in total.

    Alice maps x to x^flip_x and a to a ^ (a_flip_with_x AND x) ^ flip_a;
    Bob acts the same way on y and b.
    """

    flip_x: int
    flip_a: int
    a_flip_with_x: int
    flip_y: int
    flip_b: int
    b_flip_with_y: int

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
# input pair (row) times that correlator's sign on the output pair (column).
_S_WEIGHTS = np.outer(CHSH_SIGNS[0], _CORR_SIGNS).ravel()


@lru_cache(maxsize=1)
def chsh_stabilizer() -> tuple[Relabeling, ...]:
    """Relabelings that preserve S as a functional on all boxes."""
    keep = []
    for sigma in relabelings():
        perm = sigma.permutation()
        if np.array_equal(_S_WEIGHTS[perm], _S_WEIGHTS):
            keep.append(sigma)
    return tuple(keep)


def chsh_functional(box: Box) -> float:
    """S = X00 + X01 + X10 - X11, the CHSH expression at input pair 00."""
    return float(_S_WEIGHTS @ np.asarray(box.matrix).reshape(16))


def depolarize(box: Box, tol: float = DEFAULT_TOL) -> Box:
    """Average over the S-preserving relabelings; exact isotropic output.

    The result has correlators (S/4, S/4, S/4, -S/4) and uniform marginals,
    with S taken from the input box.
    """
    require_non_signaling(box, tol)
    flat = np.asarray(box.matrix).reshape(16)
    group = chsh_stabilizer()
    acc = np.zeros(16)
    for sigma in group:
        acc += flat[sigma.permutation()]
    return Box(_clean((acc / len(group)).reshape(4, 4), tol))


def _canonical_box(box: Box) -> Box:
    best = None
    for sigma in relabelings():
        candidate = tuple(np.asarray(sigma.apply(box).matrix).reshape(16))
        if best is None or candidate < best:
            best = candidate
    return Box(np.array(best).reshape(4, 4))


def canonical_form(obj: Box | AdaptiveStrategy):
    """Canonical representative of a box orbit or a strategy behavior class.

    Boxes are reduced to the lexicographically smallest table over the 64
    relabelings. Strategies are reduced to the smallest encoding among all
    strategies with identical observable behavior (same composite box for
    every non-signaling resource).
    """
    if isinstance(obj, Box):
        return _canonical_box(obj)
    if isinstance(obj, AdaptiveStrategy):
        from .search import canonical_strategy

        return canonical_strategy(obj)
    raise TypeError(f"canonical_form expects a Box or AdaptiveStrategy, got {type(obj).__name__}")
