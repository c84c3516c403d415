"""Shared test helpers: extremal boxes, random sampling, reference oracles."""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from nlboxes import Box, deterministic, is_non_signaling, validate
from nlboxes.wiring import AdaptiveStrategy


def pr_variant(alpha: int, beta: int, gamma: int) -> Box:
    """Extremal non-signaling box with a XOR b = xy XOR alpha*x XOR beta*y XOR gamma."""
    m = np.zeros((4, 4))
    for x, y, a, b in product((0, 1), repeat=4):
        if (a ^ b) == ((x & y) ^ (alpha & x) ^ (beta & y) ^ gamma):
            m[2 * x + y, 2 * a + b] = 0.5
    return Box(m)


def deterministic_vertices() -> list[Box]:
    return [
        deterministic(fa, fb)
        for fa in product((0, 1), repeat=2)
        for fb in product((0, 1), repeat=2)
    ]


def ns_vertices() -> list[Box]:
    verts = deterministic_vertices()
    verts += [pr_variant(*bits) for bits in product((0, 1), repeat=3)]
    return verts


_NS_VERTEX_MATS = None
_LOCAL_VERTEX_MATS = None


def random_ns_box(rng: np.random.Generator) -> Box:
    """Random point of the non-signaling polytope (mixture of its 24 vertices)."""
    global _NS_VERTEX_MATS
    if _NS_VERTEX_MATS is None:
        _NS_VERTEX_MATS = np.stack([np.asarray(v.matrix) for v in ns_vertices()])
    weights = rng.dirichlet(np.ones(len(_NS_VERTEX_MATS)))
    return Box(np.tensordot(weights, _NS_VERTEX_MATS, axes=1))


def random_local_box(rng: np.random.Generator) -> Box:
    """Random point of the local polytope (mixture of deterministic boxes)."""
    global _LOCAL_VERTEX_MATS
    if _LOCAL_VERTEX_MATS is None:
        _LOCAL_VERTEX_MATS = np.stack([np.asarray(v.matrix) for v in deterministic_vertices()])
    weights = rng.dirichlet(np.ones(len(_LOCAL_VERTEX_MATS)))
    return Box(np.tensordot(weights, _LOCAL_VERTEX_MATS, axes=1))


def random_valid_box(rng: np.random.Generator) -> Box:
    """Random row-stochastic box, usually signaling."""
    return Box(rng.dirichlet(np.ones(4), size=4))


def random_strategy(rng: np.random.Generator) -> AdaptiveStrategy:
    return AdaptiveStrategy.decode(int(rng.integers(0, 1 << 15)))


def box_from_correlators(c) -> Box:
    """Uniform-marginal box realizing a correlator tuple with |X| <= 1."""
    vals = c if isinstance(c, tuple) else c.as_tuple()
    m = np.empty((4, 4))
    for x, y, a, b in product((0, 1), repeat=4):
        sign = 1.0 if a == b else -1.0
        m[2 * x + y, 2 * a + b] = 0.25 * (1.0 + sign * vals[2 * x + y])
    return Box(m)


def xor_compose_enumerate(box: Box, n: int) -> Box:
    """Independent oracle for XOR composition: literal sum over all 4**n tuples."""
    m = np.asarray(box.matrix)
    out = np.zeros((4, 4))
    for r in range(4):
        for outcomes in product(range(4), repeat=n):
            p = 1.0
            parity = 0
            for o in outcomes:
                p *= m[r, o]
                parity ^= o
            out[r, parity] += p
    return Box(out)


def assert_boxes_close(b1: Box, b2: Box, tol: float = 1e-12) -> None:
    diff = np.max(np.abs(np.asarray(b1.matrix) - np.asarray(b2.matrix)))
    assert diff <= tol, f"boxes differ by {diff:.3e}"


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240831)


# Boxes that pass every input check at tol 0, on which a search at tol 0 once
# failed its own composite check: the first composite is off by 5.55e-17 in
# a marginal, the second by 1.11e-16 in a row sum.
TOL_0_BOXES = [
    [
        [0.3582595250136451, 0, 0, 0.6417404749863549],
        [0.3582595250136451, 0, 0.2834809499727098, 0.3582595250136451],
        [0.3582595250136451, 0, 0, 0.6417404749863549],
        [0, 0.3582595250136451, 0.6417404749863549, 0],
    ],
    [
        [0.48006963695032867, 0, 0, 0.5199303630496713],
        [0.48006963695032867, 0, 0.03986072609934266, 0.48006963695032867],
        [0.48006963695032867, 0, 0, 0.5199303630496713],
        [0, 0.48006963695032867, 0.5199303630496713, 0],
    ],
]


def dusty_ns_boxes(rng: np.random.Generator, count: int, tol: float = 1e-9) -> list[Box]:
    """Vertices and mixtures of two or three vertices whose zeros became dust
    in [-tol, 0), taken from each row's largest entry; kept only if valid and
    non-signaling at ``tol``, with at least one negative entry."""
    vertices = np.stack([np.asarray(v.matrix) for v in ns_vertices()])
    boxes = []
    while len(boxes) < count:
        k = int(rng.integers(1, 4))
        picks = rng.choice(len(vertices), size=k, replace=False)
        m = np.tensordot(rng.dirichlet(np.ones(k)), vertices[picks], axes=1)
        for row in m:
            zeros = row == 0.0
            dust = rng.uniform(0.0, tol, size=int(zeros.sum()))
            row[zeros] = -dust
            row[np.argmax(row)] += dust.sum()
        box = Box(m)
        if (m < 0.0).any() and validate(box, tol).ok and is_non_signaling(box, tol).ok:
            boxes.append(box)
    return boxes


def near_ns_boxes(rng: np.random.Generator, count: int, tol: float) -> list[Box]:
    """Vertices and random no-signaling boxes moved entrywise by up to ``tol``;
    kept only if valid and non-signaling at ``tol``."""
    vertices = ns_vertices()
    boxes = []
    while len(boxes) < count:
        base = vertices[int(rng.integers(len(vertices)))] if rng.random() < 0.5 else random_ns_box(rng)
        box = Box(np.asarray(base.matrix) + rng.uniform(-tol, tol, (4, 4)))
        if validate(box, tol).ok and is_non_signaling(box, tol).ok:
            boxes.append(box)
    return boxes
