"""The box layer's conventions, CHSH signs, correlators and marginals, against literal oracles.

``boxes`` owns them: ``chsh_values`` defines the eight CHSH functionals,
``_correlator_rows`` the one order in which a row's correlator is summed,
and ``_marginals`` the parties' output marginals. The oracles below write them
out by hand, the way the modules that now read them once did, and the
new code must match them bit for bit. Each public entry point also checks
its box exactly once.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np
import pytest

import nlboxes as nb
from nlboxes import boxes, games, quantum, search, symmetry
from conftest import random_ns_box, random_valid_box

# The CHSH functionals as signs over (Bob input y, Alice input x): S, the
# three with the minus sign moved, and the negations of all four.
CHSH_SIGNS_LITERAL = np.array([
    [[sign * (-1 if (x, y) == (1 - x0, 1 - y0) else 1) for x in (0, 1)] for y in (0, 1)]
    for sign in (1, -1) for x0, y0 in product((0, 1), repeat=2)
])

# Coefficients of S = X00 + X01 + X10 - X11 on the 16 flat cells.
S_WEIGHTS_LITERAL = np.array(
    [(1, 1, 1, -1)[r] * (1, -1, -1, 1)[c] for r in range(4) for c in range(4)]
)


def _seeded_boxes(rng, count: int = 200) -> list[nb.Box]:
    """Non-signaling mixtures, most with non-uniform marginals, and signaling boxes."""
    return [random_ns_box(rng) if i % 2 else random_valid_box(rng) for i in range(count)]


def _arcsin_sums_loop(c: nb.Correlators, tol: float) -> tuple[float, ...]:
    grid = ((c.x00, c.x01), (c.x10, c.x11))
    asin = [[quantum._arcsin(grid[x][y], tol) for y in (0, 1)] for x in (0, 1)]
    return tuple(
        asin[x][y] + asin[x][1 - y] + asin[1 - x][y] - asin[1 - x][1 - y]
        for x in (0, 1) for y in (0, 1)
    )


def _ns_residual_loop(m: np.ndarray) -> float:
    worst = 0.0
    for x in (0, 1):
        for a in (0, 1):
            p0 = m[2 * x, 2 * a] + m[2 * x, 2 * a + 1]
            p1 = m[2 * x + 1, 2 * a] + m[2 * x + 1, 2 * a + 1]
            worst = max(worst, abs(float(p0 - p1)))
    for y in (0, 1):
        for b in (0, 1):
            p0 = m[y, b] + m[y, 2 + b]
            p1 = m[2 + y, b] + m[2 + y, 2 + b]
            worst = max(worst, abs(float(p0 - p1)))
    return worst


def _uniform_marginals_loop(m: np.ndarray, tol: float) -> bool:
    for r in range(4):
        if abs(float(m[r, 0] + m[r, 1]) - 0.5) > tol:
            return False
        if abs(float(m[r, 0] + m[r, 2]) - 0.5) > tol:
            return False
    return True


def test_chsh_sign_tables_match_literals():
    assert np.array_equal(search._CHSH_SIGNS, CHSH_SIGNS_LITERAL)
    assert np.array_equal(boxes.CHSH_SIGNS, CHSH_SIGNS_LITERAL.transpose(0, 2, 1).reshape(8, 4))
    assert np.array_equal(symmetry._S_WEIGHTS, S_WEIGHTS_LITERAL)


def test_chsh_readers_match_literal_oracles(rng):
    for box in _seeded_boxes(rng):
        c = nb.correlators(box)
        assert nb.chsh_functional(box) == c.x00 + c.x01 + c.x10 - c.x11
        assert quantum.arcsin_sums(c) == _arcsin_sums_loop(c, nb.DEFAULT_TOL)
        assert nb.chsh_values(c)[0] == c.x00 + c.x01 + c.x10 - c.x11


# Valid rows (a, b, c, d) whose correlator a different summation order, or a
# product that drops a signed zero, would change: signed zeros, the smallest
# subnormal, and an entry one ulp below 1.
_ONE_ULP_BELOW = math.nextafter(1.0, 0.0)
_HOSTILE_ROWS = [
    (-0.0, 0.5, 0.0, 0.5),
    (1.0, -0.0, -0.0, -0.0),
    (-0.0, 1.0, 0.0, -0.0),
    (5e-324, 0.5, 0.5, 0.0),
    (0.5, 5e-324, 0.0, 0.5),
    (_ONE_ULP_BELOW, 2.0**-53, 0.0, 0.0),
    (0.0, 0.0, _ONE_ULP_BELOW, 2.0**-53),
    (2.0**-53, _ONE_ULP_BELOW, 5e-324, -0.0),
]


def _literal_correlators(box: nb.Box) -> list[str]:
    return [float.hex((a - c) + (d - b)) for a, b, c, d in box.matrix.tolist()]


def test_correlators_sum_each_row_as_a_minus_c_plus_d_minus_b(rng):
    hostile = [nb.Box([_HOSTILE_ROWS[(i + k) % len(_HOSTILE_ROWS)] for k in range(4)])
               for i in range(len(_HOSTILE_ROWS))]
    boxes_ = _seeded_boxes(rng) + hostile
    for box in boxes_:
        assert [float.hex(v) for v in nb.correlators(box).as_tuple()] == _literal_correlators(box)
    # A stack's rows take the same order, matrix by matrix.
    rows = boxes._correlator_rows(np.stack([box.matrix for box in boxes_]).reshape(-1, 4).tolist())
    assert [float.hex(v) for v in rows] == [h for box in boxes_ for h in _literal_correlators(box)]


def test_s_has_one_value_across_the_package():
    family = nb.p_eps_delta(0.3, 0.02)
    assert nb.chsh_functional(family) == 2.48 == nb.play_and_game(family).s_value
    seeded = np.random.default_rng(7)
    for box in [family] + [random_ns_box(seeded) for _ in range(300)]:
        s = nb.chsh_functional(box)
        assert s == nb.play_and_game(box, 1).s_value == nb.chsh_values(nb.correlators(box))[0]


def test_game_s_value_matches_literal_sum(rng):
    for _ in range(20):
        box = random_ns_box(rng)
        for m in (1, 3):
            c = nb.correlators(nb.compose_xor(box, m))
            assert nb.play_and_game(box, m).s_value == c.x00 + c.x01 + c.x10 - c.x11


def test_marginal_readers_match_scalar_loops(rng):
    boxes_ = _seeded_boxes(rng) + [nb.p_eps_delta(0.2, 0.05), nb.isotropic(0.7), nb.pr()]
    uniform = 0
    for box in boxes_:
        m = np.asarray(box.matrix)
        residual = _ns_residual_loop(m)
        assert nb.is_non_signaling(box) == (residual <= nb.DEFAULT_TOL, residual)
        for tol in (nb.DEFAULT_TOL, 0.05):
            assert quantum.has_uniform_marginals(box, tol) is _uniform_marginals_loop(m, tol)
        uniform += _uniform_marginals_loop(m, nb.DEFAULT_TOL)
    assert 0 < uniform < len(boxes_)


@pytest.mark.parametrize(
    "call",
    [
        lambda box: nb.is_local(box),
        lambda box: nb.is_quantum_box(box),
        lambda box: nb.nl(box),
        lambda box: nb.play_and_game(box, 1),
        lambda box: nb.play_and_game(box, 3),
    ],
    ids=["is_local", "is_quantum_box", "nl", "play_and_game_m1", "play_and_game_m3"],
)
def test_entry_points_check_their_box_once(call, monkeypatch):
    seen = []
    original = boxes.validate

    def counted(box, tol=nb.DEFAULT_TOL):
        seen.append(box)
        return original(box, tol)

    monkeypatch.setattr(boxes, "validate", counted)
    call(nb.p_eps(0.1))
    assert len(seen) == 1


@pytest.mark.parametrize("m, compositions", [(1, 0), (3, 1)])
def test_play_and_game_composes_once(m, compositions, monkeypatch):
    calls = []
    original = games._compose_xor

    def counted(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(games, "_compose_xor", counted)
    games.play_and_game(nb.p_eps(0.1), m)
    assert calls == [m] * compositions
