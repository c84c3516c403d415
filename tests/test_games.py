"""Distributed AND game: exact values, closed form, and the separations."""

from __future__ import annotations

import math
from itertools import product

import numpy as np
import pytest

import nlboxes as nb
from conftest import box_from_correlators, ns_vertices, random_ns_box
from nlboxes import games
from nlboxes.wiring import MAX_XOR_COPIES

TOL = 1e-9
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_classical_optimum_is_three_quarters():
    assert nb.classical_and_optimum() == 0.75


def test_constant_outputs_match_target_count():
    # A hand count of inputs with (x1 XOR y1) AND (x2 XOR y2) == 0.
    zeros = sum(
        1
        for x1, x2, y1, y2 in product((0, 1), repeat=4)
        if ((x1 ^ y1) & (x2 ^ y2)) == 0
    )
    assert zeros / 16.0 == 0.75
    assert nb.classical_and_optimum() >= zeros / 16.0


def test_pr_resource_always_wins():
    assert nb.and_game_success(nb.AndGameStrategy(nb.pr())) == pytest.approx(1.0, abs=1e-12)


def test_tsirelson_resource_hits_exactly_the_classical_bar():
    box = box_from_correlators((INV_SQRT2, INV_SQRT2, INV_SQRT2, -INV_SQRT2))
    success = nb.and_game_success(nb.AndGameStrategy(box))
    assert success == pytest.approx(0.75, abs=1e-12)


def test_closed_form_matches_enumeration(rng):
    for _ in range(100):
        strategy = nb.AndGameStrategy(random_ns_box(rng))
        exact = nb.and_game_success(strategy)
        closed = nb.and_game_success_closed(strategy)
        assert abs(exact - closed) <= 1e-12


def test_closed_form_matches_enumeration_with_distillation(rng):
    for m in (2, 3, 5):
        strategy = nb.AndGameStrategy(random_ns_box(rng), m)
        assert abs(nb.and_game_success(strategy) - nb.and_game_success_closed(strategy)) <= 1e-12


def test_success_monotone_in_chsh_functional():
    values = [
        nb.and_game_success(nb.AndGameStrategy(nb.isotropic(eta)))
        for eta in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_quantum_resources_never_beat_classical(rng):
    checked = 0
    while checked < 300:
        vals = tuple(rng.uniform(-1.0, 1.0, size=4))
        ok, _ = nb.is_quantum_correlators(nb.Correlators(*vals))
        if not ok:
            continue
        success = nb.and_game_success(nb.AndGameStrategy(box_from_correlators(vals)))
        assert success <= nb.classical_and_optimum() + TOL
        checked += 1


def test_weak_nonquantum_resource_beats_classical_after_distillation():
    resource = nb.p_eps(0.1)
    assert nb.nl(resource) == pytest.approx(2.2, abs=1e-12)  # weakly non-local
    assert nb.nl(resource) <= nb.TSIRELSON_BOUND
    ok, _ = nb.is_quantum_correlators(nb.correlators(resource))
    assert not ok
    result = nb.play_and_game(resource, m=8)
    assert result.success > nb.classical_and_optimum() + 1e-5
    assert result.s_value > nb.TSIRELSON_BOUND


def test_p_eps_03_distilled_value():
    result = nb.play_and_game(nb.p_eps(0.3), m=4)
    assert result.s_value == pytest.approx(3.0 - 0.4**4, abs=1e-12)
    assert result.success == pytest.approx(0.77647048, abs=1e-8)
    assert result.success >= 0.776
    assert result.margin > 0.0


def test_game_result_payload():
    result = nb.play_and_game(nb.p_eps(0.3), m=4)
    payload = result.to_json_dict()
    assert set(payload) == {"resource_nl", "m", "s_value", "success", "classical_baseline", "margin"}
    assert payload["classical_baseline"] == 0.75


def test_strategy_validation():
    with pytest.raises(ValueError):
        nb.AndGameStrategy(nb.pr(), 0)
    box = nb.Box(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.25, 0.25, 0.25, 0.25],
            [0.25, 0.25, 0.25, 0.25],
        ]
    )
    with pytest.raises(nb.SignalingBoxError):
        nb.and_game_success(nb.AndGameStrategy(box))


def _dusty_vertices(rng) -> list[nb.Box]:
    # One zero per row becomes dust in [-TOL, 0): rows and marginals stay within TOL.
    out = []
    for vertex in ns_vertices():
        m = np.array(vertex.matrix)
        for row in m:
            row[rng.choice(np.flatnonzero(row == 0.0))] = rng.uniform(-TOL, 0.0)
        out.append(nb.Box(m))
    return out


def test_gathered_sum_matches_the_enumeration_bit_for_bit(rng):
    corpus = [nb.pr(), nb.noise()]
    corpus += [nb.p_eps(eps) for eps in (0.05, 0.1, 0.2, 0.3, 1 / 3, 0.5, 0.7, 0.9, 1.0)]
    corpus += [nb.isotropic(eta) for eta in (0.0, 0.3, 0.5, 0.6, INV_SQRT2, 0.8, 0.9, 1.0)]
    corpus += [random_ns_box(rng) for _ in range(30)]
    corpus += [nb.Box(np.where(v.matrix == 0.0, -0.0, v.matrix)) for v in ns_vertices()]
    corpus += _dusty_vertices(rng)
    assert any(np.signbit(box.matrix).any() for box in corpus)
    for box in corpus:
        for m in range(1, MAX_XOR_COPIES + 1):
            played = games._played_box(nb.AndGameStrategy(box, m), TOL)
            expected = games._win_probability(played)
            assert float.hex(nb.play_and_game(box, m, TOL).success) == float.hex(expected), (box, m)


def test_gathered_sum_matches_the_enumeration_on_any_table(rng):
    # Not boxes: a table of -0.0, and signed entries whose magnitudes span
    # 1e-170 to 1e149, so that some products underflow to signed zeros.
    tables = [np.full((4, 4), -0.0)]
    tables += [rng.standard_normal((4, 4)) * 10.0 ** rng.integers(-170, 150, (4, 4)) for _ in range(200)]
    for table in tables:
        box = nb.Box(table)
        expected = games._win_probability(box)
        assert float.hex(games._gathered_win_probability(box)) == float.hex(expected)


def test_winning_cells_are_128_distinct_pairs():
    cells = games._WIN_CELLS
    assert type(cells) is tuple and len(cells) == len(set(cells)) == 128
    assert all(type(i) is int and type(j) is int and 0 <= i < 16 and 0 <= j < 16 for i, j in cells)


def test_play_and_game_never_runs_the_enumeration(monkeypatch):
    expected = nb.play_and_game(nb.p_eps(0.3), m=4)

    def enumeration(box):
        raise AssertionError("enumerated")

    monkeypatch.setattr(games, "_win_probability", enumeration)
    assert nb.play_and_game(nb.p_eps(0.3), m=4) == expected
    with pytest.raises(AssertionError, match="^enumerated$"):
        nb.and_game_success(nb.AndGameStrategy(nb.p_eps(0.3), 4))
