"""XOR composition, adaptive two-copy wirings, and the correlator power law."""

from __future__ import annotations

import copy
import dataclasses
import pickle
import sys
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlboxes as nb
from nlboxes.boxes import _clean
from nlboxes import wiring as wiring_module
from nlboxes.wiring import _compose_xor, _xor_powers
from conftest import (
    assert_boxes_close,
    deterministic_vertices,
    random_local_box,
    random_ns_box,
    random_strategy,
    xor_compose_enumerate,
)

TOL = 1e-9


def test_compose_xor_identity_at_one_copy():
    box = nb.p_eps(0.1)
    assert_boxes_close(nb.compose_xor(box, 1), box, tol=0.0)


def test_compose_xor_matches_literal_enumeration(rng):
    for _ in range(10):
        box = random_ns_box(rng)
        for n in (2, 3, 4, 5):
            assert_boxes_close(nb.compose_xor(box, n), xor_compose_enumerate(box, n), tol=1e-12)


def test_compose_xor_p_eps_curve():
    for eps in (0.05, 0.1, 0.2, 0.3, 0.45):
        for n in range(1, 9):
            expected = 3.0 - (1.0 - 2.0 * eps) ** n
            assert nb.nl(nb.compose_xor(nb.p_eps(eps), n)) == pytest.approx(expected, abs=1e-9)


def test_compose_xor_two_copies_example():
    assert nb.nl(nb.compose_xor(nb.p_eps(0.1), 2)) == pytest.approx(2.36, abs=1e-9)


def test_compose_xor_pr_parity():
    # XOR composition multiplies correlators, so the last one alternates
    # sign with n: odd powers reproduce the PR box, even powers give the
    # perfectly correlated local box.
    for n in (1, 3, 5):
        composed = nb.compose_xor(nb.pr(), n)
        assert nb.correlators(composed).x11 == pytest.approx(-1.0, abs=1e-12)
        assert nb.nl(composed) == pytest.approx(4.0, abs=1e-12)
    for n in (2, 4, 6):
        composed = nb.compose_xor(nb.pr(), n)
        assert nb.correlators(composed).x11 == pytest.approx(1.0, abs=1e-12)
        assert nb.nl(composed) == pytest.approx(2.0, abs=1e-12)


def test_correlator_power_law_agreement(rng):
    for _ in range(100):
        box = random_ns_box(rng)
        for n in (1, 2, 3, 6):
            law = nb.xor_correlator_law(box, n)
            brute = nb.correlators(nb.compose_xor(box, n))
            assert max(
                abs(a - b) for a, b in zip(law.as_tuple(), brute.as_tuple())
            ) <= 1e-9


def test_compose_xor_preserves_non_signaling(rng):
    for _ in range(50):
        box = random_ns_box(rng)
        for n in (2, 4):
            assert nb.is_non_signaling(nb.compose_xor(box, n)).ok


def test_compose_xor_bounds_and_errors():
    with pytest.raises(ValueError):
        nb.compose_xor(nb.pr(), 0)
    with pytest.raises(ValueError):
        nb.compose_xor(nb.pr(), 17)
    with pytest.raises(ValueError):
        nb.compose_xor(nb.pr(), 2.5)  # type: ignore[arg-type]
    with pytest.raises(nb.SignalingBoxError):
        nb.compose_xor(
            nb.Box(
                [
                    [1.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 1.0, 0.0],
                    [0.25, 0.25, 0.25, 0.25],
                    [0.25, 0.25, 0.25, 0.25],
                ]
            ),
            2,
        )


@pytest.mark.parametrize("n", [2.5, 2.0, True, 0, 17])
@pytest.mark.parametrize(
    "call",
    [
        lambda n: nb.compose_xor(nb.p_eps(0.1), n),
        lambda n: nb.xor_correlator_law(nb.p_eps(0.1), n),
        lambda n: nb.AndGameStrategy(nb.p_eps(0.1), n),
        lambda n: nb.play_and_game(nb.p_eps(0.1), n),
    ],
    ids=["compose_xor", "xor_correlator_law", "AndGameStrategy", "play_and_game"],
)
def test_copy_count_rejected_alike(call, n):
    with pytest.raises(ValueError, match=r"^[nm] must be (an integer|in 1\.\.16), got "):
        call(n)


def test_compose_xor_deep_copy_count():
    box = nb.p_eps(0.3)
    got = nb.nl(nb.compose_xor(box, 16))
    assert got == pytest.approx(3.0 - 0.4**16, abs=1e-9)


def _compose_xor_loop(box: nb.Box, n: int) -> np.ndarray:
    """Oracle: the per-row convolution loop that composes one n on its own."""
    rows = []
    for r in range(4):
        row = box.matrix[r]
        acc = row.copy()
        for _ in range(n - 1):
            acc = np.array([sum(acc[i] * row[i ^ j] for i in range(4)) for j in range(4)])
        rows.append(acc)
    return _clean(np.array(rows), nb.DEFAULT_TOL)


def _xor_kernel_corpus(rng: np.random.Generator) -> list[nb.Box]:
    """Seeded boxes for the XOR kernel: family members, 500 random no-signaling
    boxes, family grids, vertices with -0.0 for every zero, and boxes with
    entries in [-tol, 0)."""
    boxes = [nb.p_eps(0.1), nb.p_eps_delta(0.3, 0.02), nb.pr()]
    boxes += [random_ns_box(rng) for _ in range(500)]
    grid = np.linspace(0.0, 1.0, 11)
    boxes += [nb.p_eps_delta(float(eps), float(delta)) for eps in grid[1:] for delta in grid]
    boxes += [nb.isotropic(float(eta)) for eta in grid]
    for vertex in (nb.pr(), nb.deterministic((0, 1), (1, 1)), random_ns_box(rng), nb.p_eps(1.0)):
        m = np.array(vertex.matrix)
        m[m == 0.0] = -0.0
        boxes.append(nb.Box(m))
    for vertex in (nb.pr(), nb.p_eps(1.0), *deterministic_vertices()[::3]):
        # Rounding dust below zero, moved from each row's largest entry.
        m = np.array(vertex.matrix)
        for row in m:
            zeros = row == 0.0
            dust = rng.uniform(0.0, nb.DEFAULT_TOL, size=int(zeros.sum()))
            row[zeros] = -dust
            row[np.argmax(row)] += dust.sum()
        boxes.append(nb.Box(m))
    return boxes


def test_xor_powers_steps_match_single_n_bit_for_bit(rng):
    signed_zeros = dust = 0
    for box in _xor_kernel_corpus(rng):
        dust += int(np.any((box.matrix < 0.0) & (box.matrix >= -nb.DEFAULT_TOL)))
        powers = _xor_powers(box, 16)
        assert powers.shape == (16, 4, 4)
        for k in range(1, 17):
            step = _clean(powers[k - 1], nb.DEFAULT_TOL)
            assert step.tobytes() == np.asarray(_compose_xor(box, k, nb.DEFAULT_TOL).matrix).tobytes()
            assert step.tobytes() == _compose_xor_loop(box, k).tobytes()
            signed_zeros += int(np.sum(np.signbit(step) & (step == 0.0)))
    assert signed_zeros > 0  # the sign of zero is really compared
    assert dust == 8  # and entries in [-tol, 0) really reach the kernel


def test_wiring2_xor_strategy_equals_compose_xor(rng):
    wiring = nb.Wiring2(nb.xor_strategy(), nb.xor_strategy())
    for box in (nb.p_eps(0.1), nb.isotropic(0.7), random_ns_box(rng)):
        assert_boxes_close(nb.compose_wiring2(box, wiring), nb.compose_xor(box, 2), tol=1e-12)


def test_wiring2_projection_returns_input(rng):
    wiring = nb.Wiring2(nb.first_box_strategy(), nb.first_box_strategy())
    for box in (nb.p_eps(0.1), random_ns_box(rng)):
        assert_boxes_close(nb.compose_wiring2(box, wiring), box, tol=1e-12)


def _compose_wiring2_numpy_scalars(box: nb.Box, wiring: nb.Wiring2) -> np.ndarray:
    """``compose_wiring2``'s loop over numpy float64 scalars: the reference
    for its products and their summation order."""
    m = box.matrix
    out = np.zeros((4, 4))
    for x, y in product((0, 1), repeat=2):
        for a1, a2, b1, b2 in product((0, 1), repeat=4):
            (xa1, xa2), a = wiring.alice.trace(x, (a1, a2))
            (yb1, yb2), b = wiring.bob.trace(y, (b1, b2))
            p = m[2 * xa1 + yb1, 2 * a1 + b1] * m[2 * xa2 + yb2, 2 * a2 + b2]
            out[2 * x + y, 2 * a + b] += p
    return _clean(out, nb.DEFAULT_TOL)


def test_compose_wiring2_matches_the_numpy_scalar_loop_bit_for_bit():
    rng = np.random.default_rng(2026)
    for i in range(200):
        box = random_ns_box(rng) if i % 2 else random_local_box(rng)
        wiring = nb.Wiring2(random_strategy(rng), random_strategy(rng))
        got = np.asarray(nb.compose_wiring2(box, wiring).matrix)
        assert got.tobytes() == _compose_wiring2_numpy_scalars(box, wiring).tobytes()


def test_wirings_cannot_create_nonlocality(rng):
    for _ in range(1000):
        box = random_local_box(rng)
        wiring = nb.Wiring2(random_strategy(rng), random_strategy(rng))
        composed = nb.compose_wiring2(box, wiring)
        assert nb.nl(composed) <= 2.0 + TOL


def test_wiring_outputs_non_signaling(rng):
    for _ in range(200):
        box = random_ns_box(rng)
        wiring = nb.Wiring2(random_strategy(rng), random_strategy(rng))
        assert nb.is_non_signaling(nb.compose_wiring2(box, wiring)).ok


def test_nl_monotone_toward_three():
    for eps in (0.05, 0.2, 0.45):
        values = [nb.nl(nb.compose_xor(nb.p_eps(eps), n)) for n in range(1, 9)]
        assert all(b > a for a, b in zip(values, values[1:]))
    assert nb.nl_closed_eps(0.1, 40) == pytest.approx(3.0, abs=1e-3)


def _encode_by_shifts(s: nb.AdaptiveStrategy) -> int:
    """Reference encoding: each map bit shifted to its fixed position."""
    code = s.order << 14
    code |= s.first_input[0] << 13 | s.first_input[1] << 12
    for x in (0, 1):
        for o in (0, 1):
            code |= s.second_input[x][o] << (11 - 2 * x - o)
    for x in (0, 1):
        for o1 in (0, 1):
            for o2 in (0, 1):
                code |= s.output[x][o1][o2] << (7 - 4 * x - 2 * o1 - o2)
    return code


def _decode_by_shifts(code: int) -> nb.AdaptiveStrategy:
    """Reference decoding: each map bit read from its fixed position."""
    first_input = ((code >> 13) & 1, (code >> 12) & 1)
    second_input = tuple(tuple((code >> (11 - 2 * x - o)) & 1 for o in (0, 1)) for x in (0, 1))
    output = tuple(
        tuple(tuple((code >> (7 - 4 * x - 2 * o1 - o2)) & 1 for o2 in (0, 1)) for o1 in (0, 1))
        for x in (0, 1)
    )
    return nb.AdaptiveStrategy((code >> 14) & 1, first_input, second_input, output)


def test_strategy_encode_decode_round_trip():
    for code in range(1 << 15):
        strat = nb.AdaptiveStrategy.decode(code)
        # decode stores the code it read; the constructor packs the fields it checked.
        built = nb.AdaptiveStrategy(**strat.to_json_dict())
        assert strat == _decode_by_shifts(code) == built
        assert strat.encode() == built.encode() == _encode_by_shifts(built) == code
    assert nb.AdaptiveStrategy.decode(nb.xor_strategy().encode()) == nb.xor_strategy()
    # decode skips the constructor's checks, so its fields must already be plain ints.
    strat = nb.AdaptiveStrategy.decode(np.int64(4966))
    assert strat == nb.xor_strategy()
    assert type(strat.order) is int and type(strat.output[1][1][0]) is int
    with pytest.raises(ValueError):
        nb.AdaptiveStrategy.decode(1 << 15)
    with pytest.raises(ValueError):
        nb.AdaptiveStrategy.decode(4966.0)  # type: ignore[arg-type]


def test_replace_copy_and_pickle_keep_the_code():
    rng = np.random.default_rng(18)
    for code in rng.integers(0, 1 << 15, size=200).tolist():
        strat = nb.AdaptiveStrategy.decode(code)
        flipped = dataclasses.replace(strat, order=1 - strat.order)
        assert flipped.encode() == _encode_by_shifts(flipped) == code ^ 1 << 14
        # canonical_strategy indexes by the stored code, so every copy must
        # reach its class's one shared representative.
        assert nb.canonical_strategy(flipped) is nb.canonical_strategy(nb.AdaptiveStrategy.decode(code ^ 1 << 14))
        canon = nb.canonical_strategy(strat)
        for other in (copy.copy(strat), copy.deepcopy(strat), pickle.loads(pickle.dumps(strat))):
            assert other == strat and hash(other) == hash(strat)
            assert other.encode() == code
            assert nb.canonical_strategy(other) is canon
    # The stored code is no field: it stays out of equality, repr and the dict form.
    strat = nb.xor_strategy()
    assert [f.name for f in dataclasses.fields(strat)] == ["order", "first_input", "second_input", "output"]
    assert "_code" not in repr(strat) and "_code" not in dataclasses.asdict(strat)


def test_strategy_validation():
    with pytest.raises(ValueError):
        nb.AdaptiveStrategy(2, (0, 0), ((0, 0), (0, 0)), (((0, 0), (0, 0)), ((0, 0), (0, 0))))
    with pytest.raises(ValueError):
        nb.AdaptiveStrategy(0, (0, 3), ((0, 0), (0, 0)), (((0, 0), (0, 0)), ((0, 0), (0, 0))))


@pytest.mark.parametrize("bad", [1.5, 1.0, 0.9, True, False, "1", None, np.float64(1.0), np.bool_(True)], ids=repr)
def test_strategy_bits_are_exact_ints(bad):
    # A map entry is an int 0 or 1: no truncation of 1.5 to 1 (which built
    # code 21350 from order=1.5), and no bool taken as an int.
    maps = dict(first_input=(0, 1), second_input=((0, 0), (1, 1)), output=(((0, 1), (1, 0)), ((0, 1), (1, 0))))
    assert nb.AdaptiveStrategy(order=1, **maps).encode() == 21350
    assert nb.AdaptiveStrategy(order=np.int64(1), **maps).encode() == 21350
    with pytest.raises(ValueError, match="order must be 0 or 1"):
        nb.AdaptiveStrategy(order=bad, **maps)
    with pytest.raises(ValueError, match="output must be 0 or 1"):
        nb.AdaptiveStrategy(order=0, **{**maps, "output": (((0, bad), (1, 0)), ((0, 1), (1, 0)))})


def test_trace_respects_query_order():
    # Query physical copy 1 first, feed it the input, then feed copy 0 the
    # first outcome, and output the second-seen bit.
    strat = nb.AdaptiveStrategy(
        order=1,
        first_input=(0, 1),
        second_input=((0, 1), (0, 1)),
        output=(((0, 1), (0, 1)), ((0, 1), (0, 1))),
    )
    inputs, final = strat.trace(1, (0, 1))  # copy 0 returns 0, copy 1 returns 1
    assert inputs == (1, 1)  # copy 0 got second_input[1][outcome of copy 1]
    assert final == 0  # the second-seen bit, i.e. copy 0's outcome


@settings(max_examples=100, deadline=None)
@given(code_a=st.integers(0, (1 << 15) - 1), code_b=st.integers(0, (1 << 15) - 1), eta=st.floats(0.0, 1.0))
def test_wiring_closure_hypothesis(code_a, code_b, eta):
    wiring = nb.Wiring2(nb.AdaptiveStrategy.decode(code_a), nb.AdaptiveStrategy.decode(code_b))
    composed = nb.compose_wiring2(nb.isotropic(eta), wiring)
    assert nb.validate(composed).ok
    assert nb.is_non_signaling(composed).ok
    assert nb.nl(composed) <= 4.0 + TOL


# A deterministic vertex moved by 0.99 tol along directions that a linear
# program found to push one wiring's composite furthest: every input check
# passes at tol, and the composite lands 5.94 tol above 1 in one entry and
# 2.97 tol off in a marginal. A check of the composite at 2 tol would fail.
_VERTEX = [[0, 0, 1, 0], [0, 0, 1, 0], [1, 0, 0, 0], [1, 0, 0, 0]]
_PUSHES = {
    "entry": [[0, 0, 1, -1], [2, -1, 1, -1], [1, -1, -1, 1], [1, -1, 2, -1]],
    "marginal": [[0, -1, 1, -1], [-1, 1, 1, 0], [1, -1, -1, 0], [1, 0, 0, 0]],
}


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
def test_composite_check_holds_on_a_box_only_within_tol(tol):
    wiring = nb.Wiring2(nb.AdaptiveStrategy.decode(9494), nb.AdaptiveStrategy.decode(10387))
    worst = {}
    for name, push in _PUSHES.items():
        box = nb.Box(np.array(_VERTEX, dtype=float) + 0.99 * tol * np.array(push, dtype=float))
        assert nb.validate(box, tol).ok and nb.is_non_signaling(box, tol).ok
        composite = nb.compose_wiring2(box, wiring, tol).matrix
        worst[name] = max(composite.max() - 1.0, nb.is_non_signaling(nb.Box(composite), 1.0).residual)
    assert worst["entry"] > 5.9 * tol and worst["marginal"] > 2.9 * tol
    assert max(worst.values()) <= wiring_module._composite_tol(tol)


def test_composite_tol_is_rounding_at_tol_0():
    assert wiring_module._composite_tol(0.0) == 64 * 2.0**-52
    assert wiring_module._composite_tol(1e-9) == pytest.approx(12e-9, rel=1e-6)


def test_composite_tol_saturates_at_the_largest_float():
    assert wiring_module._composite_tol(1e200) == sys.float_info.max
    assert wiring_module._composite_tol(sys.float_info.max) == sys.float_info.max
    resource = nb.p_eps(0.1)
    xor = nb.Wiring2(nb.xor_strategy(), nb.xor_strategy())
    huge = nb.compose_wiring2(resource, xor, 1e200).matrix
    assert huge.tobytes() == nb.compose_wiring2(resource, xor, 1e-9).matrix.tobytes()
    result = nb.search_2copy(resource, 1e200)
    assert (result.wiring.alice.encode(), result.wiring.bob.encode()) == (4966, 4966)
