"""The box core on Python floats against test-local copies of the numpy code
it replaced: the loader's decisions and messages, the non-signaling verdict
and residual, the uniform-marginal test, the XOR powers, the AND game's win
probability, the relabelings and depolarization, bit for bit."""

from __future__ import annotations

import array
import json
import math
import re
import warnings
from collections import deque
from decimal import Decimal
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import nlboxes as nb
from nlboxes import games, quantum
from nlboxes.wiring import _xor_powers
from conftest import (
    deterministic_vertices, dusty_ns_boxes, near_ns_boxes, ns_vertices, random_ns_box, random_valid_box,
)

_TOLS = [0.0, 1e-12, 1e-9, 1e-3, 0.5, 1e308]


# ---------------------------------------------------------------------------
# The numpy code the float core replaced, kept as oracles
# ---------------------------------------------------------------------------

def _numpy_is_number(value) -> bool:
    return isinstance(value, (float, int, np.floating, np.integer)) and not isinstance(value, bool)


def _numpy_as_matrix(values) -> np.ndarray:
    if isinstance(values, np.ndarray) and values.dtype.kind not in "iuf":
        raise ValueError(f"box matrix must hold numbers, got {values.dtype}")
    try:
        arr = np.array(values, dtype=float)
    except TypeError as exc:
        raise ValueError(f"box matrix must hold numbers: {exc}") from exc
    except OverflowError as exc:
        raise ValueError("box matrix entry is too large for a float") from exc
    if arr.shape != (4, 4):
        raise ValueError(f"box matrix must be 4x4, got shape {arr.shape}")
    if not isinstance(values, np.ndarray):
        samples = {type(v): v for row in values for v in row}.values()
        kinds = {type(v).__name__ for v in samples if not _numpy_is_number(v)}
        if kinds:
            raise ValueError(f"box matrix must hold numbers, got {', '.join(sorted(kinds))}")
    arr.setflags(write=False)
    return arr


def _numpy_marginals(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return m[:, 0::2] + m[:, 1::2], m[:, :2] + m[:, 2:]


def _numpy_is_non_signaling(box: nb.Box, tol: float) -> tuple[bool, float, bool]:
    """The verdict, the residual, and whether Bob's gap alone is NaN. The
    two gaps are taken by numpy's ``max``, so a NaN gap of either party
    makes the residual NaN and the box signaling. (The numpy code took them
    by Python's ``max``, which returned Alice's gap beside a NaN Bob gap.)"""
    nb.require_valid(box, tol)
    with np.errstate(over="ignore", invalid="ignore"):
        alice, bob = _numpy_marginals(box.matrix)
        alice_gap = np.abs(alice[0::2] - alice[1::2]).max()
        bob_gap = np.abs(bob[:2] - bob[2:]).max()
        worst = float(np.max([alice_gap, bob_gap]))
    return worst <= tol, worst, bool(np.isnan(bob_gap) and not np.isnan(alice_gap))


def _numpy_has_uniform_marginals(box: nb.Box, tol: float) -> bool:
    with np.errstate(over="ignore", invalid="ignore"):
        alice, bob = _numpy_marginals(box.matrix)
        return bool(np.abs(np.concatenate((alice[:, 0], bob[:, 0])) - 0.5).max() <= tol)


# ---------------------------------------------------------------------------
# Loader
# ---------------------------------------------------------------------------

def _outcome(load, values):
    """("ok", matrix bytes, JSON text) or ("error", exception type, message)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a numpy complex entry warns in both loaders
            matrix = load(values)
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return "error", type(exc), str(exc)
    return "ok", matrix.tobytes(), json.dumps({"matrix": [[float(v) for v in row] for row in matrix]})


def _new_outcome(values):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            box = nb.Box(values)
    except Exception as exc:  # noqa: BLE001
        return "error", type(exc), str(exc)
    assert box.matrix.dtype == np.float64 and not box.matrix.flags.writeable
    return "ok", box.matrix.tobytes(), box.to_json()


def _nested(depth: int):
    value = 0.25
    for _ in range(depth):
        value = [value]
    return value


_UNIFORM = [[0.25] * 4] * 4
_ENTRIES = [
    0.5, 1, -0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf, 2**53 + 1, 2**1023 * 1.5, 10**400, 2**1024,
    True, False, None, "0.5", "abc", "1_000", b"0.5", 1j, Fraction(1, 3), Decimal("0.1"), {}, set(), object(),
    np.float64(0.1), np.float32(0.1), np.float16(0.1), np.longdouble("0.1"), np.int64(3), np.uint64(2**64 - 1),
    np.int8(-1), np.bool_(True), np.str_("0.5"), np.complex128(1 + 1j), np.array(0.5), np.array(2),
]


def _loader_corpus() -> list:
    corpus = [
        _UNIFORM, [tuple(row) for row in _UNIFORM], tuple(map(tuple, _UNIFORM)), nb.pr().matrix.tolist(),
        [[1, 0, 0, 0]] * 4, [np.array(row) for row in _UNIFORM], [list(np.float32(_UNIFORM[0]))] * 4,
        # Whole arrays: int, float and other dtypes, and wrong shapes.
        np.array(_UNIFORM), np.array(_UNIFORM, dtype=np.float32), np.array(_UNIFORM, dtype=np.longdouble),
        np.eye(4, dtype=np.int64), np.eye(4, dtype=np.uint8), np.eye(4, dtype=bool), np.eye(4, dtype=complex),
        np.array(_UNIFORM, dtype=object), np.array([["0.25"] * 4] * 4), np.zeros((3, 4)), np.zeros((4, 4, 1)),
        np.zeros(16), np.array(0.5), np.asfortranarray(np.arange(16.0).reshape(4, 4)),
        np.arange(32.0).reshape(4, 8)[:, ::2],
        # Wrong shapes and nesting.
        [[0.25] * 4] * 3, [[0.25] * 3] * 4, [0.25] * 16, [], [[]], [[], [], [], []], [[[0.25]] * 4] * 4,
        [[0.25] * 4] * 3 + [[0.25, 0.25, 0.25, [0.25]]],
        [[0.25] * 4] * 3 + [0.25], [np.zeros(4)] * 3 + [np.zeros(3)], [[np.zeros(1)] * 4] * 4,
        # Rows of other sequence types, which numpy reads as rows.
        [range(4)] * 4, [array.array("d", row) for row in _UNIFORM], [deque(row) for row in _UNIFORM],
        deque(_UNIFORM), [range(1, 5)] * 3 + [[0.25] * 4],
        5, 0.5, "abc", "0.5", None, {}, {"matrix": _UNIFORM}, np.float64(0.5),
        _nested(63), _nested(64), _nested(65), _nested(300),
    ]
    # Each hostile entry in place of one entry of the uniform box, and in a (3, 4) table.
    for entry in _ENTRIES:
        for at in (0, 15):
            rows = [list(row) for row in _UNIFORM]
            rows[at // 4][at % 4] = entry
            corpus += [rows, rows[:3]]
        corpus.append([[entry] * 4] * 4)
    return corpus


def test_loader_keeps_numpys_decisions_and_messages():
    corpus = _loader_corpus()
    for values in corpus:
        assert _new_outcome(values) == _outcome(_numpy_as_matrix, values), repr(values)[:200]
    assert sum(_outcome(_numpy_as_matrix, v)[0] == "ok" for v in corpus) > 20


@pytest.mark.parametrize("values", [
    [[0.25] * 4] * 3 + [[0.25] * 3],
    [[0.25] * 3, [0.25] * 4, [0.25] * 4, [0.25] * 4],
    ((0.25,) * 4, (0.25,) * 5, (0.25,) * 4, (0.25,) * 4),
    [[0.25] * 4, [], [0.25] * 4, [0.25] * 4],
])
def test_rows_of_unequal_lengths_get_the_4x4_message(values):
    # numpy refused these with its "inhomogeneous shape" error.
    assert "inhomogeneous" in _outcome(_numpy_as_matrix, values)[2]
    assert _new_outcome(values) == ("error", ValueError, "box matrix must be 4x4, got rows of unequal lengths")


def test_loader_keeps_every_bit_of_seeded_tables(rng):
    for _ in range(300):
        m = rng.dirichlet(np.ones(4), size=4) * rng.choice([1.0, -1.0, 1e-300, 1e300], size=(4, 4))
        single = (rng.dirichlet(np.ones(4), size=4) * rng.choice([1.0, -1.0, 1e-30, 1e30], size=(4, 4)))
        single = single.astype(np.float32)
        for values in (m, m.tolist(), single, single.tolist(), list(single)):
            assert _new_outcome(values) == _outcome(_numpy_as_matrix, values)


def test_a_box_stores_only_its_rows_and_builds_its_array_on_first_access():
    arr = np.array(_UNIFORM)
    box, listed = nb.Box(arr), nb.Box(_UNIFORM)
    for made in (box, listed):
        assert made.rows == tuple(map(tuple, _UNIFORM))
        assert "matrix" not in vars(made)
        assert made.matrix is made.matrix and made.matrix is not arr and not made.matrix.flags.writeable
    assert listed.matrix.tobytes() == box.matrix.tobytes() == arr.tobytes()


# ---------------------------------------------------------------------------
# Marginals
# ---------------------------------------------------------------------------

# Rows that push the marginal sums to their edges: sums that overflow to
# +-inf, or to NaN once two infinite marginals are subtracted, NaN and
# infinite entries, signed zeros and subnormals.
_HOSTILE_ROWS = [
    [1e308, -1e308, 1e308, -1e308],
    [-1e308, 1e308, -1e308, 1e308],
    [1e308, -1e308, -1e308, 1e308],
    [1e308, 1e308, -1e308, -1e308],
    [math.nan, 0.25, 0.25, 0.25],
    [0.25, 0.25, 0.25, math.nan],
    [math.inf, -math.inf, 0.5, 0.5],
    [-0.0, 0.5, 0.5, -0.0],
    [5e-324, 0.5, 0.5, -5e-324],
    [0.5, 5e-324, 0.0, 0.5],
    [0.25] * 4,
    [0.5, 0.0, 0.0, 0.5],
    [0.0, 0.5, 0.5, 0.0],
]


def _marginal_corpus(rng) -> list[nb.Box]:
    boxes = [nb.pr(), nb.noise(), nb.p_eps_delta(0.3, 0.02), nb.isotropic(0.8)]
    boxes += [random_ns_box(rng) for _ in range(150)] + [random_valid_box(rng) for _ in range(50)]
    for tol in (1e-12, 1e-9, 1e-3):
        boxes += near_ns_boxes(rng, 30, tol)
    # Each hostile row at each position among uniform rows, and seeded
    # boxes of four hostile rows.
    boxes += [nb.Box([row if r == at else [0.25] * 4 for r in range(4)]) for row in _HOSTILE_ROWS for at in range(4)]
    picks = rng.integers(len(_HOSTILE_ROWS), size=(1500, 4))
    boxes += [nb.Box([_HOSTILE_ROWS[i] for i in pick]) for pick in picks]
    return boxes


def test_is_non_signaling_keeps_the_numpy_verdict_and_residual(rng):
    boxes = _marginal_corpus(rng)
    reached = nan_bob_gaps = 0
    for tol in _TOLS:
        for box in boxes:
            try:
                expected = _numpy_is_non_signaling(box, tol)
            except nb.InvalidBoxError as exc:
                with pytest.raises(nb.InvalidBoxError, match=f"^{re.escape(str(exc))}$"):
                    nb.is_non_signaling(box, tol)
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # float sums write nothing on stderr
                got = nb.is_non_signaling(box, tol)
            assert (got.ok, float.hex(got.residual)) == (expected[0], float.hex(expected[1])), box.rows
            reached += 1
            nan_bob_gaps += expected[2]
    assert reached > 2000
    assert nan_bob_gaps > 0


def test_has_uniform_marginals_keeps_the_numpy_answer(rng):
    boxes = _marginal_corpus(rng)
    nan_box = nb.Box([[0.25] * 4] * 3 + [[math.nan, 0.25, 0.25, 0.25]])
    assert quantum.has_uniform_marginals(nan_box) is False
    for tol in _TOLS:
        for box in boxes + [nan_box]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = quantum.has_uniform_marginals(box, tol)
            assert got is _numpy_has_uniform_marginals(box, tol), (box.rows, tol)


# ---------------------------------------------------------------------------
# XOR composition, the AND game and the relabelings
# ---------------------------------------------------------------------------

# The numpy forms of ``_xor_powers``, ``_gathered_win_probability``,
# ``Relabeling.permutation``/``apply`` and ``depolarize`` that the float
# paths replaced.
_XOR = np.bitwise_xor.outer(np.arange(4), np.arange(4))


def _numpy_xor_powers(box: nb.Box, n_max: int) -> np.ndarray:
    shifted = box.matrix[:, _XOR]
    powers = np.empty((n_max, 4, 4))
    powers[0] = acc = box.matrix
    for k in range(1, n_max):
        t = acc[:, :, None] * shifted
        powers[k] = acc = (((0.0 + t[:, 0]) + t[:, 1]) + t[:, 2]) + t[:, 3]
    return powers


_WIN_I, _WIN_J = np.array([
    (4 * (2 * x1 + y2) + 2 * a1 + b1, 4 * (2 * x2 + y1) + 2 * a2 + b2)
    for x1, x2, y1, y2 in product((0, 1), repeat=4)
    for a1, b1, a2, b2 in product((0, 1), repeat=4)
    if ((x1 & x2) ^ a1 ^ a2 ^ (y1 & y2) ^ b1 ^ b2) == ((x1 ^ y1) & (x2 ^ y2))
]).T


def _numpy_gathered_win_probability(box: nb.Box) -> float:
    f = box.matrix.ravel()
    terms = np.concatenate(((0.0,), f[_WIN_I] * f[_WIN_J]))
    return np.add.accumulate(terms)[-1] / 16.0


def _numpy_permutation(sigma: nb.Relabeling) -> np.ndarray:
    perm = np.empty(16, dtype=np.intp)
    for x, y, a, b in product((0, 1), repeat=4):
        sx = x ^ sigma.flip_x
        sy = y ^ sigma.flip_y
        sa = a ^ (sigma.a_flip_with_x & x) ^ sigma.flip_a
        sb = b ^ (sigma.b_flip_with_y & y) ^ sigma.flip_b
        perm[4 * (2 * x + y) + 2 * a + b] = 4 * (2 * sx + sy) + 2 * sa + sb
    return perm


def _numpy_apply(sigma: nb.Relabeling, box: nb.Box) -> np.ndarray:
    return np.asarray(box.matrix).reshape(16)[_numpy_permutation(sigma)].reshape(4, 4)


_NUMPY_S_WEIGHTS = np.outer(nb.boxes.CHSH_SIGNS[0], (1.0, -1.0, -1.0, 1.0)).ravel()


def _numpy_depolarize(box: nb.Box, tol: float = nb.DEFAULT_TOL) -> np.ndarray:
    nb.require_non_signaling(box, tol)
    perms = np.stack([_numpy_permutation(sigma) for sigma in nb.relabelings()])
    stabilizer = np.flatnonzero((_NUMPY_S_WEIGHTS[perms] == _NUMPY_S_WEIGHTS).all(axis=1))
    images = np.asarray(box.matrix).reshape(16)[perms[stabilizer]]
    # Python's sum over the image rows (arrays, so never compensated).
    return (sum(images, 0.0) / len(images)).reshape(4, 4)


_NUMPY_PERMUTATIONS = np.stack([_numpy_permutation(sigma) for sigma in nb.relabelings()])


def _lexsort_canonical_form(box: nb.Box) -> np.ndarray:
    nb.require_valid(box)
    images = np.asarray(box.matrix).reshape(16)[_NUMPY_PERMUTATIONS]
    # lexsort's last key is the primary one; ties keep the first relabeling.
    return images[np.lexsort(images.T[::-1])[0]].reshape(4, 4)


def _matrix_win_probability(box: nb.Box) -> float:
    m = box.matrix
    total = 0.0
    for x1, x2, y1, y2 in product((0, 1), repeat=4):
        target = (x1 ^ y1) & (x2 ^ y2)
        for a1, b1, a2, b2 in product((0, 1), repeat=4):
            p = m[2 * x1 + y2, 2 * a1 + b1] * m[2 * x2 + y1, 2 * a2 + b2]
            a = (x1 & x2) ^ a1 ^ a2
            b = (y1 & y2) ^ b1 ^ b2
            if (a ^ b) == target:
                total += p
    return total / 16.0


def _hex(values) -> list[str]:
    return [float.hex(float(v)) for v in np.ravel(values)]


def _float_path_corpus(rng) -> list[nb.Box]:
    """Seeded non-signaling boxes, each built from an ndarray and from lists:
    family members, mixtures of vertices, vertices whose zeros are -0.0, and
    boxes with dust in [-1e-9, 0)."""
    tables = [nb.pr().matrix, nb.noise().matrix, nb.p_eps_delta(0.3, 0.02).matrix, nb.isotropic(0.8).matrix]
    tables += [np.asarray(random_ns_box(rng).matrix) for _ in range(60)]
    tables += [np.where(v.matrix == 0.0, -0.0, v.matrix) for v in ns_vertices()]
    tables += [np.asarray(b.matrix) for b in dusty_ns_boxes(rng, 40)]
    boxes = []
    for table in tables:
        boxes += [nb.Box(np.array(table)), nb.Box(np.array(table).tolist())]
    assert not any("matrix" in vars(b) for b in boxes)  # a box stores its rows only
    return boxes


def test_float_paths_keep_the_numpy_bits(rng):
    boxes = _float_path_corpus(rng)
    signed_zeros = dust = 0
    for box in boxes:
        m = np.asarray(box.matrix)
        signed_zeros += bool((np.signbit(m) & (m == 0.0)).any())
        dust += bool(((m < 0.0) & (m >= -1e-9)).any())
        want = _numpy_xor_powers(box, 16)
        got = _xor_powers(box, 16)
        assert [_hex(step) for step in got] == [_hex(step) for step in want], box.rows
        for n in (1, 2, 3, 7, 16):
            assert _hex(nb.compose_xor(box, n).rows) == _hex(want[n - 1])
        for m in (1, 2, 4):
            success = nb.play_and_game(box, m).success
            assert float.hex(success) == float.hex(_numpy_gathered_win_probability(nb.Box(want[m - 1])))
        assert _hex(nb.depolarize(box).rows) == _hex(_numpy_depolarize(box))
        for sigma in nb.relabelings():
            assert _hex(sigma.apply(box).rows) == _hex(_numpy_apply(sigma, box))
    assert signed_zeros >= 30 and dust >= 60


_ORBIT_IMAGES = 20


def _orbit_corpus(rng) -> list[nb.Box]:
    """Noise, PR, isotropic, deterministic, dusty and -0.0 boxes, each with
    ``_ORBIT_IMAGES`` seeded relabeled images of it: 10,206 boxes."""
    bases = [nb.noise(), nb.pr(), *deterministic_vertices(), *ns_vertices()]
    bases += [nb.isotropic(eta) for eta in (0.0, 0.5, 1 / math.sqrt(2), 1.0, *rng.uniform(0.0, 1.0, 60))]
    bases += [random_ns_box(rng) for _ in range(60)] + dusty_ns_boxes(rng, 150)
    # Vertices whose zeros are all -0.0, and vertices and mixtures with a
    # seeded half of their zeros -0.0, so that equal images differ in bits.
    for v in ns_vertices() + [random_ns_box(rng) for _ in range(10)]:
        m = np.asarray(v.matrix)
        bases.append(nb.Box(np.where(m == 0.0, -0.0, m)))
        bases += [nb.Box(np.where((m == 0.0) & (rng.random((4, 4)) < 0.5), -0.0, m)) for _ in range(4)]
    boxes = []
    for base in bases:
        boxes.append(base)
        boxes += [nb.relabelings()[i].apply(base) for i in rng.integers(64, size=_ORBIT_IMAGES)]
    return boxes


def test_canonical_form_and_win_probability_keep_the_numpy_bits(rng):
    # Test-local copies of the numpy code: the lexsort over the 64 images of
    # ``box.matrix``, and the enumeration reading ``box.matrix``.
    boxes = _orbit_corpus(rng)
    assert len(boxes) >= 10_000
    signed_ties = 0
    for box in boxes:
        got = nb.canonical_form(box)
        assert _hex(got.rows) == _hex(_lexsort_canonical_form(box)), box.rows
        assert float.hex(games._win_probability(box)) == float.hex(_matrix_win_probability(box)), box.rows
        if any(v == 0.0 and math.copysign(1.0, v) < 0.0 for row in box.rows for v in row):
            # Smallest images that differ only in the signs of their zeros:
            # the tie-break picks which one's bits are returned.
            images = (sigma.apply(box).rows for sigma in nb.relabelings())
            smallest = {tuple(_hex(rows)) for rows in images if rows == got.rows}
            signed_ties += len(smallest) > 1
    assert signed_ties >= 1000


def test_float_win_probability_keeps_the_numpy_bits_on_any_table(rng):
    # Not boxes: -0.0 tables and signed entries spanning 1e-170 to 1e149, so
    # that products underflow to signed zeros and sums cancel.
    tables = [np.full((4, 4), -0.0), np.where(np.eye(4) == 1.0, -0.0, 0.25)]
    tables += [rng.standard_normal((4, 4)) * 10.0 ** rng.integers(-170, 150, (4, 4)) for _ in range(300)]
    for table in tables:
        for box in (nb.Box(table), nb.Box(table.tolist())):
            with np.errstate(all="ignore"):  # products and sums that overflow
                want_win, want_powers = _numpy_gathered_win_probability(box), _numpy_xor_powers(box, 16)
                want_enumerated = _matrix_win_probability(box)
            assert float.hex(games._gathered_win_probability(box)) == float.hex(want_win)
            assert float.hex(games._win_probability(box)) == float.hex(want_enumerated)
            assert [_hex(step) for step in _xor_powers(box, 16)] == [_hex(step) for step in want_powers]


def test_relabeling_cells_are_the_numpy_permutation():
    for sigma in nb.relabelings():
        cells = sigma.cells
        assert type(cells) is tuple and all(type(c) is int for c in cells)
        perm = sigma.permutation()
        assert perm.dtype == np.intp and np.array_equal(perm, _numpy_permutation(sigma))
        assert cells == tuple(perm.tolist())
