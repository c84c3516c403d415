"""Box representation, validation, constructors, and CHSH analysis."""

from __future__ import annotations

import json
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlboxes as nb
from conftest import (
    assert_boxes_close,
    ns_vertices,
    random_ns_box,
    random_valid_box,
)

TOL = 1e-9


def test_pr_box():
    box = nb.pr()
    assert nb.validate(box).ok
    assert nb.is_non_signaling(box).ok
    assert nb.correlators(box).as_tuple() == (1.0, 1.0, 1.0, -1.0)
    assert nb.nl(box) == 4.0
    assert not nb.is_local(box)


def test_noise_box():
    box = nb.noise()
    assert nb.correlators(box).as_tuple() == (0.0, 0.0, 0.0, 0.0)
    assert nb.nl(box) == 0.0
    assert nb.is_local(box)
    assert all(v == 0.0 for v in nb.chsh_values(nb.correlators(box)))


def test_p_eps_point_one():
    box = nb.p_eps(0.1)
    assert nb.validate(box).ok
    c = nb.correlators(box)
    assert c.as_tuple() == pytest.approx((1.0, 1.0, 1.0, 0.8), abs=1e-12)
    vals = nb.chsh_values(c)
    assert vals[0] == pytest.approx(2.2, abs=1e-12)
    assert nb.nl(box) == pytest.approx(2.2, abs=1e-12)
    assert not nb.is_local(box)


def test_p_eps_delta_example_nl():
    assert nb.nl(nb.p_eps_delta(0.01, 0.002)) == pytest.approx(2.008, abs=1e-9)


def test_p_eps_one_is_pr():
    assert_boxes_close(nb.p_eps(1.0), nb.pr(), tol=0.0)


def test_p_eps_delta_zero_reduces_to_p_eps():
    for eps in (0.05, 0.1, 0.25, 0.5, 0.9, 1.0):
        assert_boxes_close(nb.p_eps_delta(eps, 0.0), nb.p_eps(eps), tol=0.0)


def test_isotropic_endpoints():
    assert_boxes_close(nb.isotropic(1.0), nb.pr(), tol=0.0)
    assert_boxes_close(nb.isotropic(0.0), nb.noise(), tol=0.0)
    c = nb.correlators(nb.isotropic(0.55))
    assert c.as_tuple() == pytest.approx((0.55, 0.55, 0.55, -0.55), abs=1e-12)
    assert nb.nl(nb.isotropic(0.55)) == pytest.approx(2.2, abs=1e-12)


def test_validate_negative_entry():
    box = nb.Box([[0.5, 0.5, 0.5, -0.5]] + [[0.25] * 4] * 3)
    report = nb.validate(box)
    assert not report.ok
    constraints = {v.constraint for v in report.violations}
    assert constraints == {"negative entry"}  # the bad row still sums to 1


def test_validate_row_sum():
    box = nb.Box([[0.3, 0.3, 0.3, 0.3]] + [[0.25] * 4] * 3)
    report = nb.validate(box)
    assert any(v.constraint == "row sum != 1" for v in report.violations)
    assert report.violations[0].residual == pytest.approx(0.2, abs=1e-12)


def test_validate_entry_above_one():
    box = nb.Box([[1.5, -0.5, 0.0, 0.0]] + [[0.25] * 4] * 3)
    constraints = {v.constraint for v in nb.validate(box).violations}
    assert "entry exceeds 1" in constraints and "negative entry" in constraints


def test_constructor_range_errors():
    with pytest.raises(ValueError, match=r"^eps must be in \(0, 1\], got 0\.0$"):
        nb.p_eps(0.0)
    with pytest.raises(ValueError, match=r"^eps must be in \(0, 1\], got 1\.2$"):
        nb.p_eps(1.2)
    with pytest.raises(ValueError):
        nb.p_eps_delta(0.5, -0.01)
    with pytest.raises(ValueError):
        nb.p_eps_delta(0.5, 1.01)
    with pytest.raises(ValueError):
        nb.isotropic(1.5)
    with pytest.raises(ValueError):
        nb.mix(nb.pr(), nb.noise(), 1.5)
    with pytest.raises(ValueError):
        nb.deterministic((0, 2), (0, 0))
    # Truth-table entries are exact ints: 1.9 is not truncated to 1, and a
    # bool is not an int here.
    for fa, fb in (((0, 1.9), (True, 0)), ((0, 1.9), (0, 0)), ((0, 1), (True, 0)), ((0, 1.0), (0, 0)), (("0", 1), (0, 0))):
        with pytest.raises(ValueError, match="two bits"):
            nb.deterministic(fa, fb)
    assert np.array_equal(nb.deterministic((np.int64(0), 1), (1, np.int8(1))).matrix, nb.deterministic((0, 1), (1, 1)).matrix)
    with pytest.raises(ValueError):
        nb.Box(np.zeros((3, 4)))


def test_signaling_box_detected():
    box = nb.Box(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.25, 0.25, 0.25, 0.25],
            [0.25, 0.25, 0.25, 0.25],
        ]
    )
    assert nb.validate(box).ok
    check = nb.is_non_signaling(box)
    assert not check.ok
    assert check.residual == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(nb.SignalingBoxError):
        nb.is_local(box)


def test_invalid_box_rejected_before_ns_check():
    box = nb.Box([[0.5, 0.5, 0.5, -0.5]] + [[0.25] * 4] * 3)
    with pytest.raises(nb.InvalidBoxError):
        nb.is_non_signaling(box)


def test_family_marginals_exactly_uniform():
    for eps, delta in ((0.01, 0.002), (0.3, 0.0), (1.0, 1.0), (0.5, 0.25)):
        check = nb.is_non_signaling(nb.p_eps_delta(eps, delta))
        assert check.ok and check.residual == 0.0


def test_all_deterministic_boxes_local():
    for fa in product((0, 1), repeat=2):
        for fb in product((0, 1), repeat=2):
            box = nb.deterministic(fa, fb)
            assert nb.is_non_signaling(box).ok
            assert nb.is_local(box)


def test_chsh_values_structure():
    c = nb.correlators(nb.pr())
    vals = nb.chsh_values(c)
    assert len(vals) == 8
    assert vals[4:] == tuple(-v for v in vals[:4])
    assert vals[0] == 4.0
    assert max(vals) == 4.0


def test_correlators_keep_plain_floats():
    # Each field is the float its check returns, as in FamilyParams: ints and
    # numpy floats become Python floats, so NL is computed in float64 and is a
    # float; a Python float keeps its bits.
    for values in ((1, 1, 1, -1), tuple(np.float32([0.7, 0.7, 0.7, -0.7])), (0.1, np.float64(0.2), np.int64(0), -0.3)):
        c = nb.Correlators(*values)
        assert [type(v) for v in c.as_tuple()] == [float] * 4
        assert c.as_tuple() == tuple(float(v) for v in values)
    assert repr(nb.nl_correlators(nb.Correlators(1, 1, 1, -1))) == "4.0"
    nl = nb.nl_correlators(nb.Correlators(*np.float32([0.7, 0.7, 0.7, -0.7])))
    assert type(nl) is float and nl == 2.799999952316284


def test_nl_bounded_by_four_on_random_valid_boxes(rng):
    for _ in range(1000):
        assert nb.nl(random_valid_box(rng)) <= 4.0 + TOL


def test_constructor_outputs_valid_and_non_signaling(rng):
    for _ in range(1000):
        eps = float(rng.uniform(1e-6, 1.0))
        delta = float(rng.uniform(0.0, 1.0))
        eta = float(rng.uniform(0.0, 1.0))
        lam = float(rng.uniform(0.0, 1.0))
        for box in (
            nb.p_eps(eps),
            nb.p_eps_delta(eps, delta),
            nb.isotropic(eta),
            nb.mix(random_ns_box(rng), random_ns_box(rng), lam),
        ):
            assert nb.validate(box).ok
            assert nb.is_non_signaling(box).ok


def test_nl_convex_under_mixing(rng):
    for _ in range(1000):
        p, q = random_ns_box(rng), random_ns_box(rng)
        lam = float(rng.uniform(0.0, 1.0))
        mixed = nb.mix(p, q, lam)
        assert nb.nl(mixed) <= lam * nb.nl(p) + (1.0 - lam) * nb.nl(q) + TOL


@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(st.floats(1e-3, 1.0), min_size=24, max_size=24),
    lam=st.floats(0.0, 1.0),
)
def test_mixture_properties_hypothesis(weights, lam):
    mats = np.stack([np.asarray(v.matrix) for v in ns_vertices()])
    w = np.array(weights)
    box = nb.Box(np.tensordot(w / w.sum(), mats, axes=1))
    assert nb.validate(box).ok
    assert nb.is_non_signaling(box).ok
    mixed = nb.mix(box, nb.noise(), lam)
    assert nb.nl(mixed) <= lam * nb.nl(box) + (1.0 - lam) * nb.nl(nb.noise()) + TOL


def test_family_correlators_match_closed_form(rng):
    # Dyadic parameters give bit-exact agreement.
    for eps in (0.25, 0.5, 0.75, 1.0):
        for delta in (0.0, 0.125, 0.5):
            c = nb.correlators(nb.p_eps_delta(eps, delta))
            assert c.as_tuple() == (1 - 2 * delta, 1 - 2 * delta, 1 - 2 * delta, 1 - 2 * eps)
    # Arbitrary parameters agree to one rounding step.
    for _ in range(2000):
        eps = float(rng.uniform(1e-9, 1.0))
        delta = float(rng.uniform(0.0, 1.0))
        c = nb.correlators(nb.p_eps_delta(eps, delta))
        expected = (1 - 2 * delta, 1 - 2 * delta, 1 - 2 * delta, 1 - 2 * eps)
        assert max(abs(a - b) for a, b in zip(c.as_tuple(), expected)) <= 2.3e-16


def test_box_json_round_trip(rng):
    for _ in range(50):
        box = random_ns_box(rng)
        again = nb.Box.from_json(box.to_json())
        assert np.array_equal(np.asarray(box.matrix), np.asarray(again.matrix))


def test_box_json_schema_errors():
    with pytest.raises(ValueError):
        nb.Box.from_json("[1, 2, 3]")
    with pytest.raises(ValueError):
        nb.Box.from_json('{"rows": []}')
    # np.array would convert each of these entries; a box file holds JSON numbers only.
    for entry in ('"0.25"', "true", "false", "null"):
        text = json.dumps({"matrix": [[0.25] * 4] * 4}).replace("0.25", entry, 1)
        with pytest.raises(ValueError, match="must hold numbers"):
            nb.Box.from_json(text)
    assert nb.Box.from_json(json.dumps({"matrix": [[1, 0, 0, 0]] * 4})).matrix[0, 0] == 1.0
    # JSON integers are exact, so 1 followed by 400 zeros reaches np.array, which overflows.
    text = json.dumps({"matrix": [[0.25] * 4] * 4}).replace("0.25", "1" + "0" * 400, 1)
    with pytest.raises(ValueError, match="^box matrix entry is too large for a float$") as info:
        nb.Box.from_json(text)
    assert isinstance(info.value.__cause__, OverflowError)


@pytest.mark.parametrize("depth", [1000, 100000])
def test_box_json_nested_too_deeply_is_a_value_error(depth):
    # The decoder recurses once per level; a library caller sees ValueError, not RecursionError.
    with pytest.raises(ValueError, match="^JSON nested too deeply$") as info:
        nb.Box.from_json("[" * depth)
    assert isinstance(info.value.__cause__, RecursionError)


def test_load_box_errors(tmp_path):
    with pytest.raises(OSError):
        nb.load_box(str(tmp_path / "missing.json"))
    path = tmp_path / "box.json"
    path.write_text('{"matrix": [[0.5,\n')
    with pytest.raises(ValueError, match=r"^malformed JSON in .*box\.json at line 2 column 1: "):
        nb.load_box(str(path))
    path.write_text(json.dumps({"matrix": [[0.25] * 4] * 3}))
    with pytest.raises(ValueError, match=r"^bad box file .*box\.json: box matrix must be 4x4, got shape \(3, 4\)"):
        nb.load_box(str(path))
    path.write_text('{"matrix": {}}')
    with pytest.raises(ValueError, match="must hold numbers"):
        nb.load_box(str(path))
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(ValueError, match=r"^bad box file .*box\.json: 'utf-8' codec"):
        nb.load_box(str(path))
    path.write_text("[" * 100000)
    with pytest.raises(ValueError, match=r"^bad box file .*box\.json: JSON nested too deeply$"):
        nb.load_box(str(path))


def test_chsh_csv_round_trip():
    text = nb.chsh_csv(nb.p_eps(0.1))
    header, row = text.strip().split("\n")
    names = header.split(",")
    vals = [float(v) for v in row.split(",")]
    assert len(names) == len(vals) == 12
    assert names[:4] == ["x00", "x01", "x10", "x11"]
    c = nb.correlators(nb.p_eps(0.1))
    assert vals[:4] == list(c.as_tuple())
    assert vals[4:] == list(nb.chsh_values(c))


def test_box_matrix_read_only():
    box = nb.pr()
    with pytest.raises(ValueError):
        box.matrix[0, 0] = 0.7
