"""Non-finite entries and bad tolerances give clean errors, never numbers."""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlboxes as nb
from nlboxes.cli import run

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
BAD_TOL = st.one_of(st.floats(max_value=-math.ulp(0.0)), st.sampled_from([math.nan, math.inf]))


def _reference_validate(box: nb.Box, tol: float) -> list[tuple[str, str, float]]:
    """Entry-by-entry statement of the row-stochasticity rules."""
    out = []
    for r in range(4):
        row = box.matrix[r]
        for c in range(4):
            v = float(row[c])
            where = f"row xy={nb.XY_LABELS[r]} col ab={nb.AB_LABELS[c]}"
            if not math.isfinite(v):
                out.append((where, "non-finite entry", abs(v)))
            elif v < -tol:
                out.append((where, "negative entry", -v))
            elif v > 1.0 + tol:
                out.append((where, "entry exceeds 1", v - 1.0))
        if all(math.isfinite(float(v)) for v in row):
            s = float(row.sum())
            if abs(s - 1.0) > tol:
                out.append((f"row xy={nb.XY_LABELS[r]}", "row sum != 1", abs(s - 1.0)))
    return out


def _as_tuples(report: nb.ValidationReport) -> list[tuple[str, str, float]]:
    return [(v.where, v.constraint, v.residual) for v in report.violations]


def _spoiled(eta: float, cell: int, value: float) -> nb.Box:
    m = np.array(nb.isotropic(eta).matrix)
    m[divmod(cell, 4)] = value
    return nb.Box(m)


@settings(max_examples=300, deadline=None)
@given(
    entries=st.lists(
        st.one_of(st.floats(-0.5, 1.5), st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.0 + 1e-9, -1e-9]), NON_FINITE),
        min_size=16,
        max_size=16,
    ),
    tol=st.sampled_from([0.0, 1e-12, 1e-9, 1e-3, 0.5]),
)
def test_validate_matches_entrywise_reference(entries, tol):
    box = nb.Box(np.reshape(entries, (4, 4)))
    report = nb.validate(box, tol)
    expected = _reference_validate(box, tol)
    assert report.ok == (not expected)
    got = _as_tuples(report)
    assert [g[:2] for g in got] == [e[:2] for e in expected]
    for g, e in zip(got, expected):
        assert g[2] == e[2] or (math.isnan(g[2]) and math.isnan(e[2]))


@settings(max_examples=60, deadline=None)
@given(eta=st.floats(0.0, 1.0), cell=st.integers(0, 15), value=NON_FINITE)
def test_non_finite_entry_rejected_by_library(eta, cell, value):
    box = _spoiled(eta, cell, value)
    report = nb.validate(box)
    assert not report.ok
    assert "non-finite entry" in {v.constraint for v in report.violations}
    for call in (
        lambda: nb.nl(box),
        lambda: nb.is_non_signaling(box),
        lambda: nb.compose_xor(box, 2),
        lambda: nb.search_2copy(box),
    ):
        with pytest.raises(nb.InvalidBoxError, match="non-finite entry"):
            call()


@settings(max_examples=60, deadline=None)
@given(tol=BAD_TOL)
def test_bad_tolerance_rejected_by_library(tol):
    box = nb.p_eps(0.1)
    for call in (
        lambda: nb.validate(box, tol),
        lambda: nb.nl(box, tol),
        lambda: nb.compose_xor(box, 2, tol),
        lambda: nb.search_2copy(box, tol=tol),
    ):
        with pytest.raises(ValueError, match="tolerance"):
            call()


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=30, deadline=None)
@given(eta=st.floats(0.0, 1.0), cell=st.integers(0, 15), value=NON_FINITE)
def test_non_finite_box_file_exits_one(eta, cell, value):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "box.json"
        path.write_text(json.dumps(_spoiled(eta, cell, value).to_json_dict()))  # NaN/Infinity literals
        for command in ("chsh", "search", "validate"):
            code, out, err = _run_cli([command, str(path)])
            assert code == 1
            assert "non-finite entry" in out + err
            assert "NL" not in out and "nl_out" not in out


@settings(max_examples=30, deadline=None)
@given(tol=BAD_TOL)
def test_bad_tolerance_flag_exits_two(tol):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "box.json"
        path.write_text(nb.p_eps(0.1).to_json())
        for command in ("chsh", "search", "validate"):
            code, out, err = _run_cli([command, str(path), f"--tol={tol!r}"])
            assert code == 2
            assert out == ""
            assert "tolerance" in err


def test_correlators_outside_unit_interval_rejected():
    for values in ((math.nan, 0.0, 0.0, 0.0), (0.0, math.inf, 0.0, 0.0), (0.0, 0.0, -math.inf, 0.0), (2.0, 0, 0, 0)):
        with pytest.raises(ValueError, match=r"not in \[-1, 1\]"):
            nb.is_quantum_correlators(nb.Correlators(*values))
        text = ",".join(str(v) for v in values)
        code, out, err = _run_cli(["quantum", "--correlators", text])
        assert code == 2 and out == ""
        assert "not in [-1, 1]" in err and "Traceback" not in err



# Each numeric parameter of the library, as a call that takes one value, with
# an int it accepts (None where every int is out of range or infeasible).
_NUMERIC_PARAMETERS = {
    "tol": (lambda v: nb.validate(nb.p_eps(0.1), v), 0),
    "fixed_delta": (lambda v: nb.optimize_quantum_distillation(n_max=2, fixed_delta=v), None),
    "eps": (lambda v: nb.p_eps(v), 1),
    "delta": (lambda v: nb.p_eps_delta(0.5, v), 0),
    "eta": (lambda v: nb.isotropic(v), 1),
    "lam": (lambda v: nb.mix(nb.pr(), nb.noise(), v), 0),
}


@pytest.mark.parametrize("name", sorted(_NUMERIC_PARAMETERS))
def test_numeric_parameters_reject_non_numbers_and_bools(name):
    # A string, a bool or another non-number is a ValueError, not a TypeError
    # from a comparison, and True is not taken as 1.0. A fixed_delta of None
    # asks for the free optimizer.
    call, integer = _NUMERIC_PARAMETERS[name]
    for value in ["0", "0.1", True, False, np.bool_(True), [0.1], 1j] + ([] if name == "fixed_delta" else [None]):
        with pytest.raises(ValueError):
            call(value)
    # Python and numpy ints and floats in range still work.
    for number in (0.03, np.float64(0.03), np.float32(0.03)) + (() if integer is None else (integer, np.int64(integer))):
        call(number)
