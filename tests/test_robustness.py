"""Non-finite entries and bad tolerances give clean errors, never numbers."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import tempfile
import warnings
from decimal import Decimal
from fractions import Fraction
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


def _hostile_rows(tol: float) -> dict[str, list[float]]:
    """Rows at the edges of the report: a finite row whose sum overflows,
    both infinities, NaN, signed zeros, the smallest subnormal of each sign
    and an entry of exactly 1 + tol."""
    return {
        "sum overflows": [1e308, 1e308, 0.0, 0.0],
        "+inf and -inf": [math.inf, -math.inf, 0.5, 0.5],
        "nan": [math.nan, 0.25, 0.25, 0.5],
        "-0.0": [-0.0, 0.5, 0.5, -0.0],
        "5e-324": [5e-324, 0.5, 0.5, 0.0],
        "-5e-324": [-5e-324, 0.5, 0.5, 0.0],
        "1 + tol": [1.0 + tol, 0.0, 0.0, 0.0],
    }


@pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-9, 0.5, 1e308])
def test_validate_matches_entrywise_reference_on_hostile_rows(tol):
    named = _hostile_rows(tol)
    rows = list(named.values())
    # Each row at each position among uniform rows, then each run of four
    # consecutive hostile rows (cyclically) as one box.
    matrices = [[row if r == at else [0.25] * 4 for r in range(4)] for row in rows for at in range(4)]
    matrices += [[rows[(i + r) % len(rows)] for r in range(4)] for i in range(len(rows))]
    for matrix in matrices:
        box = nb.Box(matrix)
        with np.errstate(over="ignore"):  # the reference's numpy row sum warns on overflow
            expected = _reference_validate(box, tol)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # validate itself prints nothing on stderr
            report = nb.validate(box, tol)
        assert report.ok == (not expected), matrix
        got = _as_tuples(report)
        assert [g[:2] for g in got] == [e[:2] for e in expected], matrix
        assert [g[2].hex() for g in got] == [e[2].hex() for e in expected], matrix
    overflow = nb.validate(nb.Box([named["sum overflows"]] + [[0.25] * 4] * 3), tol)
    assert _as_tuples(overflow)[-1] == ("row xy=00", "row sum != 1", math.inf)


def _numpy_accepts(box: nb.Box, tol: float) -> bool:
    """The numpy accept test ``validate`` ran before its scalar pass became
    its only path, kept here as an oracle."""
    m = box.matrix
    if -tol <= np.minimum.reduce(m, axis=None) and np.maximum.reduce(m, axis=None) <= 1.0 + tol:
        return bool(np.maximum.reduce(np.abs(np.add.reduce(m, axis=1) - 1.0)) <= tol)
    return False


def _sum_edge(head: list[float], side: float, tol: float) -> tuple[float, float]:
    """The last entry that keeps a row starting with ``head`` within ``tol``
    of sum 1 on ``side`` (+1 above, -1 below), and the entry one ulp past it.
    Found by galloping from 1 - sum(head), which makes the sum exactly 1."""
    h = (head[0] + head[1]) + head[2]

    def inside(d: float) -> bool:
        return abs(h + d - 1.0) <= tol

    d = 1.0 - h
    step = math.ulp(d)
    while inside(d + side * step):
        d += side * step
        step *= 2.0
    while step >= math.ulp(d):
        if inside(d + side * step):
            d += side * step
        step /= 2.0
    past = math.nextafter(d, side * math.inf)
    while inside(past):
        d, past = past, math.nextafter(past, side * math.inf)
    return d, past


def _boundary_rows(rng: np.random.Generator, tol: float) -> list[list[float]]:
    """Rows at the edges of acceptance at ``tol``: an entry of exactly -tol
    or 1 + tol or one ulp beyond, the rest rescaled to sum 1; and rows whose
    sum is as far as ``tol`` allows from 1, or one ulp further."""
    rows = []
    for edge in (-tol, 1.0 + tol, math.nextafter(-tol, -math.inf), math.nextafter(1.0 + tol, math.inf)):
        rest = (rng.dirichlet(np.ones(3)) * (1.0 - edge)).tolist()
        rest.insert(int(rng.integers(4)), edge)
        rows.append(rest)
    head = rng.dirichlet(np.ones(4))[:3].tolist()
    for side in (1.0, -1.0):
        rows += [head + [d] for d in _sum_edge(head, side, tol)]
    return rows


@pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-9, 0.5])
def test_validate_accepts_as_the_numpy_test_did_on_boundary_boxes(tol):
    rng = np.random.default_rng(3100)
    accepted = 0
    for _ in range(500):
        pool = _boundary_rows(rng, tol) + rng.dirichlet(np.ones(4), size=4).tolist()
        box = nb.Box([pool[i] for i in rng.integers(len(pool), size=4)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = nb.validate(box, tol)
        assert report.ok == _numpy_accepts(box, tol), box.matrix.tolist()
        expected = _reference_validate(box, tol)
        assert [(w, c, r.hex()) for w, c, r in _as_tuples(report)] == [(w, c, r.hex()) for w, c, r in expected]
        accepted += report.ok
    assert 25 <= accepted <= 475, accepted


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



_BOX = nb.p_eps(0.1)
_CORRELATORS = nb.Correlators(0.5, 0.5, 0.5, -0.5)

# Each numeric parameter of the library, as a call that takes one value, with
# an int it accepts (None where every int is out of range or infeasible). A
# number is a Python or numpy int or float, not a bool, that a float holds.
_NUMERIC_PARAMETERS = {
    "tol": (lambda v: nb.validate(_BOX, v), 0),
    "fixed_delta": (lambda v: nb.optimize_quantum_distillation(n_max=2, fixed_delta=v), None),
    "eps": (lambda v: nb.p_eps(v), 1),
    "delta": (lambda v: nb.p_eps_delta(0.5, v), 0),
    "eta": (lambda v: nb.isotropic(v), 1),
    "lam": (lambda v: nb.mix(nb.pr(), nb.noise(), v), 0),
    "Box.entry": (lambda v: nb.nl(nb.Box([[v, 0.0, 0.0, 1.0]] * 4), 1.0), 0),  # tol 1 takes any v in [0, 1]
    "Correlators.x00": (lambda v: nb.nl_correlators(nb.Correlators(v, 0.5, 0.5, -0.5)), 1),
    "nl_closed_eps_delta.eps": (lambda v: nb.nl_closed_eps_delta(v, 0.0, 2), 1),
    "nl_closed_eps_delta.delta": (lambda v: nb.nl_closed_eps_delta(0.5, v, 2), 0),
    "distillation_report.eps": (lambda v: nb.distillation_report(v, 0.0, [1, 2]), 1),
    "distillation_report.delta": (lambda v: nb.distillation_report(0.5, v, [1, 2]), 0),
    "nl.tol": (lambda v: nb.nl(_BOX, v), 0),
    "compose_xor.tol": (lambda v: nb.compose_xor(_BOX, 2, v), 0),
    "compose_wiring2.tol": (lambda v: nb.compose_wiring2(_BOX, nb.Wiring2(nb.xor_strategy(), nb.xor_strategy()), v), 0),
    "search_2copy.tol": (lambda v: nb.search_2copy(_BOX, v), 0),
    "play_and_game.tol": (lambda v: nb.play_and_game(_BOX, 2, v), 0),
    "depolarize.tol": (lambda v: nb.depolarize(_BOX, v), 0),
    "optimize_quantum_distillation.tol": (lambda v: nb.optimize_quantum_distillation(n_max=2, tol=v), 0),
    "is_quantum_box.tol": (lambda v: nb.is_quantum_box(_BOX, v), 0),
    "is_quantum_correlators.tol": (lambda v: nb.is_quantum_correlators(_CORRELATORS, v), 0),
    "tsirelson_check.tol": (lambda v: nb.tsirelson_check(_CORRELATORS, v), 0),
    "has_uniform_marginals.tol": (lambda v: nb.quantum.has_uniform_marginals(_BOX, v), 0),
}

_STRATEGY_MAPS = dict(first_input=(0, 1), second_input=((0, 0), (1, 1)), output=(((0, 1), (1, 0)), ((0, 1), (1, 0))))

# Each integer count of the library, as a call that takes one value, with an
# int it accepts. An integer is a Python or numpy int, not a bool, in range.
_INTEGER_PARAMETERS = {
    "compose_xor.n": (lambda v: nb.compose_xor(_BOX, v), 2),
    "xor_correlator_law.n": (lambda v: nb.xor_correlator_law(_BOX, v), 2),
    "distillation_report.n": (lambda v: nb.distillation_report(0.1, 0.0, [v]), 2),
    "AndGameStrategy.m": (lambda v: nb.and_game_success(nb.AndGameStrategy(_BOX, v)), 2),
    "play_and_game.m": (lambda v: nb.play_and_game(_BOX, v), 2),
    "optimize_quantum_distillation.n_max": (lambda v: nb.optimize_quantum_distillation(n_max=v), 2),
    "nl_closed_eps.n": (lambda v: nb.nl_closed_eps(0.1, v), 2),
    "nl_closed_eps_delta.n": (lambda v: nb.nl_closed_eps_delta(0.1, 0.02, v), 2),
    "is_distillable_at.n": (lambda v: nb.is_distillable_at(0.1, 0.0, v), 2),
    "AdaptiveStrategy.decode": (lambda v: nb.AdaptiveStrategy.decode(v), 4966),
    "AdaptiveStrategy.order": (lambda v: nb.AdaptiveStrategy(order=v, **_STRATEGY_MAPS), 1),
    "AdaptiveStrategy.output": (
        lambda v: nb.AdaptiveStrategy(0, (0, 1), ((0, 0), (1, 1)), (((0, v), (1, 0)), ((0, 1), (1, 0)))), 1
    ),
    "deterministic.fa": (lambda v: nb.deterministic((v, 0), (1, 1)), 1),
    "Relabeling.flip_x": (lambda v: nb.Relabeling(v, 0, 0, 0, 0, 0), 1),
    "Relabeling.b_flip_with_y": (lambda v: nb.Relabeling(0, 0, 0, 0, 0, v), 1),
}

_HOSTILE = [
    "0", "0.1", True, False, np.bool_(True), None, math.inf, -math.inf, math.nan, Fraction(1, 10),
    Decimal("0.1"), np.array(0.1), np.array(2), 10**400, -0.0, 5e-324, 2, np.int64(2), np.uint8(1),
    np.float64(0.1), np.float32(0.1), np.float16(0.1), [0.1], 1j,
]


def _numbers(answer):
    """Every number an answer holds, through dataclasses, arrays and tuples."""
    if dataclasses.is_dataclass(answer):
        for field in dataclasses.fields(answer):
            yield from _numbers(getattr(answer, field.name))
    elif isinstance(answer, np.ndarray):
        yield from answer.ravel().tolist()
    elif isinstance(answer, (tuple, list)):
        for item in answer:
            yield from _numbers(item)
    elif not isinstance(answer, str):
        yield answer


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(_NUMERIC_PARAMETERS) + sorted(_INTEGER_PARAMETERS))
def test_hostile_values_give_a_value_error_or_a_finite_answer(name):
    # The one input contract, over every (entry point, parameter) and every
    # hostile value: a ValueError (or the optimizer's documented infeasible
    # result), never a TypeError, an OverflowError, a warning or a NaN.
    call = {**_NUMERIC_PARAMETERS, **_INTEGER_PARAMETERS}[name][0]
    for value in _HOSTILE:
        try:
            answer = call(value)
        except (ValueError, nb.InfeasibleRegionError):
            continue
        assert all(math.isfinite(x) for x in _numbers(answer)), (value, answer)


@pytest.mark.parametrize("name", sorted(_INTEGER_PARAMETERS))
def test_integer_counts_take_numpy_ints(name):
    # A numpy int is the same count as the Python int, and the answer holds
    # plain ints: its repr and its JSON form are the Python int's.
    call, count = _INTEGER_PARAMETERS[name]
    expected = call(count)
    for value in (np.int64(count), np.int32(count), np.uint16(count)):
        answer = call(value)
        assert repr(answer) == repr(expected)
        if hasattr(answer, "to_json_dict"):
            assert json.dumps(answer.to_json_dict()) == json.dumps(expected.to_json_dict())


@pytest.mark.parametrize("name", sorted(_INTEGER_PARAMETERS))
def test_integer_counts_reject_bools_and_ints_out_of_range(name):
    # True is not taken as 1, and an int out of range is a ValueError before
    # any table is indexed with it, however many digits it has.
    call = _INTEGER_PARAMETERS[name][0]
    for value in (True, False, np.bool_(True), -1, 2**70, 10**5000):
        with pytest.raises(ValueError):
            call(value)


@pytest.mark.parametrize(
    "call, message",
    [(lambda v: nb.nl_closed_eps(0.1, v), "n must be an integer >= 1 and <= sys.maxsize"),
     (lambda v: nb.compose_xor(_BOX, v), "n must be in 1..16"),
     (lambda v: nb.AdaptiveStrategy.decode(v), "strategy code must be in 0..32767"),
     (lambda v: nb.AdaptiveStrategy(order=v, **_STRATEGY_MAPS), "order must be 0 or 1"),
     (lambda v: nb.Relabeling(0, 0, 0, v, 0, 0), "flip_y must be 0 or 1")],
    ids=["nl_closed_eps", "compose_xor", "decode", "AdaptiveStrategy", "Relabeling"],
)
@pytest.mark.parametrize("value", [10**5000, -(10**5000)], ids=["positive", "negative"])
def test_an_int_too_long_to_print_is_named_by_its_digits(call, message, value):
    # Python writes out no int of more than 4300 digits, so the message names
    # the parameter, its range and the value's size instead.
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"{message}, got an int of 5001 digits"


def test_box_reads_an_ndarray_by_its_dtype():
    # An ndarray of ints or floats is a table; one of bools, strings, objects
    # or complex numbers is not, whatever its values.
    assert nb.validate(nb.Box(np.eye(4, dtype=np.int32)[[0, 0, 0, 0]])).ok
    assert nb.validate(nb.Box(np.full((4, 4), 0.25, dtype=np.float32))).ok
    for dtype in (bool, str, object, complex):
        with pytest.raises(ValueError, match="must hold numbers"):
            nb.Box(np.full((4, 4), 0.25).astype(dtype))


# Each entry point that takes a tolerance, as a call that takes one value:
# those above, and the rest of the public ones. The isotropic box and
# p_eps(2.5e-8) sit 1e-7 and 5e-8 above NL 2, where float32 arithmetic on a
# 1e-9 tolerance gives the other verdict.
_TOLERANCE_CALLS = {
    **{name: call for name, (call, _) in _NUMERIC_PARAMETERS.items() if name == "tol" or name.endswith(".tol")},
    "correlators.tol": lambda v: nb.correlators(_BOX, v),
    "chsh_csv.tol": lambda v: nb.chsh_csv(_BOX, v),
    "is_non_signaling.tol": lambda v: nb.is_non_signaling(_BOX, v),
    "is_local.tol": lambda v: nb.is_local(nb.isotropic((2 + 1e-7) / 4), v),
    "xor_correlator_law.tol": lambda v: nb.xor_correlator_law(_BOX, 2, v),
    "search_2copy.distilled": lambda v: nb.search_2copy(nb.p_eps(2.5e-8), v).distilled,
    "and_game_success.tol": lambda v: nb.and_game_success(nb.AndGameStrategy(_BOX, 2), v),
    "and_game_success_closed.tol": lambda v: nb.and_game_success_closed(nb.AndGameStrategy(_BOX, 2), v),
    "distillation_report.tol": lambda v: nb.distillation_report(0.1, 0.0, [1, 2], v),
    "arcsin_sums.tol": lambda v: nb.arcsin_sums(_CORRELATORS, v),
}

# Fields that differ from run to run.
_TIMINGS = {"wall_time_s", "kernel_s", "scan_s", "verify_s"}


def _typed_leaves(answer):
    """(type, value) of every value an answer holds, through dataclasses,
    named tuples, arrays and tuples, timings left out."""
    if dataclasses.is_dataclass(answer):
        for field in dataclasses.fields(answer):
            if field.name not in _TIMINGS:
                yield from _typed_leaves(getattr(answer, field.name))
    elif isinstance(answer, np.ndarray):
        yield answer.dtype, answer.tolist()
    elif isinstance(answer, (tuple, list)):
        for item in answer:
            yield from _typed_leaves(item)
    else:
        yield type(answer), answer


@pytest.mark.parametrize("tol", [np.float32(1e-9), np.float64(1e-9), np.int64(0)], ids=repr)
def test_a_numpy_tolerance_gives_the_answer_of_its_float(tol):
    # Every entry point computes with the float that ``check_tol`` returns:
    # the same values of the same types as for float(tol), so no float32
    # arithmetic and no numpy bool in a verdict, and the JSON form serialises.
    answers = {name: call(tol) for name, call in _TOLERANCE_CALLS.items()}
    differ = [
        (name, answers[name], call(float(tol)))
        for name, call in _TOLERANCE_CALLS.items()
        if list(_typed_leaves(answers[name])) != list(_typed_leaves(call(float(tol))))
    ]
    assert not differ, differ
    for answer in answers.values():
        json.dumps(answer.to_json_dict() if hasattr(answer, "to_json_dict") else [v for _, v in _typed_leaves(answer)])
