"""Closed-form curves, distillability, and the constrained optimizer."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest

import nlboxes as nb
from nlboxes import distill
from nlboxes.boxes import _correlators, nl_correlators
from nlboxes.wiring import _xor_powers

TOL = 1e-9
CEILING = 1.0 + math.sqrt(2.0)


def test_nl_closed_eps_values():
    assert nb.nl_closed_eps(0.1, 1) == pytest.approx(2.2, abs=1e-12)
    assert nb.nl_closed_eps(0.1, 3) == pytest.approx(2.488, abs=1e-12)
    for n in (1, 2, 7, 40):
        assert nb.nl_closed_eps(0.5, n) == 3.0


def test_nl_closed_eps_delta_values():
    assert nb.nl_closed_eps_delta(0.01, 0.002, 1) == pytest.approx(2.008, abs=1e-12)
    assert nb.nl_closed_eps_delta(0.01, 0.002, 2) == pytest.approx(2.015648, abs=1e-12)
    for eps in (0.05, 0.3, 0.49):
        for n in (1, 2, 5):
            assert nb.nl_closed_eps_delta(eps, 0.0, n) == nb.nl_closed_eps(eps, n)


def test_closed_form_range_errors():
    with pytest.raises(ValueError):
        nb.nl_closed_eps(0.0, 2)
    with pytest.raises(ValueError):
        nb.nl_closed_eps(0.1, 0)
    with pytest.raises(ValueError):
        nb.nl_closed_eps_delta(0.1, -0.1, 2)



@pytest.mark.parametrize("n", [2.5, 2.0, True, False, "2", None, 0, -1, np.float64(2.0)], ids=repr)
def test_closed_forms_take_int_copy_counts(n):
    # A copy count is an int >= 1, not a bool, as in ``compose_xor``: 2.5 gave
    # 2.4276 and True gave 2.2. There is no upper cap, unlike the composed XOR.
    for call in (
        lambda: nb.nl_closed_eps_delta(0.1, 0.0, n),
        lambda: nb.nl_closed_eps(0.1, n),
        lambda: nb.is_distillable_at(0.1, 0.0, n),
    ):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            call()
    assert nb.nl_closed_eps(0.1, 40) == 3.0 - 0.8**40


def test_is_distillable_at():
    assert nb.is_distillable_at(0.1, 0.0, 2)
    assert not nb.is_distillable_at(0.5, 0.0, 2)  # already at the plateau
    assert nb.is_distillable_at(0.01, 0.002, 2)
    assert not nb.is_distillable_at(0.1, 0.0, 1)  # no gain at one copy


def test_closed_forms_match_composition_on_grid():
    # Regime where the 00-row CHSH expression is the maximum.
    for eps in np.linspace(0.025, 0.475, 21):
        for frac in np.linspace(0.0, 0.95, 21):
            delta = float(eps * frac)
            box = nb.p_eps_delta(float(eps), delta)
            for n in (1, 2, 6):
                closed = nb.nl_closed_eps_delta(float(eps), delta, n)
                brute = nb.nl(nb.compose_xor(box, n))
                assert abs(closed - brute) <= 1e-9


def test_monotone_increase_and_limit():
    for eps in (0.05, 0.1, 0.2, 0.3, 0.45, 0.49):
        r = 1.0 - 2.0 * eps
        values = [nb.nl_closed_eps(eps, n) for n in range(1, 41)]
        for n, (a, b) in enumerate(zip(values, values[1:]), start=1):
            if r**n - r ** (n + 1) > 1e-13:  # increment above float resolution
                assert b > a
            else:
                assert b >= a
        assert abs(3.0 - values[-1]) == pytest.approx(r**40, abs=1e-15)
    assert abs(3.0 - nb.nl_closed_eps(0.2, 40)) <= 1e-6
    assert abs(3.0 - nb.nl_closed_eps(0.1, 40)) <= 1e-3


def test_report_rows_and_invariant():
    report = nb.distillation_report(0.1, 0.0, range(1, 6))
    assert len(report.rows) == 5
    assert not report.resource_quantum
    for row in report.rows:
        assert abs(row.nl_closed - row.nl_brute) <= 1e-9
        assert row.nl_closed == pytest.approx(3.0 - 0.8**row.n, abs=1e-12)
    assert [row.distilled for row in report.rows] == [False, True, True, True, True]


def test_report_quantum_flag_and_csv():
    report = nb.distillation_report(0.01, 0.002, [1, 2])
    assert report.resource_quantum
    csv_text = report.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "n,eps,delta,nl_in,nl_out,quantum,distillable"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[3]) == pytest.approx(2.008, abs=1e-12)
    assert first[5] == "true"


def _float_bytes(obj):
    """``obj`` with each float replaced by its IEEE bytes, so ``==`` compares bits."""
    if isinstance(obj, float):
        return struct.pack("<d", obj)
    if isinstance(obj, dict):
        return {key: _float_bytes(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_float_bytes(value) for value in obj]
    return obj


def _report_by_single_n(eps: float, delta: float, n_values: list[int]) -> dict:
    """Oracle: the report JSON with each row composed on its own by ``compose_xor``."""
    resource = nb.p_eps_delta(eps, delta)
    rows = [
        {
            "n": n,
            "nl_closed": nb.nl_closed_eps_delta(eps, delta, n),
            "nl_brute": nb.nl(nb.compose_xor(resource, n)),
            "distilled": nb.is_distillable_at(eps, delta, n),
        }
        for n in n_values
    ]
    d, e = 1.0 - 2.0 * delta, 1.0 - 2.0 * eps
    quantum, _ = nb.is_quantum_correlators(nb.Correlators(d, d, d, e))
    return {"eps": eps, "delta": delta, "resource_quantum": quantum, "rows": rows}


def test_report_matches_single_n_composition_bit_for_bit():
    rng = np.random.default_rng(911)
    for _ in range(12):
        eps = float(rng.uniform(0.01, 0.5))
        delta = float(rng.uniform(0.0, eps))
        for n_values in (
            list(range(1, 17)),
            [int(n) for n in rng.permutation(np.arange(1, 17))[:7]],
            [5, 2, 5, 16, 2],
            [int(rng.integers(1, 17))],
        ):
            got = nb.distillation_report(eps, delta, n_values).to_json_dict()
            assert _float_bytes(got) == _float_bytes(_report_by_single_n(eps, delta, n_values))


def _report_by_per_row_loop(eps: float, delta: float, n_values: list[int]) -> dict:
    """Oracle: the report JSON read one row at a time off one composition, each
    row with its own ``Box`` and correlators, and its own
    ``is_distillable_at``."""
    powers = _xor_powers(nb.p_eps_delta(eps, delta), max(n_values))
    rows = [
        {
            "n": n,
            "nl_closed": nb.nl_closed_eps_delta(eps, delta, n),
            "nl_brute": nl_correlators(_correlators(nb.Box(powers[n - 1]))),
            "distilled": nb.is_distillable_at(eps, delta, n),
        }
        for n in n_values
    ]
    d, e = 1.0 - 2.0 * delta, 1.0 - 2.0 * eps
    quantum, _ = nb.is_quantum_correlators(nb.Correlators(d, d, d, e))
    return {"eps": eps, "delta": delta, "resource_quantum": quantum, "rows": rows}


def test_report_rows_match_per_row_composition_bit_for_bit():
    grid = [float(v) for v in np.linspace(0.0, 1.0, 41)]
    points = [(eps, delta) for eps in grid[1:] for delta in grid if delta <= eps <= 1.0 - delta]
    # The regime's edges: delta = eps, and eps = 1 - delta as the check computes it.
    points += [(delta, delta) for delta in grid[1:21]] + [(1.0 - delta, delta) for delta in grid[:21]]
    assert len(points) > 450
    rng = np.random.default_rng(1919)
    for i, (eps, delta) in enumerate(points):
        n_values = list(range(1, 17)) if i % 2 else [int(n) for n in rng.integers(1, 17, size=6)]
        got = nb.distillation_report(eps, delta, n_values)
        want = _report_by_per_row_loop(eps, delta, n_values)
        assert got.to_json_dict() == want
        assert [row.nl_brute.hex() for row in got.rows] == [row["nl_brute"].hex() for row in want["rows"]]


def test_report_reads_n_values_once():
    from_list = nb.distillation_report(0.1, 0.0, [1, 2, 3])
    assert nb.distillation_report(0.1, 0.0, (n for n in range(1, 4))) == from_list
    assert len(from_list.rows) == 3
    unsorted = nb.distillation_report(0.1, 0.0, iter([4, 1, 4, 2]))
    assert [row.n for row in unsorted.rows] == [4, 1, 4, 2]
    assert nb.distillation_report(0.1, 0.0, []).rows == ()

    def twenty_then_fail():
        yield from range(1, 21)
        raise AssertionError("read past the first bad n")

    with pytest.raises(ValueError, match="got 17"):
        nb.distillation_report(0.1, 0.0, twenty_then_fail())


def test_report_composes_once_up_to_the_largest_n(monkeypatch):
    calls = []
    original = distill._xor_powers

    def counted(box, n_max):
        calls.append(n_max)
        return original(box, n_max)

    monkeypatch.setattr(distill, "_xor_powers", counted)
    nb.distillation_report(0.3, 0.02, range(1, 17))
    assert calls == [16]
    calls.clear()
    nb.distillation_report(0.3, 0.02, [3, 9, 2])
    assert calls == [9]


# |1 - 2*eps| > 1 - 2*delta: the composed box's CHSH maximum leaves the closed
# form at n = 1 when delta > eps, and at even n when eps > 1 - delta.
@pytest.mark.parametrize("eps, delta", [(0.2, 0.3), (0.95, 0.1), (0.5, 0.6), (1.0, 0.01)])
def test_report_rejects_points_outside_the_closed_form_regime(eps, delta, monkeypatch):
    def no_composition(*args):
        raise AssertionError("composed before the regime was checked")

    monkeypatch.setattr(distill, "_xor_powers", no_composition)
    with pytest.raises(ValueError, match="delta <= eps <= 1 - delta"):
        nb.distillation_report(eps, delta, range(1, 4))


@pytest.mark.parametrize("eps, delta", [(0.1, 0.1), (0.3, 0.3), (0.9, 0.1), (0.8, 0.2), (0.5, 0.5), (1.0, 0.0)])
def test_report_at_the_edges_of_the_regime(eps, delta):
    report = nb.distillation_report(eps, delta, range(1, 17))
    assert [row.n for row in report.rows] == list(range(1, 17))
    for row in report.rows:
        assert row.nl_brute == pytest.approx(nb.nl_closed_eps_delta(eps, delta, row.n), abs=1e-12)


def test_report_at_tol_0_returns_its_rows():
    # The closed form and the composition differ by rounding alone, so the
    # report's check does not read tol.
    rng = np.random.default_rng(3305)
    for _ in range(300):
        delta = float(rng.uniform(0.0, 0.5))
        eps = float(rng.uniform(delta, 1.0 - delta))
        report = nb.distillation_report(eps, delta, range(1, 17), 0.0)
        assert [row.n for row in report.rows] == list(range(1, 17))
    for tol in (1e-300, 1e-16):
        assert len(nb.distillation_report(0.3, 0.02, range(1, 17), tol).rows) == 16


@pytest.mark.parametrize("factor, raises", [(0.5, False), (2.0, True)])
def test_report_check_raises_on_a_composition_shifted_past_its_bound(monkeypatch, factor, raises):
    # Shifting X00 shifts S, the largest functional here, by the same amount.
    rows_of = distill._correlator_rows

    def shifted(rows):
        # Entry 4k - 4 is X00 of the k-copy box.
        return [x + factor * distill._report_tol(i // 4 + 1) if i % 4 == 0 else x for i, x in enumerate(rows_of(rows))]

    monkeypatch.setattr(distill, "_correlator_rows", shifted)
    if raises:
        with pytest.raises(AssertionError, match=r"disagrees with composition .* at n=1$"):
            nb.distillation_report(0.3, 0.02, range(1, 17), 0.5)
    else:
        assert len(nb.distillation_report(0.3, 0.02, range(1, 17), 0.5).rows) == 16


def test_optimizer_reproduces_known_optimum():
    opt = nb.optimize_quantum_distillation(n_max=20)
    assert opt.n == 2
    assert opt.nl_out == pytest.approx(CEILING, abs=1e-4)
    assert opt.eps == pytest.approx(0.30866, abs=1e-3)
    assert opt.delta == pytest.approx(0.03806, abs=1e-3)
    assert opt.nl_out > opt.nl_in > 2.0


def test_optimizer_output_feasible_and_on_frontier():
    opt = nb.optimize_quantum_distillation(n_max=4)
    c = nb.correlators(nb.p_eps_delta(opt.eps, opt.delta))
    ok, _ = nb.is_quantum_correlators(c)
    assert ok
    assert nb.is_distillable_at(opt.eps, opt.delta, opt.n)
    frontier = 3.0 * math.asin(1.0 - 2.0 * opt.delta) - math.asin(1.0 - 2.0 * opt.eps)
    assert frontier == pytest.approx(math.pi, abs=1e-4)


def test_optimizer_never_exceeds_ceiling():
    for n_max in (2, 3, 5):
        opt = nb.optimize_quantum_distillation(n_max=n_max)
        assert opt.nl_out <= CEILING + 1e-4


def test_optimizer_is_deterministic():
    a = nb.optimize_quantum_distillation(n_max=3)
    b = nb.optimize_quantum_distillation(n_max=3)
    assert a == b


def test_optimizer_delta_zero_is_infeasible():
    with pytest.raises(nb.InfeasibleRegionError):
        nb.optimize_quantum_distillation(n_max=5, fixed_delta=0.0)


def test_optimizer_argument_errors():
    with pytest.raises(ValueError):
        nb.optimize_quantum_distillation(n_max=1)
    with pytest.raises(ValueError):
        nb.optimize_quantum_distillation(n_max=3, fixed_delta=1.5)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_max": 1},
        {"n_max": 0},
        {"fixed_delta": -1e-12},
        {"fixed_delta": 1.0 + 1e-12},
        {"fixed_delta": -0.1},
        {"fixed_delta": 1.5},
        {"fixed_delta": math.nan},
        {"fixed_delta": math.inf},
        {"fixed_delta": -math.inf},
        {"tol": math.nan},
        {"tol": -1e-9},
        {"tol": math.inf},
        {"n_max": 1001},  # MAX_OPTIMIZE_N + 1
        {"n_max": 2.5},
        {"n_max": 20.0},
        {"n_max": "3"},
        {"n_max": True},
    ],
)
def test_optimizer_rejects_bad_steps_before_any_grid(kwargs, monkeypatch):
    # Every argument check must come first, so any evaluation here is a failure.
    def no_grid(*args):
        raise AssertionError("grid evaluated before the arguments were checked")

    monkeypatch.setattr(distill, "_lowest_feasible", no_grid)
    with pytest.raises(ValueError):
        nb.optimize_quantum_distillation(**{"n_max": 2, **kwargs})


def _grid_values(n: int, eps: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Objective on an (eps, delta) grid, -inf where a constraint fails.

    An independent oracle for the optimizer: every constraint is checked
    directly, with the arcsine test at zero slack.
    """
    e_grid, d_grid = np.meshgrid(eps, delta, indexing="ij")
    e = 1.0 - 2.0 * e_grid
    d = 1.0 - 2.0 * d_grid
    nl_in = 3.0 * d - e
    nl_out = 3.0 * d**n - e**n
    asin_e = np.arcsin(np.clip(e, -1.0, 1.0))
    asin_d = np.arcsin(np.clip(d, -1.0, 1.0))
    quantum = (np.abs(3.0 * asin_d - asin_e) <= math.pi) & (np.abs(asin_d + asin_e) <= math.pi)
    margin = distill.DISTILL_MARGIN
    feasible = quantum & (nl_out > nl_in + margin) & (nl_in > 2.0 + margin)
    return np.where(feasible, nl_out, -np.inf)


def _grid_best(n_max: int, eps: np.ndarray, delta: np.ndarray) -> tuple[float, int | None]:
    """Best grid value and its n (the smallest on ties); (-inf, None) if none is feasible."""
    best, best_n = -np.inf, None
    for n in range(2, n_max + 1):
        value = float(np.max(_grid_values(n, eps, delta)))
        if value > best:
            best, best_n = value, n
    return best, best_n


@pytest.mark.parametrize("n_max", [2, 3, 5])
def test_optimizer_beats_coarse_grid(n_max):
    grid, _ = _grid_best(n_max, np.linspace(0.0025, 1.0, 400), np.linspace(0.0, 1.0, 401))
    assert grid > 2.4  # the grid itself comes near the ceiling
    opt = nb.optimize_quantum_distillation(n_max=n_max)
    assert opt.nl_out >= grid - 1e-12


def test_default_optimizer_reaches_ceiling_exactly():
    opt = nb.optimize_quantum_distillation()
    assert CEILING - 1e-12 <= opt.nl_out <= CEILING
    d = 1.0 - 2.0 * opt.delta
    _, slack = nb.is_quantum_correlators(nb.Correlators(d, d, d, 1.0 - 2.0 * opt.eps), 0.0)
    assert slack <= 0.0


def test_default_optimizer_is_near_the_closed_form_point():
    # The optimum is the peak of 3*d**2 - e**2 on the quantum boundary d = sin(theta),
    # e = -sin(3*theta): theta = 3*pi/8, so delta = sin(pi/16)**2 and e = sin(pi/8).
    # The delta grid stops at spacing 1e-9, and its best point is 7.4e-10 away.
    opt = nb.optimize_quantum_distillation()
    assert opt.n == 2
    assert abs(opt.delta - math.sin(math.pi / 16.0) ** 2) <= 1e-9
    assert abs(opt.eps - (1.0 - math.sin(math.pi / 8.0)) / 2.0) <= 1e-8


def _bound_delta_grid() -> np.ndarray:
    return np.sort(np.random.default_rng(14).uniform(0.0, 1.0 / 6.0, 257))


def test_bound_is_at_least_the_objective():
    ns = np.arange(2, 61)
    delta = _bound_delta_grid()
    values, _ = distill._lowest_feasible(ns, delta)
    assert np.isfinite(values).sum() > 1000  # the grid reaches feasible points at many n
    assert np.all(distill._bound(ns, delta) >= values)


def test_lowest_feasible_row_alone_matches_its_grid_row_bit_for_bit():
    # A pruned grid keeps only some n rows; each must give the same bits alone.
    ns = np.arange(2, 61)
    delta = _bound_delta_grid()
    values, e = distill._lowest_feasible(ns, delta)
    for k in range(ns.size):
        row_values, row_e = distill._lowest_feasible(ns[k : k + 1], delta)
        assert np.array_equal(row_values[0], values[k]), ns[k]
        assert np.array_equal(row_e[0], e[k]), ns[k]


@pytest.mark.parametrize("n_max", [3, 5, 20, 200])
def test_optimizer_pruning_is_exact(n_max, monkeypatch):
    pruned = nb.optimize_quantum_distillation(n_max=n_max)
    monkeypatch.setattr(distill, "_bound", lambda ns, delta: np.full((ns.size, delta.size), np.inf))
    assert nb.optimize_quantum_distillation(n_max=n_max) == pruned


def test_default_optimizer_evaluates_only_the_n_2_row(monkeypatch):
    rows = []
    original = distill._lowest_feasible

    def recorded(ns, delta):
        rows.append(ns.tolist())
        return original(ns, delta)

    monkeypatch.setattr(distill, "_lowest_feasible", recorded)
    nb.optimize_quantum_distillation()
    # The coarse floor point, the coarse grid, then six refinement levels.
    assert rows == [[2]] * 8


def test_optimizer_answer_does_not_depend_on_n_max_at_the_defaults():
    at_20 = nb.optimize_quantum_distillation(n_max=20)
    for n_max in (2, 3, 1000):
        assert nb.optimize_quantum_distillation(n_max=n_max) == at_20


@pytest.mark.parametrize("delta", [0.0, 0.002, 0.02, 0.04, 0.045, 0.06, 0.3])
def test_fixed_delta_matches_eps_grid(delta):
    # 0.045 is feasible only above the gain root, not on the quantum boundary.
    grid, grid_n = _grid_best(20, np.linspace(1e-5, 1.0, 100000), np.array([delta]))
    if grid_n is None:
        with pytest.raises(nb.InfeasibleRegionError):
            nb.optimize_quantum_distillation(fixed_delta=delta)
        return
    opt = nb.optimize_quantum_distillation(fixed_delta=delta)
    assert (opt.n, opt.delta) == (grid_n, delta)
    assert opt.nl_out >= grid
    assert nb.is_distillable_at(opt.eps, opt.delta, opt.n)


def test_fixed_delta_points_pass_scalar_checks():
    # Rounding may put the array optimum an ulp outside a boundary; the
    # returned point must still pass the scalar checks, at zero slack.
    feasible = 0
    for delta in np.linspace(0.0, 0.05, 51):
        try:
            opt = nb.optimize_quantum_distillation(fixed_delta=float(delta))
        except nb.InfeasibleRegionError:
            continue
        feasible += 1
        d = 1.0 - 2.0 * opt.delta
        _, slack = nb.is_quantum_correlators(nb.Correlators(d, d, d, 1.0 - 2.0 * opt.eps), 0.0)
        assert slack <= 0.0
        assert nb.is_distillable_at(opt.eps, opt.delta, opt.n)
    assert feasible == 45
