"""Quantum realizability criterion and the Tsirelson bound."""

from __future__ import annotations

import math

import pytest

import nlboxes as nb
from conftest import box_from_correlators, dusty_ns_boxes

TOL = 1e-9
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_tsirelson_point_saturates():
    c = nb.Correlators(INV_SQRT2, INV_SQRT2, INV_SQRT2, -INV_SQRT2)
    ok, slack = nb.is_quantum_correlators(c)
    assert ok
    assert slack == pytest.approx(0.0, abs=1e-12)
    assert nb.tsirelson_check(c)
    assert max(nb.chsh_values(c)) == pytest.approx(nb.TSIRELSON_BOUND, abs=1e-12)


def test_p_eps_correlators_never_quantum():
    for eps in (0.01, 0.1, 0.3, 0.5, 0.9, 0.99):
        ok, slack = nb.is_quantum_correlators(nb.Correlators(1.0, 1.0, 1.0, 1.0 - 2.0 * eps))
        assert not ok
        assert slack > 0.0


def test_quantum_example_resource():
    c = nb.correlators(nb.p_eps_delta(0.01, 0.002))
    ok, slack = nb.is_quantum_correlators(c)
    assert ok
    assert slack <= 0.0 + TOL


def test_is_quantum_box_examples():
    assert nb.is_quantum_box(nb.p_eps_delta(0.01, 0.002)).quantum
    assert not nb.is_quantum_box(nb.p_eps(0.1)).quantum
    assert not nb.is_quantum_box(nb.pr()).quantum
    # family boxes have uniform marginals, so verdicts are box-level
    assert not nb.is_quantum_box(nb.p_eps_delta(0.01, 0.002)).correlator_level_only


def test_is_quantum_box_flags_biased_marginals():
    verdict = nb.is_quantum_box(nb.deterministic((0, 1), (0, 0)))
    assert verdict.correlator_level_only
    assert verdict.quantum  # its correlators are reachable, outputs just are not uniform


def test_is_quantum_box_rejects_signaling():
    box = nb.Box(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.25, 0.25, 0.25, 0.25],
            [0.25, 0.25, 0.25, 0.25],
        ]
    )
    with pytest.raises(nb.SignalingBoxError):
        nb.is_quantum_box(box)


def test_correlator_magnitude_error():
    with pytest.raises(ValueError):
        nb.is_quantum_correlators(nb.Correlators(1.5, 0.0, 0.0, 0.0))


def test_clamping_avoids_nan_at_saturation():
    wobble = 1.0 + 1e-13  # inside tolerance, would NaN without clamping
    ok, slack = nb.is_quantum_correlators(nb.Correlators(wobble, 1.0, 1.0, 1.0))
    assert math.isfinite(slack)
    assert ok  # (1,1,1,1) is reachable: 3*pi/2 - pi/2 = pi


def test_every_dusty_box_gets_a_verdict(rng):
    # Dust in [-tol, 0) can move a vertex's correlators up to 5 tol past
    # [-1, 1], beyond the 1 + tol that a correlator tuple may reach.
    boxes = dusty_ns_boxes(rng, 60, TOL)
    past = [b for b in boxes if max(map(abs, nb.correlators(b, TOL).as_tuple())) > 1.0 + TOL]
    assert len(past) >= 10
    for box in boxes:
        verdict = nb.is_quantum_box(box, TOL)
        assert math.isfinite(verdict.slack) and verdict.quantum is (verdict.slack <= TOL)


def test_tsirelson_necessary_but_not_sufficient():
    witness = nb.Correlators(1.0, 1.0, 1.0, 0.8)
    assert nb.tsirelson_check(witness)  # 2.2 is below 2*sqrt(2)
    ok, _ = nb.is_quantum_correlators(witness)
    assert not ok
    assert not nb.tsirelson_check(nb.correlators(nb.pr()))


def test_quantum_implies_tsirelson_bulk(rng):
    draws = rng.uniform(-1.0, 1.0, size=(100_000, 4))
    failures = 0
    for row in draws:
        c = nb.Correlators(*row)
        ok, _ = nb.is_quantum_correlators(c)
        if ok and not nb.tsirelson_check(c):
            failures += 1
    assert failures == 0


def test_quantum_frontier_monotonic_in_delta():
    for eps in (0.05, 0.1, 0.2, 0.30866, 0.4):
        theta = (math.pi + math.asin(1.0 - 2.0 * eps)) / 3.0
        delta_star = (1.0 - math.sin(theta)) / 2.0
        inside = nb.correlators(nb.p_eps_delta(eps, delta_star + 1e-4))
        outside = nb.correlators(nb.p_eps_delta(eps, delta_star - 1e-4))
        assert nb.is_quantum_correlators(inside)[0]
        assert not nb.is_quantum_correlators(outside)[0]


def test_uniform_marginal_lift_matches_correlator_verdict(rng):
    for _ in range(200):
        vals = tuple(rng.uniform(-1.0, 1.0, size=4))
        box = box_from_correlators(vals)
        ok_c, slack_c = nb.is_quantum_correlators(nb.Correlators(*vals))
        verdict = nb.is_quantum_box(box)
        assert verdict.quantum == ok_c
        assert verdict.slack == pytest.approx(slack_c, abs=1e-12)
        assert not verdict.correlator_level_only
