"""Relabeling group, depolarization, and canonical forms."""

from __future__ import annotations

import numpy as np
import pytest

import nlboxes as nb
from nlboxes.boxes import _clean
from nlboxes.symmetry import _S_WEIGHTS
from conftest import assert_boxes_close, ns_vertices, random_ns_box, random_valid_box

TOL = 1e-9


def test_relabelings_count_and_identity():
    group = nb.relabelings()
    assert len(group) == 64
    identity = nb.Relabeling(0, 0, 0, 0, 0, 0)
    assert identity in group
    for box in (nb.pr(), nb.p_eps(0.3)):
        assert_boxes_close(identity.apply(box), box, tol=0.0)


def test_relabelings_are_permutations():
    for sigma in nb.relabelings():
        perm = sigma.permutation()
        assert sorted(perm.tolist()) == list(range(16))


def test_output_flip_negates_alice_correlators():
    flip = nb.Relabeling(0, 1, 0, 0, 0, 0)
    c = nb.correlators(flip.apply(nb.pr()))
    assert c.as_tuple() == (-1.0, -1.0, -1.0, 1.0)


def test_relabelings_preserve_non_signaling(rng):
    for _ in range(30):
        box = random_ns_box(rng)
        for sigma in nb.relabelings():
            assert nb.is_non_signaling(sigma.apply(box)).ok


def test_stabilizer_preserves_chsh_functional(rng):
    group = nb.chsh_stabilizer()
    assert len(group) >= 8
    for _ in range(50):
        box = random_ns_box(rng)
        s = nb.chsh_functional(box)
        for sigma in group:
            assert nb.chsh_functional(sigma.apply(box)) == pytest.approx(s, abs=1e-12)


def test_depolarize_fixed_points():
    assert_boxes_close(nb.depolarize(nb.isotropic(0.7)), nb.isotropic(0.7), tol=1e-12)
    assert_boxes_close(nb.depolarize(nb.pr()), nb.pr(), tol=1e-12)


def test_depolarize_p_eps_example():
    iso = nb.depolarize(nb.p_eps(0.1))
    c = nb.correlators(iso)
    assert c.as_tuple() == pytest.approx((0.55, 0.55, 0.55, -0.55), abs=1e-12)
    assert nb.nl(iso) == pytest.approx(2.2, abs=1e-12)


def test_depolarize_bulk_properties(rng):
    for _ in range(1000):
        box = random_ns_box(rng)
        iso = nb.depolarize(box)
        s = nb.chsh_functional(box)
        # S preserved
        assert nb.chsh_functional(iso) == pytest.approx(s, abs=TOL)
        # output exactly isotropic
        c = nb.correlators(iso)
        eta = s / 4.0
        assert max(
            abs(c.x00 - eta), abs(c.x01 - eta), abs(c.x10 - eta), abs(c.x11 + eta)
        ) <= TOL
        # uniform marginals
        for r in range(4):
            row = np.asarray(iso.matrix)[r]
            assert abs(float(row[0] + row[1]) - 0.5) <= TOL
            assert abs(float(row[0] + row[2]) - 0.5) <= TOL
        # idempotent
        assert_boxes_close(nb.depolarize(iso), iso, tol=TOL)


def test_depolarize_rejects_signaling():
    box = nb.Box(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.25, 0.25, 0.25, 0.25],
            [0.25, 0.25, 0.25, 0.25],
        ]
    )
    with pytest.raises(nb.SignalingBoxError):
        nb.depolarize(box)


def test_canonical_box_orbit_soundness(rng):
    for _ in range(10):
        box = random_ns_box(rng)
        reference = nb.canonical_form(box)
        for sigma in nb.relabelings():
            assert_boxes_close(nb.canonical_form(sigma.apply(box)), reference, tol=0.0)


def test_canonical_box_separates_different_orbits():
    c1 = np.asarray(nb.canonical_form(nb.p_eps(0.1)).matrix)
    c2 = np.asarray(nb.canonical_form(nb.p_eps(0.2)).matrix)
    assert not np.array_equal(c1, c2)


def test_canonical_box_identifies_global_flip():
    flip = nb.Relabeling(0, 1, 0, 0, 1, 0)  # flip both outputs
    box = nb.pr()
    assert_boxes_close(nb.canonical_form(flip.apply(box)), nb.canonical_form(box), tol=0.0)


def test_canonical_strategy_collapses_equivalent_plans():
    # Non-adaptive plans differing only in query order behave identically.
    plan_a = nb.AdaptiveStrategy(0, (0, 0), ((0, 0), (0, 0)), (((0, 1), (1, 0)), ((0, 1), (1, 0))))
    plan_b = nb.AdaptiveStrategy(1, (0, 0), ((0, 0), (0, 0)), (((0, 1), (1, 0)), ((0, 1), (1, 0))))
    assert plan_a != plan_b
    assert nb.canonical_form(plan_a) == nb.canonical_form(plan_b)

    # Constant-output plans ignore their boxes entirely.
    const_a = nb.AdaptiveStrategy(0, (0, 1), ((0, 0), (1, 1)), (((0, 0), (0, 0)), ((0, 0), (0, 0))))
    const_b = nb.AdaptiveStrategy(1, (1, 1), ((0, 1), (0, 1)), (((0, 0), (0, 0)), ((0, 0), (0, 0))))
    assert nb.canonical_form(const_a) == nb.canonical_form(const_b)

    # Genuinely different behaviors stay distinct.
    assert nb.canonical_form(nb.xor_strategy()) != nb.canonical_form(nb.first_box_strategy())


def test_canonical_form_type_error():
    with pytest.raises(TypeError):
        nb.canonical_form(42)


def _canonical_by_tuples(box: nb.Box) -> nb.Box:
    """Reference canonical form: the smallest of the 64 relabeled tables as tuples."""
    best = None
    for sigma in nb.relabelings():
        candidate = tuple(np.asarray(sigma.apply(box).matrix).reshape(16))
        if best is None or candidate < best:
            best = candidate
    return nb.Box(np.array(best).reshape(4, 4))


def _depolarize_by_loop(box: nb.Box) -> nb.Box:
    """Reference depolarization: add the images under each S-preserving relabeling."""
    flat = np.asarray(box.matrix).reshape(16)
    group = [s for s in nb.relabelings() if np.array_equal(_S_WEIGHTS[s.permutation()], _S_WEIGHTS)]
    assert tuple(group) == nb.chsh_stabilizer()
    acc = np.zeros(16)
    for sigma in group:
        acc += flat[sigma.permutation()]
    return nb.Box(_clean((acc / len(group)).reshape(4, 4)))


def _with_negative_zeros(box: nb.Box, share: float, rng: np.random.Generator) -> nb.Box:
    """The box with a random share of its zeros made -0.0; at 0.5, tied tables differ in sign."""
    m = np.array(box.matrix)
    m[(m == 0.0) & (rng.random(m.shape) < share)] = -0.0
    return nb.Box(m)


def _oracle_boxes() -> tuple[list[nb.Box], list[nb.Box]]:
    """Seeded non-signaling and signaling boxes, many with zero ties and -0.0 entries."""
    rng = np.random.default_rng(31)
    vertices = ns_vertices()
    pairs = [nb.mix(vertices[i], vertices[j], 0.5) for i, j in rng.integers(0, len(vertices), (100, 2))]
    sparse = vertices + pairs
    ns = sparse + [_with_negative_zeros(b, share, rng) for share in (0.5, 1.0) for b in sparse]
    ns += [random_ns_box(rng) for _ in range(100)]
    signaling = [random_valid_box(rng) for _ in range(100)]
    for _ in range(50):
        m = np.asarray(random_valid_box(rng).matrix).copy()
        m[:, rng.integers(4)] = 0.0
        signaling.append(_with_negative_zeros(nb.Box(m / m.sum(axis=1, keepdims=True)), 0.5, rng))
    return ns, signaling


def test_table_paths_match_loop_oracles_bit_for_bit():
    ns, signaling = _oracle_boxes()
    assert len(ns) + len(signaling) >= 500
    negative_zeros = 0
    for box in ns + signaling:
        got = np.asarray(nb.canonical_form(box).matrix)
        assert got.tobytes() == np.asarray(_canonical_by_tuples(box).matrix).tobytes()
        negative_zeros += bool(np.signbit(got[got == 0.0]).any())
    for box in ns:
        got = np.asarray(nb.depolarize(box).matrix)
        assert got.tobytes() == np.asarray(_depolarize_by_loop(box).matrix).tobytes()
    assert negative_zeros >= 100  # the sign of zero was really compared


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.1])
def test_canonical_form_rejects_invalid_boxes(value):
    m = np.array(nb.p_eps(0.3).matrix)
    m[1, 2] = value
    with pytest.raises(nb.InvalidBoxError):
        nb.canonical_form(nb.Box(m))
