"""Strategy enumeration, exact dedup, and the two-copy search."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import nlboxes as nb
from nlboxes import search
from nlboxes.search import pair_nl_values
from nlboxes.symmetry import Relabeling, chsh_stabilizer
from conftest import pr_variant, random_ns_box

TOL = 1e-9


def test_raw_strategy_count():
    assert nb.RAW_STRATEGY_COUNT == 2 * 4 * 16 * 256 == 32768


def test_dedup_shrinks_and_keeps_reps_sorted():
    strategies = nb.enumerate_strategies()
    count = nb.behavior_class_count()
    assert len(strategies) == count
    assert count < nb.RAW_STRATEGY_COUNT / 4  # dedup must pull real weight
    codes = [s.encode() for s in strategies]
    assert codes == sorted(codes)
    assert len(set(codes)) == count


# sha256 of class_of_code as little-endian int32: the exact partition of the
# 32768 raw strategies into behavior classes, numbered by smallest code.
CLASS_OF_CODE_SHA256 = "c4c1a1b66bfb64391780f937271569096f8759b07d51ac12d4c5d6861aaaf589"


def test_partition_is_pinned():
    dedup = search._dedup()
    assert nb.behavior_class_count() == 6212
    assert hashlib.sha256(dedup.class_of_code.astype("<i4").tobytes()).hexdigest() == CLASS_OF_CODE_SHA256
    assert np.array_equal(dedup.class_of_code[dedup.rep_codes], np.arange(6212))


def test_u_tensor_matches_trace():
    # Each (code, x, outcomes) marks one cell: the final bit's block, at the
    # outcomes and the inputs that ``trace`` reports.
    codes = np.random.default_rng(8).choice(search.RAW_STRATEGY_COUNT, size=2048, replace=False)
    expected = np.zeros((len(codes), 4, 16), dtype=np.int8)
    for i, code in enumerate(codes):
        strat = nb.AdaptiveStrategy.decode(int(code))
        for x, a1, a2 in product((0, 1), repeat=3):
            (x1, x2), final = strat.trace(x, (a1, a2))
            expected[i, 2 * x + final, (2 * a1 + a2) * 4 + 2 * x1 + x2] = 1
    assert np.array_equal(search._u_tensor()[codes], expected)


def test_canonical_strategy_is_a_fixed_point():
    codes = np.random.default_rng(7).integers(0, nb.RAW_STRATEGY_COUNT, size=500)
    reps = set(search._dedup().rep_codes.tolist())
    for code in codes:
        strat = nb.AdaptiveStrategy.decode(int(code))
        canon = nb.canonical_strategy(strat)
        assert nb.canonical_strategy(canon) == canon
        assert nb.behavior_key(canon) == nb.behavior_key(strat)
        assert canon.encode() <= strat.encode()
        assert canon.encode() in reps


def test_xor_strategy_is_represented():
    strategies = nb.enumerate_strategies()
    rep = nb.canonical_strategy(nb.xor_strategy())
    assert rep in strategies
    assert nb.behavior_key(rep) == nb.behavior_key(nb.xor_strategy())


def test_constant_output_strategies_collapse_to_two_classes():
    keys = {0: set(), 1: set()}
    for order in (0, 1):
        for f1 in product((0, 1), repeat=2):
            for f2_bits in product((0, 1), repeat=4):
                f2 = ((f2_bits[0], f2_bits[1]), (f2_bits[2], f2_bits[3]))
                for const in (0, 1):
                    row = ((const, const), (const, const))
                    strat = nb.AdaptiveStrategy(order, f1, f2, (row, row))
                    keys[const].add(nb.behavior_key(strat))
    assert len(keys[0]) == 1
    assert len(keys[1]) == 1
    assert keys[0] != keys[1]


def test_dedup_is_sound_on_sampled_classes(rng):
    # Strategies that collapsed together must compose identically on any
    # non-signaling resource.
    box = random_ns_box(rng)
    by_class: dict[int, list[nb.AdaptiveStrategy]] = {}
    for _ in range(400):
        strat = nb.AdaptiveStrategy.decode(int(rng.integers(0, nb.RAW_STRATEGY_COUNT)))
        by_class.setdefault(nb.behavior_key(strat), []).append(strat)
    partner = nb.xor_strategy()
    checked = 0
    for members in by_class.values():
        if len(members) < 2 or checked >= 10:
            continue
        a, b = members[0], members[1]
        left = nb.compose_wiring2(box, nb.Wiring2(a, partner))
        right = nb.compose_wiring2(box, nb.Wiring2(b, partner))
        assert np.max(np.abs(np.asarray(left.matrix) - np.asarray(right.matrix))) <= 1e-12
        checked += 1
    assert checked >= 3


def test_fast_path_matches_reference_composer(rng):
    box = random_ns_box(rng)
    strategies = nb.enumerate_strategies()
    alice = nb.canonical_strategy(nb.xor_strategy())
    vals = pair_nl_values(box, alice)
    assert len(vals) == nb.behavior_class_count()
    for ti in rng.choice(len(vals), size=25, replace=False):
        wiring = nb.Wiring2(alice, strategies[int(ti)])
        reference = nb.nl(nb.compose_wiring2(box, wiring))
        assert vals[int(ti)] == pytest.approx(reference, abs=1e-9)


def test_search_rediscovers_xor_protocol_value():
    result = nb.search_2copy(nb.p_eps(0.1))
    assert result.nl_in == pytest.approx(2.2, abs=1e-9)
    assert result.nl_out >= 2.36 - 1e-9
    assert result.strategies_raw == nb.RAW_STRATEGY_COUNT
    assert result.strategies_deduped == nb.behavior_class_count()
    assert result.distilled


def test_search_never_below_xor_baseline(rng):
    for _ in range(3):
        box = random_ns_box(rng)
        baseline = nb.nl(nb.compose_xor(box, 2))
        result = nb.search_2copy(box)
        assert result.nl_out >= baseline - TOL
        assert result.nl_out >= result.nl_in - TOL  # identity-like wirings exist


def test_distilled_uses_the_search_tolerance():
    # p_eps(0.1) gains 0.16 (2.2 -> 2.36): a gain, but not one above 0.2.
    result = nb.search_2copy(nb.p_eps(0.1), tol=0.2)
    assert result.tol == 0.2
    assert result.nl_out - result.nl_in == pytest.approx(0.16, abs=1e-9)
    assert not result.distilled


def test_search_noise_stays_local():
    result = nb.search_2copy(nb.noise())
    assert result.nl_out <= 2.0 + TOL


def test_search_isotropic_no_gain():
    result = nb.search_2copy(nb.isotropic(0.6))
    assert result.nl_out == pytest.approx(result.nl_in, abs=1e-9)
    assert result.nl_in == pytest.approx(2.4, abs=1e-9)
    assert not result.distilled


def test_search_results_are_deterministic():
    a = nb.search_2copy(nb.isotropic(0.55))
    b = nb.search_2copy(nb.isotropic(0.55))
    assert a.wiring == b.wiring
    assert a.nl_out == b.nl_out


def test_signed_halves_split_by_order_bit():
    # The classes' pairs of halves are V_0 x V_0 together with V_1 x V_1,
    # 2 * 66**2 - 50**2 = 6212 of them, so the scan's row maxima cover
    # exactly the Bob classes.
    dedup = search._dedup()
    assert dedup.halves.shape == (82, 9)
    assert len({tuple(h) for h in dedup.halves.tolist()}) == 82
    assert np.array_equal(dedup.halves[dedup.half_of], dedup.signed)
    v0, v1 = ({int(i) for i in np.flatnonzero(mask)} for mask in dedup.halves_in_order)
    assert (len(v0), len(v1), len(v0 & v1)) == (66, 66, 50)
    pairs = {tuple(p) for p in dedup.half_of.tolist()}
    assert len(pairs) == 6212
    assert pairs == set(product(v0, v0)) | set(product(v1, v1))


def test_search_does_not_import_numpy_ma():
    # A bare np.unique on a plain int array imports numpy.ma (numpy 2.4), a
    # cold-start cost the search does not need.
    code = "import sys, nlboxes as nb; nb.search_2copy(nb.p_eps(0.1)); print('numpy.ma' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(nb.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


# On p_eps(xi) the best two-copy wiring is the better of two protocols: XOR,
# classes (4966, 4966), with 2 + 4 xi - 4 xi^2, and the correlated-box
# protocol of Brunner and Skrzypczyk, classes (4454, 4454), with
# 2 + xi (3 - xi). They tie exactly at xi = 1/3, where the tie rule picks the
# smaller pair.
@pytest.mark.parametrize(
    "xi, codes",
    [(0.1, 4966), (0.2, 4966), (0.3, 4966), (1 / 3, 4454), (0.4, 4454), (0.5, 4454), (0.9, 4454)],
)
def test_p_eps_winner_and_crossover(xi, codes):
    result = nb.search_2copy(nb.p_eps(xi))
    assert (result.wiring.alice.encode(), result.wiring.bob.encode()) == (codes, codes)
    assert abs(result.nl_out - max(2 + 4 * xi - 4 * xi**2, 2 + xi * (3 - xi))) <= 1e-12


def test_search_reports_phases_and_counters():
    result = nb.search_2copy(nb.p_eps(0.1))
    assert result.alice_rows_scanned == 797
    assert result.pairs_scanned == 797 * 6212
    phases = (result.kernel_s, result.scan_s, result.verify_s)
    assert min(phases) >= 0.0
    assert sum(phases) <= result.wall_time_s


def test_chsh_stabilizer_covers_every_alice_relabeling():
    # The scan's orbit argument: every Alice relabeling pairs with a Bob
    # relabeling into one that keeps S fixed.
    stabilizer = chsh_stabilizer()
    assert len(stabilizer) == 8
    assert {(r.flip_x, r.flip_a, r.a_flip_with_x) for r in stabilizer} == set(search._PARTY_RELABELINGS)
    assert len(search._orbits().reps) == 797


@pytest.mark.parametrize("alice_flips", search._PARTY_RELABELINGS)
def test_party_relabeling_permutes_classes(alice_flips, rng):
    perms = search._orbits().class_perms
    alice_perm = perms[search._PARTY_RELABELINGS.index(alice_flips)]
    assert np.array_equal(np.sort(alice_perm), np.arange(nb.behavior_class_count()))
    strategies = nb.enumerate_strategies()
    box = random_ns_box(rng)
    for s, t in rng.integers(0, len(strategies), size=(3, 2)):
        composite = nb.compose_wiring2(box, nb.Wiring2(strategies[s], strategies[t]))
        for bob_flips, bob_perm in zip(search._PARTY_RELABELINGS, perms):
            wiring = nb.Wiring2(strategies[alice_perm[s]], strategies[bob_perm[t]])
            relabeled = nb.compose_wiring2(box, wiring)
            expected = Relabeling(*alice_flips, *bob_flips).apply(composite)
            assert np.max(np.abs(np.asarray(relabeled.matrix) - np.asarray(expected.matrix))) <= 1e-12


def _box_kernel(matrix: np.ndarray) -> np.ndarray:
    """Product probabilities of the two copies over all outcome/input combos."""
    t4 = np.asarray(matrix).reshape(2, 2, 2, 2)  # [x, y, a, b]
    return np.einsum("xyab,XYAB->aAxXbByY", t4, t4).reshape(16, 16)


def _chsh_weights() -> np.ndarray:
    """Eight CHSH functionals on composite tables laid out as (xa, yb)."""
    w = np.zeros((8, 4, 4))
    for k, (x0, y0) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        for x, y, a, b in product(range(2), repeat=4):
            sign = -1.0 if (x, y) == (1 - x0, 1 - y0) else 1.0
            w[k, 2 * x + a, 2 * y + b] = sign * (1.0 if a == b else -1.0)
    w[4:] = -w[:4]
    return w


def _dense_scan_winner(box: nb.Box) -> tuple[float, int, int]:
    """All eight CHSH functionals over all class pairs: the best value and
    the smallest class pair within 1e-12 of it. Independent of the search's
    signed coordinates: each class enters through the 0/1 tensor of its
    smallest code, and the box through the two copies' product table."""
    u = search._u_tensor()[search._dedup().rep_codes].astype(float)
    n = len(u)
    flat_u = u.reshape(n, 64)
    t = np.einsum("cam,mn->can", u, _box_kernel(box.matrix))
    g = np.einsum("kab,cam->ckbm", _chsh_weights(), t).reshape(n, 8, 64)

    def values(start: int) -> np.ndarray:
        return (g[start:start + 64].reshape(-1, 64) @ flat_u.T).reshape(-1, 8, n).max(axis=1)

    row_max = np.concatenate([values(start).max(axis=1) for start in range(0, n, 64)])
    best = float(row_max.max())
    si = int(np.argmax(row_max >= best - 1e-12))
    ti = int(np.argmax(values(si - si % 64)[si % 64] >= best - 1e-12))
    return best, si, ti


def _nonlocal_random_box(seed: int) -> nb.Box:
    # Best functional is not S, so the winner is mapped back through a relabeling.
    mix = 0.7 * np.asarray(pr_variant(0, 1, 1).matrix)
    return nb.Box(mix + 0.3 * np.asarray(random_ns_box(np.random.default_rng(seed)).matrix))


@pytest.mark.parametrize(
    "box",
    [
        nb.p_eps(0.1),
        nb.isotropic(0.8),
        nb.noise(),
        random_ns_box(np.random.default_rng(5)),
        _nonlocal_random_box(1),
    ],
    ids=["p_eps(0.1)", "isotropic(0.8)", "noise", "random_ns", "random_nonlocal"],
)
def test_search_matches_dense_eight_functional_scan(box):
    best, si, ti = _dense_scan_winner(box)
    result = nb.search_2copy(box)
    assert abs(result.nl_out - best) <= 1e-12
    strategies = nb.enumerate_strategies()
    assert result.wiring == nb.Wiring2(strategies[si], strategies[ti])


@pytest.mark.parametrize(
    "box",
    [
        nb.p_eps(0.1),
        nb.p_eps_delta(0.3, 0.02),
        nb.isotropic(0.8),
        nb.noise(),
        random_ns_box(np.random.default_rng(5)),
        _nonlocal_random_box(1),
    ],
    ids=["p_eps(0.1)", "p_eps_delta(0.3,0.02)", "isotropic(0.8)", "noise", "random_ns", "random_nonlocal"],
)
def test_separable_rows_match_the_18_coordinate_rows(box):
    dedup, reps = search._dedup(), search._orbits().reps
    plus, minus = search._s_rows(box, reps)
    row_max = search._row_max(plus, minus)
    s_rows = search._functional_rows(box, search._CHSH_SIGNS[0], dedup.signed[reps]) @ dedup.signed.reshape(-1, 18).T
    assert np.max(np.abs(row_max - s_rows.max(axis=1))) <= 1e-13
    for row in range(len(reps)):
        bob = search._bob_row(plus, minus, row)
        assert np.max(np.abs(bob - s_rows[row])) <= 1e-13
        assert bob.max() == row_max[row]  # bit for bit, so the winning row's tie set is never empty


def test_search_composites_non_signaling(rng):
    strategies = nb.enumerate_strategies()
    box = random_ns_box(rng)
    for _ in range(50):
        wiring = nb.Wiring2(
            strategies[int(rng.integers(0, len(strategies)))],
            strategies[int(rng.integers(0, len(strategies)))],
        )
        assert nb.is_non_signaling(nb.compose_wiring2(box, wiring)).ok


def test_search_result_json_shape():
    result = nb.search_2copy(nb.isotropic(0.55))
    payload = result.to_json_dict()
    assert set(payload) == {
        "box",
        "nl_in",
        "nl_out",
        "wiring",
        "strategies_raw",
        "strategies_deduped",
        "wall_time_s",
    }
    assert set(payload["wiring"]) == {"alice", "bob"}
    assert set(payload["wiring"]["alice"]) == {"order", "first_input", "second_input", "output"}


def test_search_rejects_signaling_box():
    box = nb.Box(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.25, 0.25, 0.25, 0.25],
            [0.25, 0.25, 0.25, 0.25],
        ]
    )
    with pytest.raises(nb.SignalingBoxError):
        nb.search_2copy(box)
