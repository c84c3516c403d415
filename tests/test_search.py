"""Strategy enumeration, exact dedup, and the two-copy search."""

from __future__ import annotations

import dataclasses
import hashlib
import os
import subprocess
import sys
from functools import lru_cache
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import nlboxes as nb
from nlboxes import search
from nlboxes.search import pair_nl_values
from nlboxes.symmetry import Relabeling, chsh_stabilizer
from conftest import (
    TOL_0_BOXES,
    box_from_correlators,
    deterministic_vertices,
    dusty_ns_boxes,
    near_ns_boxes,
    ns_vertices,
    pr_variant,
    random_ns_box,
)

TOL = 1e-9


def _class_of_code() -> np.ndarray:
    """Raw code -> class id, a numpy view of the dedup's flat uint16 table."""
    return np.frombuffer(search._dedup().class_table, np.uint16)


@lru_cache(maxsize=1)
def _class_perms() -> np.ndarray:
    """(relabeling, class) -> image class, in ``_PARTY_RELABELINGS`` order."""
    reps = search._dedup().rep_codes
    return np.stack([_class_of_code()[search._relabel_codes(reps, *r)] for r in search._PARTY_RELABELINGS])


def _orbit_min() -> np.ndarray:
    """Class -> the smallest class of its orbit under the 8 party relabelings."""
    return _class_perms().min(axis=0)


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


# sha256 of the class of each code as little-endian int32: the exact partition
# of the 32768 raw strategies into behavior classes, numbered by smallest code.
CLASS_OF_CODE_SHA256 = "c4c1a1b66bfb64391780f937271569096f8759b07d51ac12d4c5d6861aaaf589"


def test_partition_is_pinned():
    dedup = search._dedup()
    assert nb.behavior_class_count() == 6212
    class_of_code = _class_of_code()
    assert hashlib.sha256(class_of_code.astype("<i4").tobytes()).hexdigest() == CLASS_OF_CODE_SHA256
    assert np.array_equal(class_of_code[dedup.rep_codes], np.arange(6212))


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


def test_lookup_tables_agree_with_the_dedup_on_every_code(monkeypatch):
    dedup = search._dedup()
    rep_of_code = dedup.rep_codes[_class_of_code()].tolist()
    class_of_code = _class_of_code().tolist()
    for code in range(nb.RAW_STRATEGY_COUNT):
        strat = nb.AdaptiveStrategy.decode(code)
        canon = nb.canonical_strategy(strat)
        key = nb.behavior_key(strat)
        assert canon is search._canonical[rep_of_code[code]]  # one shared object per class
        assert canon.encode() == rep_of_code[code]
        assert key == class_of_code[code] and type(key) is int
        (s0, s1), ((o00, o01), (o10, o11)) = canon.second_input, canon.output
        fields = (canon.order, *canon.first_input, *s0, *s1, *o00, *o01, *o10, *o11)
        assert all(type(v) is int for v in fields)
    enumerated = nb.enumerate_strategies()
    assert enumerated == [nb.AdaptiveStrategy.decode(c) for c in dedup.rep_codes.tolist()]
    assert all(s is search._canonical[s.encode()] for s in enumerated)
    # The flat table is built once: later calls index the same tuple and
    # never call ``_build_canonical`` again.
    table = search._canonical
    assert type(table) is tuple and len(table) == nb.RAW_STRATEGY_COUNT

    def rebuild():
        raise AssertionError("canonical_strategy rebuilt its table")

    monkeypatch.setattr(search, "_build_canonical", rebuild)
    for code in range(0, nb.RAW_STRATEGY_COUNT, 97):
        assert nb.canonical_strategy(nb.AdaptiveStrategy.decode(code)) is table[code]
    assert search._canonical is table


def test_cold_search_builds_no_representatives_and_the_flat_table_once():
    # A search never reads the class representatives, so a cold search
    # decodes none of them: only the dedup's 256 input-0 codes and the
    # winning pair. The first canonical_strategy call decodes the 6212
    # representatives and builds the flat table, and no later call, nor
    # enumerate_strategies, builds it again.
    code = (
        "import nlboxes as nb\n"
        "from nlboxes import search\n"
        "builds, decodes = [], []\n"
        "build, decode = search._build_canonical, nb.AdaptiveStrategy.decode\n"
        "search._build_canonical = lambda: builds.append(1) or build()\n"
        "nb.AdaptiveStrategy.decode = staticmethod(lambda c: decodes.append(c) or decode(c))\n"
        "nb.search_2copy(nb.p_eps(0.1))\n"
        "print(len(decodes), len(search._canonical), len(builds))\n"
        "for c in range(0, nb.RAW_STRATEGY_COUNT, 5):\n"
        "    nb.canonical_strategy(decode(c))\n"
        "nb.enumerate_strategies()\n"
        "print(len(decodes), len(search._canonical), len(builds))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(nb.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split("\n")[:2] == ["258 0 0", f"{258 + 6212} {nb.RAW_STRATEGY_COUNT} 1"]


def test_canonical_strategy_returns_one_shared_representative_per_class():
    dedup = search._dedup()
    for code in np.random.default_rng(18).integers(0, nb.RAW_STRATEGY_COUNT, size=300).tolist():
        strat = nb.AdaptiveStrategy.decode(code)
        canon = nb.canonical_strategy(strat)
        assert nb.canonical_strategy(strat) is canon
        assert nb.canonical_strategy(nb.AdaptiveStrategy.decode(code)) is canon
        assert nb.canonical_strategy(canon) is canon
        expected = nb.AdaptiveStrategy.decode(int(dedup.rep_codes[_class_of_code()[code]]))
        for field in dataclasses.fields(expected):
            assert getattr(canon, field.name) == getattr(expected, field.name)
        assert canon.encode() == expected.encode()


def test_enumerated_list_is_a_copy():
    first = nb.enumerate_strategies()
    xor_rep = nb.canonical_strategy(nb.xor_strategy())
    expected = list(first)
    first.clear()
    again = nb.enumerate_strategies()
    assert again == expected and len(again) == nb.behavior_class_count()
    again[nb.behavior_key(xor_rep)] = nb.first_box_strategy()
    assert nb.canonical_strategy(nb.xor_strategy()) is xor_rep
    assert nb.enumerate_strategies() == expected


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


# Local boxes that a wiring lifts to CHSH value 2 by outputting a
# deterministic box: a gain in the value, but no distillation.
@pytest.mark.parametrize(
    "box, nl_in",
    [(nb.noise(), 0.0), (nb.isotropic(0.3), 1.2), (nb.p_eps_delta(0.0125, 0.0125), 1.95)],
    ids=["noise", "isotropic(0.3)", "p_eps_delta(0.0125,0.0125)"],
)
def test_local_box_lifted_to_2_is_not_distilled(box, nl_in):
    result = nb.search_2copy(box)
    assert result.nl_in == pytest.approx(nl_in, abs=1e-12)
    assert result.nl_out == pytest.approx(2.0, abs=1e-12)
    assert result.nl_out > result.nl_in + result.tol
    assert not result.distilled


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
    # exactly the Bob classes. No half is zero, and half h + 41 is -(half h).
    # The first 41 are numbered V_0 only, shared, V_1 only, so each V_o is
    # closed under negation and its kept halves are the slice [0:33] or [8:41].
    dedup = search._dedup()
    assert dedup.halves.shape == (82, 9)
    assert len({tuple(h) for h in dedup.halves.tolist()}) == 82
    assert np.all(np.any(dedup.halves != 0, axis=1))
    assert np.array_equal(dedup.halves[41:], -dedup.halves[:41])
    assert np.array_equal(dedup.halves[dedup.half_of], dedup.signed)
    assert dedup.in_order == (slice(0, 33), slice(8, 41))
    v0, v1 = set(range(33)) | set(range(41, 74)), set(range(8, 41)) | set(range(49, 82))
    for order, v in enumerate((v0, v1)):
        codes = np.arange(order << 14, (order + 1) << 14)
        assert set(dedup.half_of[_class_of_code()[codes]].ravel().tolist()) == v
        assert {(h + 41) % 82 for h in v} == v
        assert set(range(82)[dedup.in_order[order]]) == {h for h in v if h < 41}
    pairs = {tuple(p) for p in dedup.half_of.tolist()}
    assert len(pairs) == 6212
    assert pairs == set(product(v0, v0)) | set(product(v1, v1))
    # The scan's table of half pairs holds each class's orbit minimum at the
    # class's pair, and the class count, above every class id, at the others.
    orbit_min_of_pair = search._dedup().orbit_min_of_pair
    is_class = np.zeros((82, 82), dtype=bool)
    is_class[dedup.half_of[:, 0], dedup.half_of[:, 1]] = True
    assert orbit_min_of_pair.shape == (82, 82) and np.count_nonzero(is_class) == 6212
    assert np.array_equal(orbit_min_of_pair[dedup.half_of[:, 0], dedup.half_of[:, 1]], _orbit_min())
    assert set(orbit_min_of_pair[~is_class].tolist()) == {6212}


def test_scan_columns_are_the_distinct_alice_columns():
    # The 797 scanned Alice rows share 578 distinct u = s0 + s1 and 499
    # distinct w = s0 - s1. Up to sign the w are 420: 79 +- pairs and the
    # zero column. The scan keeps the u columns, then the w columns, and each
    # row points at its own two columns with its sign over each.
    dedup, scan = search._dedup(), search._dedup()
    signed = dedup.signed[scan.alice]
    sides = (signed[:, 0] + signed[:, 1], signed[:, 0] - signed[:, 1])
    assert [len({tuple(r) for r in rows.tolist()}) for rows in sides] == [578, 499]
    assert scan.columns.shape == (9, 998) and scan.columns.flags.c_contiguous
    for rows, column_of, sign, span in zip(sides, scan.column_of, scan.sign_of, (range(578), range(578, 998))):
        columns = scan.columns[:, span.start:span.stop].T.tolist()
        assert len(set(map(tuple, columns))) == len(span)
        assert all(next(v for v in c if v) > 0 for c in columns if any(c))  # one sign of each +- pair
        assert set(column_of.tolist()) == set(span)
        assert set(sign.tolist()) <= {-1.0, 1.0}
        assert np.array_equal(scan.columns[:, column_of].T * sign[:, None], rows)


def test_signed_halves_match_trace():
    # Every class's halves at both party inputs, against the signed key
    # K^T (B[x, final 0] - B[x, final 1]) K read off ``trace``; the dedup reads
    # input 1 through the input-flipped code.
    dedup = search._dedup()
    keys = _rep_keys()
    assert np.array_equal(dedup.halves[dedup.half_of], keys[:, :, 0] - keys[:, :, 1])


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
    # The scanned Alice classes are the orbit minima, one per orbit.
    orbit_min = _orbit_min()
    assert np.array_equal(orbit_min[orbit_min], orbit_min) and np.all(orbit_min <= np.arange(6212))
    assert np.array_equal(search._dedup().alice, np.flatnonzero(orbit_min == np.arange(6212)))
    assert len(search._dedup().alice) == 797


@pytest.mark.parametrize("alice_flips", search._PARTY_RELABELINGS)
def test_party_relabeling_permutes_classes(alice_flips, rng):
    perms = _class_perms()
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


@lru_cache(maxsize=1)
def _rep_tensor() -> np.ndarray:
    """0/1 tensor of each class's smallest code, read off ``trace``:
    (class, party input x final bit, outcomes x inputs)."""
    reps = search._dedup().rep_codes
    u = np.zeros((len(reps), 4, 16), dtype=np.int8)
    for i, code in enumerate(reps.tolist()):
        strat = nb.AdaptiveStrategy.decode(code)
        for x, a1, a2 in product((0, 1), repeat=3):
            (x1, x2), final = strat.trace(x, (a1, a2))
            u[i, 2 * x + final, (2 * a1 + a2) * 4 + 2 * x1 + x2] = 1
    return u


@lru_cache(maxsize=1)
def _rep_keys() -> np.ndarray:
    """K^T B K for each class and (party input, final bit), B the tensor's
    block over (a1, x1) x (a2, x2): (class, party input, final bit, 9)."""
    blocks = _rep_tensor().reshape(-1, 4, 2, 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(-1, 4, 4, 4)
    basis = search._NS_BASIS
    return (basis.T @ blocks @ basis).reshape(-1, 2, 2, 9).astype(float)


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
    u = _rep_tensor().astype(float)
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
    dedup, scan = search._dedup(), search._dedup()
    reps = scan.alice
    g = search._half_functionals(box)
    row_max = search._row_max(g, scan)
    s_rows = search._functional_rows(box, search._CHSH_SIGNS[0], dedup.signed[reps]) @ dedup.signed.reshape(-1, 18).T
    assert np.max(np.abs(row_max - s_rows.max(axis=1))) <= 1e-13
    # Every row, so every distinct column, both signs and every block edge.
    assert len(reps) == 797 and search._ROW_BLOCK == 333
    for row in range(len(reps)):
        values = search._pair_values(g, scan, row)[dedup.half_of[:, 0], dedup.half_of[:, 1]]  # by class
        assert np.max(np.abs(values - s_rows[row])) <= 1e-13
        assert values.max() == row_max[row]  # bit for bit, so the winning row's tie set is never empty


# The block edges of the block size, and the counts 199, 200 and 602 that were
# the edges of an earlier block size of 199.
@pytest.mark.parametrize(
    "count", [1, 199, 200, 602, search._ROW_BLOCK, search._ROW_BLOCK + 1, 3 * search._ROW_BLOCK + 5]
)
def test_blocked_row_max_matches_unblocked(count):
    # Columns in any order and count, across block boundaries: each block
    # must land on its own entries of the column maxima.
    dedup = search._dedup()
    alice = np.random.default_rng(count).permutation(len(dedup.rep_codes))[:count]
    box = _nonlocal_random_box(2)
    g, g_all, v_all = search._half_functionals(box), _all_half_functionals(box), _order_rows()
    signed = dedup.signed[alice]
    sides = (signed[:, 0] + signed[:, 1], signed[:, 0] - signed[:, 1])
    for rows in sides:
        columns = np.ascontiguousarray(rows.T)
        blocks = np.hstack([search._block_product(g, columns, start) for start in range(0, count, search._ROW_BLOCK)])
        maxima = search._column_maxima(g, columns)
        assert np.array_equal(maxima, [np.abs(blocks[v]).max(axis=0) for v in dedup.in_order])
        # One product over all columns: a BLAS kernel may round its edge
        # columns differently, so only to 1e-13.
        assert np.max(np.abs(blocks - g @ columns)) <= 1e-13
        # The maxima over all of each V_o, negations included, and for -c too.
        for c in (columns, -columns):
            assert np.max(np.abs(maxima - [(g_all @ c)[v].max(axis=0) for v in v_all])) <= 1e-13
    # Row maxima gathered from these classes' distinct columns up to sign,
    # against the same maxima over all 82 halves and each class's own columns.
    (u, u_of, u_sign), (w, w_of, w_sign) = map(search._distinct_columns, sides)
    scan = dataclasses.replace(
        search._dedup(), columns=np.hstack([u, w]), column_of=np.stack([u_of, u.shape[1] + w_of]),
        sign_of=np.stack([u_sign, w_sign]),
    )
    plus, minus = (g_all @ rows.T for rows in sides)
    unblocked = np.max([plus[v].max(axis=0) + minus[v].max(axis=0) for v in v_all], axis=0)
    assert np.max(np.abs(search._row_max(g, scan) - unblocked)) <= 1e-13


def _kron_coordinates(box: nb.Box) -> np.ndarray:
    """R = kron(Q, Q) through np.kron."""
    p = box.matrix.reshape(2, 2, 2, 2).transpose(2, 0, 3, 1).reshape(4, 4)
    q = search._NS_LEFT_INVERSE @ p @ search._NS_LEFT_INVERSE.T
    return np.kron(q, q)


def _all_half_functionals(box: nb.Box) -> np.ndarray:
    """G over all 82 halves, negations included: (82, 9)."""
    return search._dedup().halves @ _kron_coordinates(box).T


def _order_rows() -> list[np.ndarray]:
    """V_o over all 82 halves, read off the codes with order bit o rather
    than off the scan's slices."""
    dedup = search._dedup()
    return [np.unique(dedup.half_of[_class_of_code()[np.arange(o << 14, (o + 1) << 14)]]) for o in (0, 1)]


def _bob_row(box: nb.Box, row: int) -> np.ndarray:
    """The scan's tie-break before the table of half pairs: S of one scanned
    Alice row against every Bob class, in class order, gathered per class
    out of the product of G over all 82 halves with the row's own columns."""
    dedup = search._dedup()
    s0, s1 = dedup.signed[search._dedup().alice[row]]
    g_all = _all_half_functionals(box)
    return (g_all @ (s0 + s1))[dedup.half_of[:, 0]] + (g_all @ (s0 - s1))[dedup.half_of[:, 1]]


def _oracle_scan(box: nb.Box) -> tuple[np.ndarray, tuple[int, int]]:
    """The scan through H = halves R halves^T, the correlator between two
    halves, with R from np.kron: an Alice row's plus = H[s0] + H[s1] and
    minus = H[s0] - H[s1], maxima per order bit along each row. Returns the
    row maxima of the scanned Alice classes and the winning class pair."""
    dedup, alice = search._dedup(), search._dedup().alice
    h = dedup.halves @ _kron_coordinates(box) @ dedup.halves.T
    s0, s1 = dedup.half_of[alice].T
    plus, minus = h[s0] + h[s1], h[s0] - h[s1]
    row_max = np.max([plus[:, v].max(axis=1) + minus[:, v].max(axis=1) for v in _order_rows()], axis=0)
    near = row_max.max() - search._NEAR_MAX
    row = int(np.argmax(row_max >= near))
    bob = plus[row][dedup.half_of[:, 0]] + minus[row][dedup.half_of[:, 1]]
    return row_max, (int(alice[row]), int(_orbit_min()[bob >= near].min()))


# The search_stream benchmark's eight input kinds, rebuilt here from the
# library's constructors so that the tests do not import the benchmark.
_CORPUS_KINDS = (
    "isotropic",
    "p_eps_distillable",
    "p_eps_outside",
    "p_eps_delta_distillable",
    "p_eps_delta_outside",
    "depolarized",
    "random_ns",
    "pr_det_mix",
)


def _corpus_box(rng: np.random.Generator, kind: str) -> nb.Box:
    if kind == "isotropic":
        return nb.isotropic(rng.uniform(0.5, 1.0))
    if kind == "p_eps_distillable":
        return nb.p_eps(rng.uniform(0.02, 0.48))
    if kind == "p_eps_outside":
        return nb.p_eps(rng.uniform(0.52, 1.0))
    if kind == "p_eps_delta_distillable":
        # 3 d^2 - e^2 > 3 d - e with d = 1 - 2 delta, e = 1 - 2 eps.
        while True:
            eps, delta = rng.uniform(0.05, 0.45), rng.uniform(0.0, 0.05)
            d, e = 1 - 2 * delta, 1 - 2 * eps
            if 3 * d * d - e * e > 3 * d - e + 1e-3:
                return nb.p_eps_delta(eps, delta)
    if kind == "p_eps_delta_outside":
        eps = rng.uniform(0.05, 0.45)
        return nb.p_eps_delta(eps, rng.uniform(eps, 0.5))
    if kind == "depolarized":
        c = rng.uniform(0.5, 1.0) * rng.choice((-1.0, 1.0))
        return box_from_correlators((c, c, c, -c))
    if kind == "random_ns":  # three random vertices of the non-signaling polytope
        vertices = ns_vertices()
        picks = rng.choice(len(vertices), size=3, replace=False)
        return nb.Box(np.tensordot(rng.dirichlet(np.ones(3)), [vertices[i].matrix for i in picks], axes=1))
    if kind == "pr_det_mix":
        lam = rng.uniform(0.3, 1.0)
        return nb.Box(lam * nb.pr().matrix + (1 - lam) * deterministic_vertices()[rng.integers(16)].matrix)
    raise ValueError(kind)


def _search_corpus(seed: int, count: int) -> list[tuple[str, nb.Box]]:
    """(kind, box): the exact tie p_eps(1/3), noise and PR, then the eight
    kinds in seeded blocks, each block holding every kind once."""
    rng = np.random.default_rng(seed)
    corpus = [("p_eps(1/3)", nb.p_eps(1 / 3)), ("noise", nb.noise()), ("pr", nb.pr())]
    while len(corpus) < count:
        corpus.extend((kind, _corpus_box(rng, kind)) for kind in rng.permutation(_CORPUS_KINDS).tolist())
    return corpus[:count]


def _winning_pairs(boxes: list[nb.Box]) -> np.ndarray:
    """The search's winning (Alice, Bob) class pair on each box, as int32."""
    wirings = [nb.search_2copy(box).wiring for box in boxes]
    return np.array([(nb.behavior_key(w.alice), nb.behavior_key(w.bob)) for w in wirings], dtype="<i4")


def test_block_product_scan_matches_the_h_gather_oracle():
    corpus = _search_corpus(16, 520)
    assert {kind for kind, _ in corpus} == {*_CORPUS_KINDS, "p_eps(1/3)", "noise", "pr"}
    dedup, scan, orbit_min = search._dedup(), search._dedup(), _orbit_min()
    pairs = _winning_pairs([box for _, box in corpus])
    for (kind, box), pair in zip(corpus, pairs.tolist()):
        oracle_max, oracle_pair = _oracle_scan(box)
        assert np.array_equal(search._box_coordinates(box), _kron_coordinates(box)), kind
        g = search._half_functionals(box)
        row_max = search._row_max(g, scan)
        assert np.max(np.abs(row_max - oracle_max)) <= 1e-13, kind
        assert tuple(pair) == oracle_pair, kind
        # The winning row's tie set through the table of half pairs, against
        # the per-class gather it replaced.
        near = row_max.max() - search._NEAR_MAX
        row = int(np.argmax(row_max >= near))
        values = search._pair_values(g, scan, row)
        gathered = _bob_row(box, row)
        by_class = values[dedup.half_of[:, 0], dedup.half_of[:, 1]]
        assert np.max(np.abs(by_class - gathered)) <= 1e-13, kind
        tied = np.flatnonzero(by_class >= near)
        assert np.array_equal(tied, np.flatnonzero(gathered >= near)), kind
        assert orbit_min[tied].min() == pair[1], kind
        # The search's one masked minimum over the table of half pairs.
        assert scan.orbit_min_of_pair[values >= near].min() == pair[1], kind


# sha256 of the winning (Alice, Bob) class pairs on _search_corpus(2024, 200),
# as little-endian int32, computed with the H-gather scan. The pairs are
# integers, so last-bit differences between BLAS kernels do not move it.
WINNING_PAIRS_SHA256 = "236f29d0694c7abec48c27939cfe7886812bd1d19b8e987aceaa3ee22c7347b6"


def test_winning_pairs_are_pinned():
    pairs = _winning_pairs([box for _, box in _search_corpus(2024, 200)])
    assert hashlib.sha256(pairs.tobytes()).hexdigest() == WINNING_PAIRS_SHA256


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


@pytest.mark.parametrize("matrix", TOL_0_BOXES, ids=["marginal", "row_sum"])
def test_search_at_tol_0_runs_on_a_box_accepted_at_tol_0(matrix):
    box = nb.Box(matrix)
    assert nb.validate(box, 0.0).ok and nb.is_non_signaling(box, 0.0).ok
    at_zero = nb.search_2copy(box, tol=0.0)
    assert at_zero.wiring == nb.search_2copy(box).wiring
    assert at_zero.nl_out == nb.search_2copy(box).nl_out


def test_search_at_tol_0_never_raises_on_an_accepted_box():
    # Mixtures of two or three no-signaling vertices; about 60 % of them pass
    # the input checks at tol 0, and the search used to fail on 46 % of those.
    vertices = [v.matrix for v in ns_vertices()]
    rng = np.random.default_rng(2323)
    accepted = 0
    for _ in range(300):
        k = int(rng.integers(2, 4))
        picks = rng.choice(len(vertices), size=k, replace=False)
        box = nb.Box(np.tensordot(rng.dirichlet(np.ones(k)), [vertices[i] for i in picks], axes=1))
        if nb.validate(box, 0.0).ok and nb.is_non_signaling(box, 0.0).ok:
            accepted += 1
            # A wiring that outputs the first copy reproduces the box.
            assert nb.search_2copy(box, tol=0.0).nl_out >= nb.nl(box, 0.0) - 1e-12
    assert accepted >= 150


def test_search_composite_check_covers_a_scaled_box():
    # Row sums 1 + 0.9e-9 pass the input check, and the composite's are
    # (1 + 0.9e-9)**2, off by 1.8e-9: past tol, inside the composite's bound.
    box = nb.Box(nb.isotropic(0.8).matrix * (1 + 0.9e-9))
    assert nb.validate(box).ok and nb.is_non_signaling(box).ok
    assert nb.search_2copy(box).wiring == nb.search_2copy(nb.isotropic(0.8)).wiring


@pytest.mark.parametrize("matrix", [nb.isotropic(0.8).matrix, *TOL_0_BOXES], ids=["isotropic", "marginal", "row_sum"])
def test_search_still_rejects_a_box_two_tol_off(matrix):
    # The input check keeps tol: only the composite's check widens.
    with pytest.raises(nb.InvalidBoxError, match="row sum != 1"):
        nb.search_2copy(nb.Box(np.asarray(matrix) * (1 + 2 * TOL)))


@pytest.mark.parametrize(
    "corpus, tol",
    [(near_ns_boxes, 1e-9), (near_ns_boxes, 1e-6), (near_ns_boxes, 1e-4), (dusty_ns_boxes, 1e-9)],
    ids=["near_1e-9", "near_1e-6", "near_1e-4", "dusty"],
)
def test_search_self_check_holds_within_tol_of_no_signaling(corpus, tol):
    # The scan reads the no-signaling part of the box, the composer the box
    # itself: their values differ by up to a few tol.
    for box in corpus(np.random.default_rng(3301), 200, tol):
        nb.search_2copy(box, tol)


def test_scan_tol_grows_with_tol_and_saturates():
    assert search._scan_tol(0.0) == 1e-9
    assert search._scan_tol(1e-6) == 48e-6 * (1.0 + 21e-6) + 1e-9
    assert search._scan_tol(1e200) == sys.float_info.max


@pytest.mark.parametrize("factor, raises", [(0.5, False), (2.0, True)])
def test_search_self_check_raises_on_a_scan_shifted_past_its_bound(monkeypatch, factor, raises):
    # The whole scan is shifted, so the tie-break picks the pair it picks unshifted.
    shift = factor * search._scan_tol(TOL)
    row_max, pair_values = search._row_max, search._pair_values
    monkeypatch.setattr(search, "_row_max", lambda g, dedup: row_max(g, dedup) + shift)
    monkeypatch.setattr(search, "_pair_values", lambda g, dedup, row: pair_values(g, dedup, row) + shift)
    box = nb.p_eps(0.1)
    if raises:
        with pytest.raises(AssertionError, match="disagrees with reference composition"):
            nb.search_2copy(box)
    else:
        assert nb.search_2copy(box).nl_out == pytest.approx(2.36, abs=1e-12)
