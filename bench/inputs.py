"""Seeded inputs for every workload, built with numpy alone.

The generators never call nlboxes, so a change to the library cannot
change what the benchmark feeds it. Each input set repeats a fixed block
of input kinds in a seeded order, a whole number of times, so every kind
has exactly its stated share of the set whatever the seed. A run cycles
through its set and goes on until every input has run at least once, so
its count of failed inputs depends on the seed alone.
"""

from __future__ import annotations

import json
from itertools import product

import numpy as np



def _vertices() -> np.ndarray:
    """The 24 vertices of the non-signaling polytope: 16 local, 8 PR-type."""
    mats = []
    for fa0, fa1, fb0, fb1 in product((0, 1), repeat=4):
        m = np.zeros((4, 4))
        for x, y in product((0, 1), repeat=2):
            m[2 * x + y, 2 * (fa0, fa1)[x] + (fb0, fb1)[y]] = 1.0
        mats.append(m)
    for alpha, beta, gamma in product((0, 1), repeat=3):
        m = np.zeros((4, 4))
        for x, y, a, b in product((0, 1), repeat=4):
            if a ^ b == (x & y) ^ (alpha & x) ^ (beta & y) ^ gamma:
                m[2 * x + y, 2 * a + b] = 0.5
        mats.append(m)
    return np.stack(mats)


VERTICES = _vertices()
PR = VERTICES[16]
NOISE = np.full((4, 4), 0.25)


def isotropic(eta: float) -> np.ndarray:
    return eta * PR + (1.0 - eta) * NOISE


def p_eps_delta(eps: float, delta: float = 0.0) -> np.ndarray:
    top = [0.5 - delta / 2, delta / 2, delta / 2, 0.5 - delta / 2]
    last = [0.5 - eps / 2, eps / 2, eps / 2, 0.5 - eps / 2]
    return np.array([top, top, top, last])


def random_ns(rng: np.random.Generator) -> np.ndarray:
    """Mixture of three random vertices of the non-signaling polytope."""
    picks = rng.choice(len(VERTICES), size=3, replace=False)
    return np.tensordot(rng.dirichlet(np.ones(3)), VERTICES[picks], axes=1)


def depolarized(rng: np.random.Generator) -> np.ndarray:
    """Isotropic-line image of a random non-local box: correlators (c, c, c, -c)
    and uniform marginals with |c| = |S|/4 in [0.5, 1]."""
    c = rng.uniform(0.5, 1.0) * rng.choice((-1.0, 1.0))
    signs = np.array([1.0, -1.0, -1.0, 1.0])
    corr = np.array([c, c, c, -c])
    return (1.0 + np.outer(corr, signs)) / 4.0


def pr_det_mix(rng: np.random.Generator) -> np.ndarray:
    lam = rng.uniform(0.3, 1.0)
    return lam * PR + (1.0 - lam) * VERTICES[rng.integers(16)]


def _blocks(rng: np.random.Generator, block: list[str], length: int) -> list[str]:
    kinds: list[str] = []
    while len(kinds) < length:
        kinds.extend(rng.permutation(block).tolist())
    return kinds[:length]


# ---------------------------------------------------------------------------
# search_stream
# ---------------------------------------------------------------------------

SEARCH_KINDS = [
    "isotropic",
    "p_eps_distillable",
    "p_eps_outside",
    "p_eps_delta_distillable",
    "p_eps_delta_outside",
    "depolarized",
    "random_ns",
    "pr_det_mix",
]


def _search_box(rng: np.random.Generator, kind: str) -> np.ndarray:
    if kind == "isotropic":
        return isotropic(rng.uniform(0.5, 1.0))
    if kind == "p_eps_distillable":
        return p_eps_delta(rng.uniform(0.02, 0.48))
    if kind == "p_eps_outside":
        return p_eps_delta(rng.uniform(0.52, 1.0))
    if kind == "p_eps_delta_distillable":
        # 3*d**2 - e**2 > 3*d - e with d = 1-2*delta, e = 1-2*eps.
        while True:
            eps, delta = rng.uniform(0.05, 0.45), rng.uniform(0.0, 0.05)
            d, e = 1 - 2 * delta, 1 - 2 * eps
            if 3 * d * d - e * e > 3 * d - e + 1e-3:
                return p_eps_delta(eps, delta)
    if kind == "p_eps_delta_outside":
        eps = rng.uniform(0.05, 0.45)
        return p_eps_delta(eps, rng.uniform(eps, 0.5))
    if kind == "depolarized":
        return depolarized(rng)
    if kind == "random_ns":
        return random_ns(rng)
    if kind == "pr_det_mix":
        return pr_det_mix(rng)
    raise ValueError(kind)


SEEDED_STRATEGIES = 254  # raw strategies per resource; with the two winners, 256 canonical_strategy calls


def search_stream(seed: int, length: int = 2 * len(SEARCH_KINDS)) -> list[dict]:
    """Resources, each with raw strategy codes (0..32767) beside the search's winners."""
    rng = np.random.default_rng([seed, 1])
    return [
        {"kind": kind, "matrix": _search_box(rng, kind).tolist(),
         "codes": rng.integers(1 << 15, size=SEEDED_STRATEGIES).tolist()}
        for kind in _blocks(rng, SEARCH_KINDS, length)
    ]


# ---------------------------------------------------------------------------
# box_batch: 70 % valid, 10 % signaling, 10 % not row-stochastic,
# 10 % non-finite (half NaN, half +-inf).
# ---------------------------------------------------------------------------

# random_ns is listed twice: raw random boxes are the commonest valid input.
VALID_KINDS = ["isotropic", "p_eps", "p_eps_delta", "depolarized", "random_ns", "pr_det_mix", "random_ns"]
BOX_BLOCK = VALID_KINDS * 2 + ["signaling"] * 2 + ["row_sum", "negative", "nan", "inf"]


def _valid_box(rng: np.random.Generator, kind: str) -> np.ndarray:
    if kind == "isotropic":
        return isotropic(rng.uniform(0.0, 1.0))
    if kind == "p_eps":
        return p_eps_delta(rng.uniform(0.01, 1.0))
    if kind == "p_eps_delta":
        return p_eps_delta(rng.uniform(0.01, 1.0), rng.uniform(0.0, 1.0))
    if kind == "depolarized":
        return depolarized(rng)
    if kind == "random_ns":
        return random_ns(rng)
    if kind == "pr_det_mix":
        return pr_det_mix(rng)
    raise ValueError(kind)


def _signaling(rng: np.random.Generator) -> np.ndarray:
    """Random row-stochastic table whose marginals depend on the far input."""
    while True:
        m = rng.dirichlet(np.ones(4), size=4)
        a = m[:, 0] + m[:, 1]  # P(a=0|xy)
        b = m[:, 0] + m[:, 2]  # P(b=0|xy)
        if max(abs(a[0] - a[1]), abs(a[2] - a[3]), abs(b[0] - b[2]), abs(b[1] - b[3])) > 1e-2:
            return m


def _bad_box(rng: np.random.Generator, kind: str) -> tuple[str, np.ndarray]:
    """A box that must be rejected, with a label naming the defect's place."""
    m = random_ns(rng)
    r, c = int(rng.integers(4)), int(rng.integers(4))
    where = f"xy{r >> 1}{r & 1}/ab{c >> 1}{c & 1}"
    if kind == "signaling":
        return kind, _signaling(rng)
    if kind == "row_sum":
        m[r] *= 1.0 + rng.uniform(0.01, 0.5)
        return f"row_sum@xy{r >> 1}{r & 1}", m
    if kind == "negative":
        # Move mass from one cell to its neighbour past zero; the row sum stays 1.
        shift = m[r, c] + rng.uniform(0.01, 0.2)
        m[r, c] -= shift
        m[r, (c + 1) % 4] += shift
        return f"negative@{where}", m
    if kind == "nan":
        m[r, c] = np.nan
        return f"nan@{where}", m
    if kind == "inf":
        sign = rng.choice((-1.0, 1.0))
        m[r, c] = sign * np.inf
        return f"{'+' if sign > 0 else '-'}inf@{where}", m
    raise ValueError(kind)


def box_batch(seed: int, length: int = 100 * len(BOX_BLOCK)) -> list[dict]:
    """Box JSON texts; ``expect`` is "accept" or "reject"."""
    rng = np.random.default_rng([seed, 2])
    items = []
    for kind in _blocks(rng, BOX_BLOCK, length):
        if kind in VALID_KINDS:
            label, m, expect = kind, _valid_box(rng, kind), "accept"
        else:
            (label, m), expect = _bad_box(rng, kind), "reject"
        items.append({
            "kind": label,
            "expect": expect,
            # json.dumps writes NaN/Infinity literals, as a file could hold.
            "text": json.dumps({"matrix": m.tolist()}),
            "n": int(rng.integers(2, 17)),
            "m": int(rng.integers(1, 5)),
        })
    return items


# ---------------------------------------------------------------------------
# distill_sweep: resources for fixed-delta queries and reports. Fixed-delta
# queries are feasible for 0 < delta <= ~0.046 and infeasible at delta = 0
# and above; the ranges below keep a margin from that edge.
# ---------------------------------------------------------------------------

RESOURCE_BLOCK = ["feasible"] * 7 + ["infeasible_zero", "infeasible_high", "infeasible_high"]


def distill_sweep(seed: int, length: int = 20 * len(RESOURCE_BLOCK)) -> list[dict]:
    rng = np.random.default_rng([seed, 3])
    items = []
    for kind in _blocks(rng, RESOURCE_BLOCK, length):
        if kind == "feasible":
            delta = rng.uniform(0.002, 0.04)
        elif kind == "infeasible_zero":
            delta = 0.0
        else:
            delta = rng.uniform(0.06, 0.3)
        # The closed form is the NL of the composed box for delta <= eps <= 1 - delta.
        eps = rng.uniform(max(delta, 0.01), 1.0 - delta)
        items.append({"kind": kind, "eps": float(eps), "delta": float(delta)})
    return items


# ---------------------------------------------------------------------------
# cli_cold: light invocations ("op") and searches ("alt"). "{box}" in argv
# names the item's box file. Three of the twelve light kinds are bad files.
# ---------------------------------------------------------------------------

LIGHT_BLOCK = ["chsh_csv", "chsh_json", "quantum_json", "distill_csv", "distill_json", "game_eps",
               "game_box", "validate", "depolarize", "malformed", "signaling", "nan_literal"]


def _box_text(m: np.ndarray) -> str:
    return json.dumps({"matrix": m.tolist()})


def _cli_light(rng: np.random.Generator, kind: str) -> dict:
    box = _valid_box(rng, VALID_KINDS[int(rng.integers(len(VALID_KINDS)))])
    item = {"kind": kind, "cls": "op", "expect": [0], "wellformed": True, "box": _box_text(box)}
    if kind in ("chsh_csv", "chsh_json"):
        item["argv"] = ["chsh", "{box}", "--format", kind[5:]]
    elif kind == "quantum_json":
        item["argv"] = ["quantum", "{box}", "--format", "json"]
    elif kind in ("distill_csv", "distill_json"):
        delta = float(rng.uniform(0.0, 0.3))
        item["eps"], item["delta"] = float(rng.uniform(max(delta, 0.01), 1.0 - delta)), delta
        item["n_max"] = int(rng.integers(2, 11))
        item["argv"] = ["distill", "--eps", repr(item["eps"]), "--delta", repr(delta),
                        "--n", f"1..{item['n_max']}", "--format", kind[8:]]
    elif kind == "game_eps":
        item["eps"], item["m"] = float(rng.uniform(0.01, 1.0)), int(rng.integers(1, 5))
        item["argv"] = ["game", "--eps", repr(item["eps"]), "--m", str(item["m"]), "--format", "json"]
    elif kind == "game_box":
        item["m"] = int(rng.integers(1, 5))
        item["argv"] = ["game", "{box}", "--m", str(item["m"]), "--format", "json"]
    elif kind in ("validate", "depolarize"):
        item["argv"] = [kind, "{box}"]
    elif kind == "malformed":
        text = _box_text(box)
        item.update(box=text[: int(rng.integers(1, len(text) - 1))], expect=[2], wellformed=False,
                    argv=["chsh", "{box}"])
    elif kind == "signaling":
        item.update(box=_box_text(_signaling(rng)), expect=[1], wellformed=False,
                    argv=[str(rng.choice(["validate", "chsh", "quantum"])), "{box}"])
    elif kind == "nan_literal":
        # A NaN literal is both malformed JSON (2) and an invalid entry (1).
        label, m = _bad_box(rng, "nan")
        item.update(kind=f"nan_literal@{label[4:]}", box=_box_text(m), expect=[1, 2], wellformed=False,
                    argv=["chsh", "{box}", "--format", "json"])
    else:
        raise ValueError(kind)
    return item


def cli_cold(seed: int, lights: int = 2 * len(LIGHT_BLOCK), searches: int = 2) -> list[dict]:
    rng = np.random.default_rng([seed, 4])
    items = [_cli_light(rng, kind) for kind in _blocks(rng, LIGHT_BLOCK, lights)]
    for _ in range(searches):
        kind = SEARCH_KINDS[int(rng.integers(len(SEARCH_KINDS)))]
        items.append({"kind": f"search/{kind}", "cls": "alt", "expect": [0], "wellformed": True,
                      "box": _box_text(_search_box(rng, kind)), "argv": ["search", "{box}"]})
    return items
