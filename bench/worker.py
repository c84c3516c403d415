"""One fresh interpreter running an in-process workload.

    python3 bench/worker.py WORKLOAD INPUTS.json RESULT.json SECONDS TRACE [--probe]

The worker loads its seeded inputs, imports nlboxes from the checkout's
``src`` and does the workload's set-up, then prints ``ready`` so that the
runner can time set-up from process start. With ``--probe`` it exits
there. Otherwise it runs operations one after another (a closed loop with
one client) until SECONDS have passed, checks every result, and writes
its records, counters, spans and peak RSS to RESULT.json.

An operation is one record: its class ("op" for the workload's unit
operation, "alt" for its second operation), the input it ran on, the
input kind, the latency, and a failure message or None. ``wellformed`` is
False for inputs whose correct result is a rejection; see README.md for
how that enters ``correct``. The loop goes on past SECONDS until every
input has run at least once. The latencies the metrics use are kept per
class in ``timings``, each with the index of the reference-kernel time in
``refs`` that calibrates it.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from common import (CLASS_KERNELS, Calibrator, Tracer, environment, import_nlboxes, layer_metrics,
                    span_cost_s)
from inputs import BOX_BLOCK

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TOL = 1e-9
ONE_PLUS_SQRT2 = 1.0 + math.sqrt(2.0)
PAIR_SCANS = 3  # seeded strategies whose pair-scan rows are checked, per resource


def _failure(problems: list[str]) -> str | None:
    return "; ".join(problems) or None


class Workload:
    halfway = 0.0  # perf_counter() at the middle of the measured window

    def __init__(self, nb, tracer: Tracer, kernels: dict[str, str]):
        self.nb = nb
        self.t = tracer
        self.calibrator = Calibrator(kernels)
        self.records: list[dict] = []
        self.counters: dict[str, float] = {}
        self.inputs: set = set()  # inputs run so far

    def setup(self) -> None:
        pass

    def covered(self, items: list[dict]) -> bool:
        """Whether every input has run at least once."""
        return len(self.inputs) >= len(items)

    def _record(self, cls: str, input_id, kind: str, latency: float, problems: list[str],
                wellformed: bool = True):
        """Keep one operation and time its class."""
        self.inputs.add(input_id)
        self.records.append({"cls": cls, "input": input_id, "kind": kind, "latency": latency,
                             "failure": _failure(problems), "wellformed": wellformed})
        self._time(cls, latency)

    def _time(self, cls: str, latency: float) -> None:
        self.calibrator.add(cls, latency)

    def _count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value


class SearchStream(Workload):
    """search_2copy per resource as "op"; canonical_strategy over 256 strategies as "alt"."""

    def setup(self) -> None:
        with self.t.root("setup"):
            self.classes = self.t.call("search.behavior_class_count", self.nb.behavior_class_count)

    def run(self, index: int, item: dict) -> None:
        nb, t = self.nb, self.t
        box = nb.Box(item["matrix"])
        kind = item["kind"]
        with t.root("op.search") as op_id:
            start = perf_counter()
            try:
                result, error = t.call("search.search_2copy", nb.search_2copy, box), None
            except Exception as exc:  # recorded as a failed operation
                result, error = None, exc
            latency = perf_counter() - start
        if error is not None:
            self._record("op", index, kind, latency, [f"raised {error!r}"])
            return
        seeded = [nb.AdaptiveStrategy.decode(c) for c in item["codes"]]
        winners = [result.wiring.alice, result.wiring.bob]
        with t.root("op.canonical_strategy") as alt_id:
            start = perf_counter()
            canon = [t.call("search.canonical_strategy", nb.canonical_strategy, s) for s in winners + seeded]
            alt_latency = perf_counter() - start
        with t.root("check", op_id):
            problems = self._check(box, kind, result, seeded[:PAIR_SCANS])
            fixed = t.call("symmetry.depolarize", nb.depolarize, box)
            if float(abs(fixed.matrix - box.matrix).max()) <= 1e-12:
                self._count("depolarize_fixed")
        with t.root("check", alt_id):
            alt_problems = [p for i, (s, got) in enumerate(zip(winners + seeded, canon))
                            for p in self._check_canonical(s, got, i < len(winners))]
        self._record("op", index, kind, latency, problems)
        self._record("alt", index, kind, alt_latency, alt_problems)
        self._count("searches")
        self._count("distilled", int(result.distilled))

    def _check(self, box, kind, result, seeded) -> list[str]:
        nb, t = self.nb, self.t
        problems = []
        if not result.nl_in - TOL <= result.nl_out <= 4.0 + TOL:
            problems.append(f"nl_out {result.nl_out!r} outside [nl_in {result.nl_in!r}, 4]")
        xor2 = t.call("boxes.nl", nb.nl, t.call("wiring.compose_xor", nb.compose_xor, box, 2))
        if result.nl_out < xor2 - TOL:
            problems.append(f"nl_out {result.nl_out!r} below two-copy XOR {xor2!r}")
        again = t.call("boxes.nl", nb.nl, t.call("wiring.compose_wiring2", nb.compose_wiring2, box, result.wiring))
        if abs(again - result.nl_out) > TOL:
            problems.append(f"recomposed wiring gives {again!r}, search said {result.nl_out!r}")
        # The winner's pair-scan row reaches the optimum; no seeded strategy's row beats it.
        for i, alice in enumerate([result.wiring.alice] + seeded):
            best = float(t.call("search.pair_nl_values", nb.search.pair_nl_values, box, alice).max())
            if best > result.nl_out + TOL or (i == 0 and best < result.nl_out - TOL):
                problems.append(f"pair row max {best!r} inconsistent with nl_out {result.nl_out!r}")
        if kind in ("isotropic", "depolarized") and result.nl_out > result.nl_in + TOL:
            problems.append(f"isotropic-line input gained: {result.nl_in!r} -> {result.nl_out!r}")
        if kind == "p_eps_distillable" and not result.distilled:
            problems.append(f"distillable p_eps not distilled: {result.nl_in!r} -> {result.nl_out!r}")
        if result.strategies_deduped != self.classes:
            problems.append(f"class count {result.strategies_deduped} != {self.classes}")
        return problems

    def _check_canonical(self, strategy, got, representative: bool) -> list[str]:
        """A search winner is its own class representative; any result is a fixed point in the same class."""
        nb = self.nb
        if representative and got.encode() != strategy.encode():
            return [f"canonical_strategy moved a representative: {strategy.encode()} -> {got.encode()}"]
        if nb.canonical_strategy(got).encode() != got.encode() or nb.behavior_key(got) != nb.behavior_key(strategy):
            return [f"canonical_strategy({strategy.encode()}) = {got.encode()} is not its class representative"]
        return []

    def finish(self) -> None:
        n = self.counters.get("searches", 0)
        self.counters["search.classes"] = self.classes
        self.counters["search.pairs_per_search"] = self.classes ** 2
        self.counters["search.distilled_share"] = self.counters.get("distilled", 0) / n if n else 0.0
        self.counters["symmetry.depolarize_fixed_share"] = self.counters.get("depolarize_fixed", 0) / n if n else 0.0


class BoxBatch(Workload):
    """Per-box scalar path; inputs that must be rejected ride in the same stream.

    An "op" timing is the mean per-box latency over one block of the
    stream, whose mix of input kinds is fixed, so that its median does not
    hinge on where it falls between the fast rejections and the full path.
    An "alt" timing is the mean latency of the block's boxes that must be
    rejected.
    """

    _block: list[float]
    _rejects: list[float]

    def _time(self, cls: str, latency: float) -> None:
        self._block.append(latency)
        if len(self._block) == len(BOX_BLOCK):
            self.calibrator.add("op", statistics.fmean(self._block))
            self.calibrator.add("alt", statistics.fmean(self._rejects))
            self._block, self._rejects = [], []

    def setup(self) -> None:
        self._block, self._rejects = [], []
        nb = self.nb
        warm = nb.pr()  # fills the relabeling and classical-optimum caches
        nb.canonical_form(warm)
        nb.depolarize(warm)
        nb.play_and_game(warm)

    def _pipeline(self, item: dict):
        """("rejected", None) where a clean rejection happens, else ("accepted", results)."""
        nb, t = self.nb, self.t
        try:
            box = t.call("boxes.from_json", nb.Box.from_json, item["text"])
        except ValueError:  # malformed JSON or a table of the wrong shape
            return "rejected", None
        report = t.call("boxes.validate", nb.validate, box)
        if not report.ok:
            return "rejected", None
        ns = t.call("boxes.is_non_signaling", nb.is_non_signaling, box)
        if not ns.ok:
            return "rejected", None
        value = t.call("boxes.nl", nb.nl, box)
        verdict = t.call("quantum.is_quantum_box", nb.is_quantum_box, box)
        corr = t.call("boxes.correlators", nb.correlators, box)
        tsirelson = t.call("quantum.tsirelson_check", nb.tsirelson_check, corr)
        t.call("symmetry.depolarize", nb.depolarize, box)
        t.call("symmetry.canonical_form", nb.canonical_form, box)
        composed = t.call("wiring.compose_xor", nb.compose_xor, box, item["n"])
        game = t.call("games.play_and_game", nb.play_and_game, box, item["m"])
        return "accepted", (box, value, verdict, tsirelson, composed, game)

    def run(self, index: int, item: dict) -> None:
        t = self.t
        wellformed = item["expect"] == "accept"
        with t.root("op.box") as op_id:
            start = perf_counter()
            try:
                outcome, out = self._pipeline(item)
            except Exception as exc:  # recorded as a failed operation
                outcome, out = "raised", exc
            latency = perf_counter() - start
        problems = []
        if outcome == "raised":
            problems.append(f"raised {out!r}")
        elif outcome == "rejected":
            self._count("rejected")
            if wellformed:
                problems.append("rejected a valid non-signaling box")
        elif not wellformed:
            problems.append("accepted a box that must be rejected")
        else:
            with t.root("check", op_id):
                problems = self._check(item, *out)
        self._count("boxes")
        if not wellformed:
            self._rejects.append(latency)
        self._record("op", index, item["kind"], latency, problems, wellformed)

    def _check(self, item, box, value, verdict, tsirelson, composed, game) -> list[str]:
        nb, t = self.nb, self.t
        problems = []
        if not 0.0 <= value <= 4.0 + TOL:
            problems.append(f"nl {value!r} outside [0, 4]")
        if verdict.quantum and not tsirelson:
            problems.append("quantum box above the Tsirelson bound")
        law = nb.xor_correlator_law(box, item["n"]).as_tuple()
        got = t.call("boxes.correlators", nb.correlators, composed).as_tuple()
        if max(abs(a - b) for a, b in zip(law, got)) > TOL:
            problems.append(f"compose_xor n={item['n']} correlators {got!r} != law {law!r}")
        closed = nb.and_game_success_closed(nb.AndGameStrategy(box, item["m"]))
        if abs(closed - game.success) > TOL:
            problems.append(f"AND game m={item['m']} success {game.success!r} != closed form {closed!r}")
        return problems

    def finish(self) -> None:
        n = self.counters.get("boxes", 0)
        self.counters["boxes.reject_share"] = self.counters.get("rejected", 0) / n if n else 0.0


class DistillSweep(Workload):
    """Resource queries (fixed-delta optimum plus report) as "op"; the default optimizer as "alt".

    Resources fill the first half of the window and optimizer runs the
    second, so each class is sampled continuously rather than in bursts.
    A resource not yet run when the second half starts runs when its turn
    comes. The default optimizer counts as one more input.
    """

    REPORT_N = range(1, 17)

    def setup(self) -> None:
        self.gaps: list[float] = []

    def covered(self, items: list[dict]) -> bool:
        return len(self.inputs) >= len(items) + 1

    def run(self, index: int, item: dict) -> None:
        if perf_counter() < self.halfway or index not in self.inputs:
            self._resource(index, item)
        else:
            self._optimize()

    def _optimize(self) -> None:
        nb, t = self.nb, self.t
        with t.root("op.optimize") as op_id:
            start = perf_counter()
            try:
                opt, error = t.call("distill.optimize_quantum_distillation.free",
                                    nb.optimize_quantum_distillation, n_max=20), None
            except Exception as exc:  # recorded as a failed operation
                opt, error = None, exc
            latency = perf_counter() - start
        if error is not None:
            self._record("alt", "default", "default", latency, [f"raised {error!r}"])
            return
        with t.root("check", op_id):
            gap = abs(opt.nl_out - ONE_PLUS_SQRT2)
            self.gaps.append(gap)
            problems = self._check_point(opt)
            if gap > 1e-6:
                problems.append(f"optimize_gap {gap!r} > 1e-6")
        self._record("alt", "default", "default", latency, problems)

    def _check_point(self, opt) -> list[str]:
        nb = self.nb
        d, e = 1.0 - 2.0 * opt.delta, 1.0 - 2.0 * opt.eps
        quantum, _ = nb.is_quantum_correlators(nb.Correlators(d, d, d, e))
        problems = [] if quantum else [f"optimum ({opt.eps!r}, {opt.delta!r}) is not quantum"]
        if abs(opt.nl_out - (3.0 * d ** opt.n - e ** opt.n)) > TOL or opt.nl_out <= opt.nl_in:
            problems.append(f"optimum value {opt.nl_out!r} inconsistent at n={opt.n}")
        if opt.nl_out > ONE_PLUS_SQRT2 + 1e-9:
            problems.append(f"optimum {opt.nl_out!r} above 1 + sqrt(2)")
        return problems

    def _resource(self, index: int, item: dict) -> None:
        nb, t = self.nb, self.t
        eps, delta, kind = item["eps"], item["delta"], item["kind"]
        with t.root("op.resource") as op_id:
            start = perf_counter()
            try:
                try:
                    opt = t.call("distill.optimize_quantum_distillation.fixed_delta",
                                 nb.optimize_quantum_distillation, fixed_delta=delta)
                except nb.InfeasibleRegionError:
                    opt = None
                report = t.call("distill.distillation_report", nb.distillation_report, eps, delta, self.REPORT_N)
                error = None
            except Exception as exc:  # recorded as a failed operation
                error = exc
            latency = perf_counter() - start
        self._count("resources")
        if error is not None:
            self._record("op", index, kind, latency, [f"raised {error!r}"])
            return
        with t.root("check", op_id):
            problems = []
            if (opt is None) != kind.startswith("infeasible"):
                problems.append(f"fixed_delta={delta!r} feasibility wrong: got {'infeasible' if opt is None else 'feasible'}")
            if opt is not None:
                self._count("feasible")
                problems += self._check_point(opt)
                if opt.delta != delta:
                    problems.append(f"fixed-delta optimum moved delta to {opt.delta!r}")
            d, e = 1.0 - 2.0 * delta, 1.0 - 2.0 * eps
            if [row.n for row in report.rows] != list(self.REPORT_N):
                problems.append("report rows do not cover n = 1..16")
            for row in report.rows:
                if abs(row.nl_brute - (3.0 * d ** row.n - e ** row.n)) > TOL:
                    problems.append(f"report n={row.n} NL {row.nl_brute!r} off the XOR curve")
        self._record("op", index, kind, latency, problems)

    def finish(self) -> None:
        n = self.counters.get("resources", 0)
        self.counters["distill.feasible_share"] = self.counters.get("feasible", 0) / n if n else 0.0
        if self.gaps:
            self.counters["distill.optimize_gap"] = statistics.median(self.gaps)


WORKLOADS = {"search_stream": SearchStream, "box_batch": BoxBatch, "distill_sweep": DistillSweep}


def main(argv: list[str]) -> int:
    workload, inputs_path, result_path, seconds, trace = argv[:5]
    probe = "--probe" in argv[5:]
    with open(inputs_path, encoding="utf-8") as fh:
        items = json.load(fh)
    nb = import_nlboxes(SRC)
    tracer = Tracer(trace == "1")
    wl = WORKLOADS[workload](nb, tracer, CLASS_KERNELS[workload])
    wl.setup()
    print("ready", flush=True)
    if probe:
        return 0

    start = perf_counter()
    wl.halfway, deadline = start + float(seconds) / 2, start + float(seconds)
    index = 0
    while perf_counter() < deadline or not wl.covered(items):
        wl.run(index % len(items), items[index % len(items)])
        index += 1
    wl.finish()

    result = {
        "records": wl.records,
        "timings": wl.calibrator.timings,
        "counters": wl.counters,
        "refs": wl.calibrator.samples,
        "env": environment(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer.enabled:
        result["layers"] = layer_metrics(tracer.spans)
        result["span_cost_s"] = span_cost_s()
        result["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
