"""nlboxes benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is the checkout's
``src/nlboxes``, byte-compiled before anything is timed. Inputs come from
``--seed`` alone and are made before timing starts. The last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``. The line before it holds the
details (environment, sample counts, tail percentiles, failures by input
kind, input-property shares); the same report and, for traced runs, the
spans are written under ``.bench_out/``. ``attempted`` and ``failed``
count inputs: a run goes through every seeded input at least once, and an
input fails when any operation on it fails. See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import select
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import clicold
import inputs
from common import (CLASS_KERNELS, SPAN_FIELDS, BenchError, Tracer, calibrated, environment,
                    kernel_time, layer_metrics, span_cost_s, speed_factor, summary)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Set-up is timed this many times per run and the median reported; the cold
# dedup makes search_stream's set-up too long for more.
SETUP_RUNS = {"search_stream": 3, "box_batch": 11, "distill_sweep": 11, "cli_cold": 11}
BUDGET_S = 170.0  # a run must end within 180 s

GENERATORS = {
    "search_stream": inputs.search_stream,
    "box_batch": inputs.box_batch,
    "distill_sweep": inputs.distill_sweep,
    "cli_cold": inputs.cli_cold,
}


def _remaining(started: float) -> float:
    left = BUDGET_S - (perf_counter() - started)
    if left <= 0:
        raise BenchError("run exceeded its time budget")
    return left


def _run_worker(workload: str, inputs_path: Path, result_path: Path, seconds: float, trace: int,
                started: float) -> tuple[list[tuple[float, float]], dict]:
    """Time fresh set-ups (the last one goes on to measure), each followed by its
    reference kernel; return (set-up, kernel) time pairs and the worker's result."""
    setup = []
    kernel = CLASS_KERNELS[workload]["setup"]
    for probe in [True] * (SETUP_RUNS[workload] - 1) + [False]:
        cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(inputs_path), str(result_path),
               str(seconds), str(trace)] + (["--probe"] if probe else [])
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], _remaining(started))
            line = proc.stdout.readline() if ready else ""
            if line.strip() != "ready":
                raise BenchError(f"{workload} worker did not finish set-up (exit {proc.poll()})")
            setup_s = perf_counter() - start
            code = proc.wait(timeout=_remaining(started))
            if code != 0:
                raise BenchError(f"{workload} worker exited with {code}")
            setup.append((setup_s, kernel_time(kernel, setup_s)))
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    with open(result_path, encoding="utf-8") as fh:
        return setup, json.load(fh)


def _metric_names() -> tuple[dict, dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _calibrated_ms(workload: str, result: dict) -> dict[str, list[float]]:
    """Calibrated latencies of each operation class, in ms."""
    kernels, refs, timings = CLASS_KERNELS[workload], result["refs"], result["timings"]
    if len(timings["op"]) < 2 or not timings["alt"]:
        raise BenchError(f"too few operations measured: {len(timings['op'])} op, {len(timings['alt'])} alt")
    missing = [cls for cls in ("op", "alt") if not refs.get(kernels[cls])]
    if missing:
        raise BenchError(f"no reference-kernel times for {missing}")
    return {cls: [v * 1e3 for v in calibrated(kernels[cls], timings[cls], refs[kernels[cls]])]
            for cls in ("op", "alt")}


def _end_to_end(workload: str, setup: list[tuple[float, float]], result: dict, ok_share: float) -> tuple[dict, dict]:
    """Calibrated end-to-end metrics, and details with the raw figures behind them."""
    cal = _calibrated_ms(workload, result)
    kernels = CLASS_KERNELS[workload]
    values = {
        "setup_s": statistics.median(s * speed_factor(kernels["setup"], [k]) for s, k in setup),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_share": ok_share,
        "op_p50_ms": statistics.median(cal["op"]),
        "ops_per_s": 1e3 / statistics.fmean(cal["op"]),
        "alt_p50_ms": statistics.median(cal["alt"]),
    }
    details = {"ms": {cls: summary(v) for cls, v in cal.items()},
               "raw_ms": {cls: summary([t * 1e3 for t, _ in result["timings"][cls]]) for cls in ("op", "alt")},
               "run_speed_factor": {cls: speed_factor(kernels[cls], result["refs"][kernels[cls]])
                                    for cls in ("op", "alt")},
               "setup_raw_s": [s for s, _ in setup],
               "reference_kernel_s": {k: statistics.median(v) for k, v in result["refs"].items()}}
    return values, details


def _per_layer(workload: str, result: dict, names: dict) -> dict:
    layers = dict(result.get("layers", {}))
    layers.update({k: v for k, v in result["counters"].items() if k in names})
    # Calibrated like op_p50_ms, so that the two runs' difference is the tracing overhead.
    op = summary(_calibrated_ms(workload, result)["op"])
    layers["trace.op_p50_ms"] = op["p50"]
    layers["trace.op_tail_ms"] = op["tail"]["value"]
    return {name: layers.get(name, 0) for name in names}


def _by_input(records: list[dict]) -> list[dict]:
    """One record per (class, input): the first failed operation on it, else its first operation."""
    first: dict[tuple, dict] = {}
    for r in records:
        key = (r["cls"], str(r["input"]))
        if key not in first or (first[key]["failure"] is None and r["failure"] is not None):
            first[key] = r
    return list(first.values())


def _trace_counters(spans: list[tuple], records: list[dict], cost_s: float) -> dict:
    """Span count and the estimated share of measured time spent recording spans."""
    op_roots = {s[1] for s in spans if s[2] == 0 and s[3].startswith("op.")}
    in_ops = sum(1 for s in spans if s[2] in op_roots)
    busy = sum(r["latency"] for r in records)
    return {"trace.spans": len(spans), "trace.span_cost_us": cost_s * 1e6,
            "trace.overhead_share": in_ops * cost_s / busy if busy else 0.0}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()
    # A terminated run still stops its children, through the finally blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (SRC / "nlboxes" / "__init__.py").is_file():
        print(f"no nlboxes sources under {SRC}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(SRC / "nlboxes"), quiet=1):
        print("byte-compiling nlboxes failed", file=sys.stderr)
        return 2
    e2e_names, layer_names = _metric_names()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    items = GENERATORS[args.workload](args.seed)

    try:
        if args.workload == "cli_cold":
            tracer = Tracer(args.trace == 1)
            env = dict(os.environ, PYTHONPATH=str(SRC))
            result = clicold.run(ROOT, items, args.seconds, tracer, OUT / f"boxes-{tag}", env,
                                 SETUP_RUNS["cli_cold"])
            setup = result["setup_s"]
            result["env"] = environment()
            if tracer.enabled:
                result["layers"] = layer_metrics(tracer.spans)
                result["span_cost_s"] = span_cost_s()
                result["spans"] = tracer.spans
        else:
            inputs_path = OUT / f"inputs-{tag}.json"
            with open(inputs_path, "w", encoding="utf-8") as fh:
                json.dump(items, fh)
            result_path = OUT / f"result-{tag}.json"
            try:
                setup, result = _run_worker(args.workload, inputs_path, result_path, args.seconds,
                                            args.trace, started)
            finally:
                inputs_path.unlink(missing_ok=True)
                result_path.unlink(missing_ok=True)
        records = result["records"]
        inputs_run = _by_input(records)
        failures = Counter(r["kind"] for r in inputs_run if r["failure"] is not None)
        failed = sum(failures.values())
        e2e, details = _end_to_end(args.workload, setup, result, 1.0 - failed / len(inputs_run))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    examples = {}
    for r in inputs_run:
        if r["failure"] is not None:
            examples.setdefault(r["kind"], r["failure"])
    details.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": result["env"],
        "failed_share": failed / len(inputs_run),
        "failures_by_kind": {k: {"count": n, "example": examples[k]} for k, n in sorted(failures.items())},
        "operations": len(records),
        "failed_operations": sum(r["failure"] is not None for r in records),
        "counters": result["counters"],
    })
    if args.trace:
        spans = result.pop("spans")
        result["counters"].update(_trace_counters(spans, records, result["span_cost_s"]))
        with open(OUT / f"spans-{tag}.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": spans}, fh)
        metrics = {k: {"value": v, "unit": layer_names[k]} for k, v in _per_layer(args.workload, result, layer_names).items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in e2e_names.items()}
    with open(OUT / f"report-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(dict(details, metrics=metrics, records=records, timings=result["timings"],
                       refs=result["refs"]), fh)

    line = {
        "correct": all(r["failure"] is None for r in records if r["wellformed"]),
        "attempted": len(inputs_run),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(details))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
