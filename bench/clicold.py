"""The cli_cold workload: one fresh ``nlboxes`` process per invocation.

Invocations run one after another from the runner's process. Their
outputs are checked after the measured window against the library run in
this process, so that no check competes with a child for the CPU. Each
light invocation is followed by its own reference-kernel run: process
start-up is the noisiest work on a shared machine, and a kernel timed
right after each sample tracks it best.
"""

from __future__ import annotations

import json
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from common import CLASS_KERNELS, BenchError, Calibrator, Tracer, import_nlboxes, kernel_time

REF_EVERY_S = {"op": 0.0, "alt": 1.0}

CLI = "import sys; from nlboxes.cli import main; sys.argv[0] = 'nlboxes'; main()"
IMPORT = "import nlboxes"
CHILD_TIMEOUT_S = 60.0


def _child(args: list[str], env: dict, cwd: Path) -> tuple[int, str, str, float, float]:
    """Run one child interpreter; returns (exit code, stdout, stderr, start, end)."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, cwd=cwd)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args[2:]} did not finish in {CHILD_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    return proc.returncode, out, err, start, perf_counter()


def run(root: Path, items: list[dict], seconds: float, tracer: Tracer, box_dir: Path, env: dict,
        setup_runs: int) -> dict:
    """Run the workload and check it; returns the same fields a worker writes."""
    box_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(root, items, seconds, tracer, box_dir, env, setup_runs)
    finally:
        shutil.rmtree(box_dir, ignore_errors=True)


def _run(root: Path, items: list[dict], seconds: float, tracer: Tracer, box_dir: Path, env: dict,
         setup_runs: int) -> dict:
    argvs = []
    for i, item in enumerate(items):
        path = box_dir / f"{i:04d}.json"
        path.write_text(item["box"], encoding="utf-8")
        argvs.append([str(path) if a == "{box}" else a for a in item["argv"]])

    kernels = CLASS_KERNELS["cli_cold"]
    setup = []
    with tracer.root("setup"):
        for _ in range(setup_runs):
            code, _, err, start, end = _child(["-c", IMPORT], env, root)
            if code != 0:
                raise BenchError(f"import nlboxes failed: {err.strip()}")
            tracer.child("cli.import", start, end)
            setup.append((end - start, kernel_time(kernels["setup"], end - start)))

    # Light invocations fill the first half of the window and searches the
    # second, so each class is sampled continuously rather than in bursts.
    # Either class goes on past its half until each of its inputs has run.
    queues = {cls: [i for i, item in enumerate(items) if item["cls"] == cls] for cls in ("op", "alt")}
    done: dict[str, set[int]] = {"op": set(), "alt": set()}
    runs = []
    calibrator = Calibrator(kernels, REF_EVERY_S)
    window_start = perf_counter()
    halfway, deadline = window_start + seconds / 2, window_start + seconds
    count = {"op": 0, "alt": 0}
    while perf_counter() < deadline or any(len(done[c]) < len(queues[c]) for c in queues):
        cls = "op" if perf_counter() < halfway or len(done["op"]) < len(queues["op"]) else "alt"
        index = queues[cls][count[cls] % len(queues[cls])]
        count[cls] += 1
        done[cls].add(index)
        argv = argvs[index]
        with tracer.root("op.cli") as op_id:
            code, out, err, start, end = _child(["-c", CLI, *argv], env, root)
            tracer.child(f"cli.run.{argv[0]}", start, end)
        runs.append((op_id, index, code, out, err, end - start))
        calibrator.add(cls, end - start)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    nb = import_nlboxes(root / "src")

    records = []
    expected: dict[int, object] = {}  # the library's answer per input, computed once
    searches = rejected = 0
    for op_id, index, code, out, err, latency in runs:
        item = items[index]
        with tracer.root("check", op_id):
            problems = _check(nb, item, code, out, err, expected, index)
        searches += item["cls"] == "alt"
        rejected += code != 0
        records.append({"cls": item["cls"], "input": index, "kind": item["kind"], "latency": latency,
                        "failure": "; ".join(problems) or None, "wellformed": item["wellformed"]})
    return {
        "records": records,
        "timings": calibrator.timings,
        "setup_s": setup,
        "refs": calibrator.samples,
        "peak_rss_mb": peak_rss_mb,
        "counters": {"searches": searches, "rejected": rejected, "invocations": len(runs)},
    }


def _check(nb, item: dict, code: int, out: str, err: str, expected: dict, index: int) -> list[str]:
    problems = []
    if code not in item["expect"]:
        problems.append(f"exit code {code}, expected {item['expect']}")
    if "Traceback" in err:
        problems.append("traceback on stderr")
    if problems or not item["wellformed"] or item["kind"] == "validate":
        return problems
    if index not in expected:
        try:
            expected[index] = _expected(nb, item)
        except Exception as exc:  # the in-process library failed where the CLI did not
            return [f"in-process library raised {exc!r}"]
    kind = item["kind"]
    if kind.endswith("_csv"):
        got = out
    elif kind == "depolarize":
        got = nb.Box.from_json(out).matrix.tolist()
    else:
        got = json.loads(out)
        if kind.startswith("search/"):
            got.pop("wall_time_s", None)
    if got != expected[index]:
        problems.append(f"output differs from the library: {str(got)[:200]} != {str(expected[index])[:200]}")
    return problems


def _expected(nb, item: dict):
    """The library's answer for a well-formed invocation, in the CLI's output form."""
    kind = item["kind"]
    box = nb.Box.from_json(item["box"])
    if kind.startswith("search/"):
        expected = nb.search_2copy(box).to_json_dict()
        expected.pop("wall_time_s")
        return expected
    if kind == "chsh_csv":
        return nb.chsh_csv(box)
    if kind == "chsh_json":
        c = nb.correlators(box)
        return {"correlators": list(c.as_tuple()), "chsh": dict(zip(nb.CHSH_LABELS, nb.chsh_values(c))),
                "nl": nb.nl(box)}
    if kind == "quantum_json":
        v = nb.is_quantum_box(box)
        return {"quantum": v.quantum, "slack": v.slack, "tsirelson_ok": nb.tsirelson_check(nb.correlators(box)),
                "correlator_level_only": v.correlator_level_only}
    if kind.startswith("distill_"):
        report = nb.distillation_report(item["eps"], item["delta"], range(1, item["n_max"] + 1))
        return report.to_csv() if kind == "distill_csv" else report.to_json_dict()
    if kind == "game_eps":
        return nb.play_and_game(nb.p_eps(item["eps"]), item["m"]).to_json_dict()
    if kind == "game_box":
        return nb.play_and_game(box, item["m"]).to_json_dict()
    if kind == "depolarize":
        return nb.depolarize(box).matrix.tolist()
    raise ValueError(kind)
