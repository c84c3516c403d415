"""End-to-end CLI behavior: commands, formats, exit codes, round-trips."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import nlboxes as nb
from nlboxes import boxes, cli
from nlboxes.cli import run
from conftest import TOL_0_BOXES


@pytest.fixture
def pr_file(tmp_path):
    path = tmp_path / "pr.json"
    path.write_text(nb.pr().to_json())
    return str(path)


@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(
        '{"matrix": [[0.5, 0.5, 0.5, -0.5], [0.25, 0.25, 0.25, 0.25],'
        ' [0.25, 0.25, 0.25, 0.25], [0.25, 0.25, 0.25, 0.25]]}'
    )
    return str(path)


def test_validate_ok(pr_file, capsys):
    assert run(["validate", pr_file]) == 0
    out = capsys.readouterr().out
    assert "non-signaling: yes" in out


def test_validate_broken_exits_one(broken_file, capsys):
    assert run(["validate", broken_file]) == 1
    assert "negative entry" in capsys.readouterr().out


def test_validate_signaling_exits_one(tmp_path, capsys):
    path = tmp_path / "sig.json"
    box = nb.Box(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.25, 0.25, 0.25, 0.25],
            [0.25, 0.25, 0.25, 0.25],
        ]
    )
    path.write_text(box.to_json())
    assert run(["validate", str(path)]) == 1
    assert "non-signaling: NO" in capsys.readouterr().out


def test_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"matrix": [[0.5,')
    assert run(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_missing_file_exits_two(capsys):
    assert run(["validate", "/nonexistent/box.json"]) == 2


def test_usage_error_exits_two():
    assert run(["no-such-command"]) == 2
    assert run(["distill", "--eps", "0.1", "--n", "bogus"]) == 2


def test_chsh_table_and_csv(pr_file, capsys):
    assert run(["chsh", pr_file]) == 0
    out = capsys.readouterr().out
    assert "NL: 4" in out
    assert run(["chsh", pr_file, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    header, row = out.strip().split("\n")
    assert header.startswith("x00,x01,x10,x11,chsh00")
    assert [float(v) for v in row.split(",")][:4] == [1.0, 1.0, 1.0, -1.0]


def test_quantum_correlators_flag(capsys):
    assert run(["quantum", "--correlators", "1,1,1,0.8", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["quantum"] is False
    assert payload["tsirelson_ok"] is True


def test_quantum_box_file(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(nb.p_eps_delta(0.01, 0.002).to_json())
    assert run(["quantum", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["quantum"] is True
    assert payload["correlator_level_only"] is False


def test_quantum_without_input_exits_two(capsys):
    assert run(["quantum"]) == 2


def test_distill_csv_matches_closed_form(capsys):
    assert run(["distill", "--eps", "0.1", "--n", "1..5", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "n,eps,delta,nl_in,nl_out,quantum,distillable"
    assert len(lines) == 6
    for line in lines[1:]:
        fields = line.split(",")
        n = int(fields[0])
        assert float(fields[4]) == pytest.approx(3.0 - 0.8**n, abs=1e-9)


def test_distill_depth_cap(capsys):
    assert run(["distill", "--eps", "0.1", "--n", "1..16", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["n"] for row in rows] == list(range(1, 17))
    for bad in ("1..17", "0..3", "17", "1..1000000000000"):
        started = time.perf_counter()
        assert run(["distill", "--eps", "0.1", "--n", bad]) == 2
        assert time.perf_counter() - started < 1.0  # the range is checked as read, never listed
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "n must be in 1..16" in captured.err
    for gone in (["--max-n", "12"], ["--family", "eps"]):
        assert run(["distill", "--eps", "0.1", "--n", "1..3", *gone]) == 2


@pytest.mark.parametrize(
    "argv, calls",
    [
        (["validate", "{box}"], 2),
        (["chsh", "{box}"], 1),
        (["chsh", "{box}", "--format", "csv"], 1),
        (["chsh", "{box}", "--format", "json"], 1),
        (["quantum", "{box}"], 1),
        (["depolarize", "{box}"], 1),
        (["game", "{box}"], 1),
        (["game", "{box}", "--m", "3"], 1),
        (["search", "{box}"], 2),  # entry check, then the composite's output check
        (["distill", "--eps", "0.1", "--n", "1..5"], 1),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
)
def test_validate_calls_per_command(argv, calls, tmp_path, monkeypatch, capsys):
    path = tmp_path / "p_eps.json"
    path.write_text(nb.p_eps(0.1).to_json())
    seen = []
    original = boxes.validate

    def counted(box, tol=nb.DEFAULT_TOL):
        seen.append(box)
        return original(box, tol)

    monkeypatch.setattr(boxes, "validate", counted)
    monkeypatch.setattr(cli, "validate", counted)
    assert run([str(path) if a == "{box}" else a for a in argv]) == 0
    assert len(seen) == calls


def test_distill_rejects_bad_params(capsys):
    assert run(["distill", "--eps", "1.5", "--n", "1..3"]) == 2


@pytest.mark.parametrize("eps, delta", [("0.2", "0.3"), ("0.95", "0.1")])
def test_distill_outside_closed_form_regime_exits_two(eps, delta, capsys):
    assert run(["distill", "--eps", eps, "--delta", delta, "--n", "1..3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"the XOR closed form holds only for delta <= eps <= 1 - delta, got eps={eps}, delta={delta}"
    ]


def test_optimize_json(capsys):
    assert run(["optimize", "--n-max", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 2
    assert payload["nl_out"] == pytest.approx(2.4142136, abs=1e-4)


def test_search_table_shows_phases_under_wall_time(tmp_path, capsys):
    path = tmp_path / "box.json"
    path.write_text(nb.p_eps(0.1).to_json())
    assert run(["search", str(path), "--format", "table"]) == 0
    lines = capsys.readouterr().out.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("wall time:"))
    # Times in milliseconds to 3 significant digits, so a ~1 ms phase does not read 0.
    num = r"([0-9]+(?:\.[0-9]+)?(?:e[+-][0-9]+)?)"
    wall = re.fullmatch(rf"wall time: {num} ms", lines[at])
    phases = re.fullmatch(rf"  kernel {num} ms, scan {num} ms, verify {num} ms", lines[at + 1])
    assert wall and phases, lines[at:at + 2]
    for text in wall.groups() + phases.groups():
        assert f"{float(text):.3g}" == text and float(text) > 0
    assert "797 Alice rows x 6212 Bob classes = 4950964 pairs" in lines[at + 2]


@pytest.mark.parametrize(
    "box, verdict",
    [(nb.noise(), "NL_out 2 (no gain)"), (nb.p_eps(0.1), "NL_out 2.36 (distilled)")],
    ids=["noise", "p_eps(0.1)"],
)
def test_search_table_verdict(box, verdict, tmp_path, capsys):
    path = tmp_path / "box.json"
    path.write_text(box.to_json())
    assert run(["search", str(path), "--format", "table"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == verdict


def test_python_dash_m_runs_the_cli(tmp_path):
    path = tmp_path / "box.json"
    path.write_text(nb.p_eps(0.1).to_json())
    env = dict(os.environ, PYTHONPATH=str(Path(nb.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "nlboxes", "search", str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["nl_out"] == pytest.approx(2.36, abs=1e-9)


def test_validate_reports_an_overflowing_row_sum_with_nothing_on_stderr(tmp_path):
    # A numpy sum of the first row overflows and warns on stderr.
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"matrix": [[1e308, 1e308, 0, 0]] + [[0.25] * 4] * 3}))
    env = dict(os.environ, PYTHONPATH=str(Path(nb.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "nlboxes", "validate", str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 1
    assert done.stdout.splitlines() == [
        "invalid box:",
        "row xy=00 col ab=00: entry exceeds 1 (residual 1e+308)",
        "row xy=00 col ab=01: entry exceeds 1 (residual 1e+308)",
        "row xy=00: row sum != 1 (residual inf)",
    ]
    assert done.stderr == ""


@pytest.mark.parametrize("command, stdout, stderr", [
    ("validate", "rows: valid probability distributions (tol 1e+308)\n"
                 "non-signaling: NO (worst marginal discrepancy inf)\n", ""),
    ("chsh", "", "box is signaling: worst marginal discrepancy inf\n"),
])
def test_overflowing_marginals_at_a_huge_tol_write_no_warning(command, stdout, stderr, tmp_path):
    # Row 00 is valid at --tol 1e308 (its sum is 0), but Bob's marginals
    # 1e308 + 1e308 overflow; a numpy sum of them warns on stderr.
    path = tmp_path / "ovf.json"
    path.write_text(json.dumps({"matrix": [[1e308, -1e308, 1e308, -1e308]] + [[0.25] * 4] * 3}))
    env = dict(os.environ, PYTHONPATH=str(Path(nb.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "nlboxes", command, str(path), "--tol", "1e308"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (1, stdout, stderr)


@pytest.mark.parametrize("command, stdout, stderr", [
    ("validate", "rows: valid probability distributions (tol 1e+308)\n"
                 "non-signaling: NO (worst marginal discrepancy nan)\n", ""),
    ("chsh", "", "box is signaling: worst marginal discrepancy nan\n"),
], ids=["validate", "chsh"])
def test_a_nan_bob_gap_makes_the_box_signaling(command, stdout, stderr, tmp_path):
    # Rows 00 and 10 are valid at --tol 1e308 (each sums to 0), and Bob's
    # marginals are (inf, -inf) in both, so both Bob gaps are inf - inf =
    # NaN. Alice's gap is 0.5; taking it in place of the NaN passed the box.
    path = tmp_path / "nan_bob.json"
    ovf = [1e308, -1e308, 1e308, -1e308]
    path.write_text(json.dumps({"matrix": [ovf, [0.25] * 4, ovf, [0.25] * 4]}))
    env = dict(os.environ, PYTHONPATH=str(Path(nb.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "nlboxes", command, str(path), "--tol", "1e308"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (1, stdout, stderr)


@pytest.mark.parametrize("command, message", [
    ("chsh", "invalid box: correlators [inf, inf, inf, inf] are not all finite\n"),
    ("quantum", "invalid box: correlators [inf, inf, inf, inf] are not all finite\n"),
    ("game", "invalid box: correlators [inf, inf, inf, inf] are not all finite\n"),
    ("search", "invalid box: correlators [inf, inf, inf, inf] are not all finite\n"),
    ("depolarize", "invalid box: a depolarized entry is not finite\n"),
], ids=["chsh", "quantum", "game", "search", "depolarize"])
def test_a_box_whose_correlators_or_depolarized_sums_overflow_exits_one(command, message, tmp_path, capsys):
    # Every row [1e308, -1e308, -1e308, 1e308] sums to 0 and every marginal
    # is 0, so the box is valid and non-signaling at --tol 1e308; its
    # correlators (1e308 + 1e308) + (1e308 + 1e308) and its depolarized sums
    # overflow.
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"matrix": [[1e308, -1e308, -1e308, 1e308]] * 4}))
    assert run(["validate", str(path), "--tol", "1e308"]) == 0
    capsys.readouterr()
    assert run([command, str(path), "--tol", "1e308"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)


def test_quantum_gives_a_verdict_on_a_valid_box_whose_correlators_pass_one(tmp_path, capsys):
    # Each row [0.5 + 5e-10, -5e-10, -5e-10, 0.5 + 5e-10] sums to 1 and is
    # valid at the default tol, and its correlator 1 + 2e-9 lies past the
    # 1 + tol that a correlator tuple may reach: a valid box's may reach
    # 1 + 5 tol. Up to that dust the box is local, so its verdict is quantum.
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"matrix": [[0.5 + 5e-10, -5e-10, -5e-10, 0.5 + 5e-10]] * 4}))
    assert run(["validate", str(path)]) == 0
    assert nb.correlators(nb.load_box(str(path))).as_tuple() == (1.0000000020000002,) * 4
    capsys.readouterr()
    assert run(["quantum", str(path), "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == {
        "quantum": True, "slack": 0.0, "tsirelson_ok": True, "correlator_level_only": False,
    }


def test_search_json(tmp_path, capsys):
    path = tmp_path / "iso.json"
    path.write_text(nb.isotropic(0.6).to_json())
    assert run(["search", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["nl_out"] == pytest.approx(payload["nl_in"], abs=1e-9)
    assert payload["strategies_raw"] == 32768


def test_depolarize_round_trip(tmp_path, capsys):
    path = tmp_path / "box.json"
    path.write_text(nb.p_eps(0.1).to_json())
    assert run(["depolarize", str(path)]) == 0
    emitted = capsys.readouterr().out
    box = nb.Box.from_json(emitted)
    again = nb.Box.from_json(box.to_json())
    assert np.array_equal(np.asarray(box.matrix), np.asarray(again.matrix))
    assert nb.correlators(box).as_tuple() == pytest.approx((0.55, 0.55, 0.55, -0.55), abs=1e-12)


def test_game_eps_resource(capsys):
    assert run(["game", "--eps", "0.3", "--m", "4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["success"] == pytest.approx(0.77647048, abs=1e-8)
    assert payload["classical_baseline"] == 0.75


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_game_eps_is_p_eps_delta_at_delta_zero(fmt, capsys):
    # --delta defaults to 0, and p_eps_delta(eps, 0) is p_eps(eps), bit for bit.
    assert np.array_equal(nb.p_eps_delta(0.3, 0.0).matrix, nb.p_eps(0.3).matrix)
    outputs = []
    for extra in ([], ["--delta", "0"]):
        assert run(["game", "--eps", "0.3", "--m", "4", "--format", fmt, *extra]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    if fmt == "json":
        assert json.loads(outputs[0]) == nb.play_and_game(nb.p_eps(0.3), 4).to_json_dict()


def test_game_box_file(pr_file, capsys):
    assert run(["game", pr_file]) == 0
    out = capsys.readouterr().out
    assert "win probability: 1" in out


def test_game_without_resource_exits_two(capsys):
    assert run(["game"]) == 2


@pytest.mark.parametrize("flags", [["--eps", "0.3"], ["--delta", "0.1"], ["--eps", "0.3", "--delta", "0.1"]])
def test_game_box_file_with_eps_or_delta_exits_two(flags, pr_file, capsys):
    assert run(["game", pr_file, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "game takes a box file or --eps/--delta, not both\n"


def test_quantum_box_file_with_correlators_exits_two(pr_file, capsys):
    assert run(["quantum", pr_file, "--correlators", "0.5,0.5,0.5,-0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "quantum takes a box file or --correlators, not both\n"


def test_game_depth_cap(capsys):
    assert run(["game", "--eps", "0.1", "--m", "99"]) == 2


SIGNALING = nb.Box([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.25] * 4, [0.25] * 4])
NEGATIVE = nb.Box([[0.6, -0.1, 0.0, 0.5], [0.5, 0.0, 0.0, 0.5], [0.5, 0.0, 0.0, 0.5], [0.0, 0.5, 0.5, 0.0]])


@pytest.mark.parametrize("command", ["chsh", "quantum", "search", "depolarize", "game"])
@pytest.mark.parametrize(
    "box, message",
    [(SIGNALING, "box is signaling: worst marginal discrepancy 1\n"),
     (NEGATIVE, "invalid box: row xy=00 col ab=01: negative entry (residual 0.1)\n")],
    ids=["signaling", "negative_entry"],
)
def test_rejected_box_exits_one_with_one_line(command, box, message, tmp_path, capsys):
    path = tmp_path / "box.json"
    path.write_text(box.to_json())
    assert run([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == message
    assert captured.out == ""


@pytest.mark.parametrize("m", ["0", "-2"])
def test_game_depth_below_one_exits_two(m, capsys):
    assert run(["game", "--eps", "0.1", "--m", m]) == 2
    err = capsys.readouterr().err
    assert err == f"--m must be in 1..16, got {m}\n"


def test_optimize_above_the_n_max_cap_exits_two(capsys):
    n_max = nb.MAX_OPTIMIZE_N + 1
    assert run(["optimize", "--n-max", str(n_max)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"n_max must be in 2..{nb.MAX_OPTIMIZE_N}, got {n_max}\n"


def test_optimize_without_a_feasible_point_exits_one(monkeypatch, capsys):
    # The optimizer's InfeasibleRegionError is a result, not a usage error:
    # exit 1 with its message as the one stderr line.
    def infeasible(**kwargs):
        raise nb.distill.InfeasibleRegionError("no feasible (eps, delta, n) point")

    monkeypatch.setattr(nb.distill, "optimize_quantum_distillation", infeasible)
    assert run(["optimize"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "no feasible (eps, delta, n) point\n"


@pytest.mark.parametrize(
    "argv, message",
    [(["distill", "--eps", "0.1", "--n", "5..3"], "bad range '5..3'; expected N or LO..HI"),
     (["quantum", "--correlators", "1,1,1"], "--correlators needs four comma-separated values"),
     (["quantum", "--correlators", "1,1,1,x"], "bad correlator values '1,1,1,x': could not convert string to float: 'x'"),
     (["quantum"], "quantum needs a box file or --correlators"),
     (["game"], "game needs a box file or --eps"),
     (["game", "--eps", "0.1", "--m", "17"], "--m must be in 1..16, got 17"),
     (["quantum", "--correlators", "0.5,0.5,0.5,-0.5", "--tol", "-1"], "tolerance must be a finite number >= 0, got -1.0"),
     (["optimize", "--tol", "nan"], "tolerance must be a finite number >= 0, got nan"),
     (["quantum", "--correlators", "inf,0,0,0"], "bad correlator values 'inf,0,0,0': correlator inf is not in [-1, 1]"),
     (["quantum", "--correlators", "1.000000002,1,1,1"],
      "bad correlator values '1.000000002,1,1,1': correlator 1.000000002 is not in [-1, 1]")],
)
def test_usage_errors_exit_two_with_one_line(argv, message, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


def _matrix_text(rows) -> str:
    return json.dumps({"matrix": rows})


STRINGS = _matrix_text([["0.5", "0", "0", "0.5"]] * 3 + [["0", "0.5", "0.5", "0"]])
BOOLEANS = _matrix_text([[True, False, False, False]] * 4)
NULLS = _matrix_text([[None, 0.5, 0.5, 0.0]] * 4)
HUGE = _matrix_text([[10**400, 0.5, 0.5, 0.0]] * 4)


@pytest.mark.parametrize("command", ["validate", "search", "chsh"])
@pytest.mark.parametrize(
    "text, message",
    [("[" * 100000, "JSON nested too deeply"), ("[" * 1000, "JSON nested too deeply"),
     (STRINGS, "box matrix must hold numbers, got str"), (BOOLEANS, "box matrix must hold numbers, got bool"),
     (NULLS, "box matrix must hold numbers, got NoneType"),
     (HUGE, "box matrix entry is too large for a float")],
    ids=["nested_100000", "nested_1000", "strings", "booleans", "nulls", "huge_integer"],
)
def test_box_file_without_a_box_exits_two_with_one_line(command, text, message, tmp_path, capsys):
    path = tmp_path / "box.json"
    path.write_text(text)
    argv = [command, str(path)] + (["--format", "csv"] if command == "chsh" else [])
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"bad box file {path}: {message}\n"


@pytest.mark.parametrize("index", [0, 1], ids=["marginal", "row_sum"])
def test_search_at_tol_0_exits_zero_on_a_box_validate_accepts(index, tmp_path, capsys):
    path = tmp_path / "box.json"
    path.write_text(json.dumps({"matrix": TOL_0_BOXES[index]}))
    assert run(["validate", str(path), "--tol", "0"]) == 0
    capsys.readouterr()
    env = dict(os.environ, PYTHONPATH=str(Path(nb.__file__).parents[1]))
    wirings = []
    for tol in (["--tol", "0"], []):
        done = subprocess.run([sys.executable, "-m", "nlboxes", "search", str(path), *tol],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0 and done.stderr == "", done.stderr
        wirings.append(json.loads(done.stdout)["wiring"])
    assert wirings[0] == wirings[1]
    # A box two tol off still exits 1, at the input check.
    path.write_text(json.dumps({"matrix": (np.array(TOL_0_BOXES[index]) * (1 + 2e-9)).tolist()}))
    assert run(["search", str(path)]) == 1
    assert "row sum != 1" in capsys.readouterr().err
