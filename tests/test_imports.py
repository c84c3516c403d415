"""What each entry point imports: the package namespace loads names on first
use, and each CLI subcommand loads only the modules it calls. ``chsh``,
``validate``, ``quantum``, ``distill``, ``game`` and ``depolarize`` answer
on Python floats and load no numpy, and neither do the box functions of
``symmetry`` and ``games``; ``search`` reads its box file before it loads
the search, and with it numpy."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nlboxes as nb

_ENV = dict(os.environ, PYTHONPATH=str(Path(nb.__file__).parents[1]))

_SUBMODULES = ("boxes", "distill", "games", "quantum", "search", "symmetry", "wiring")

# The public names of the package: 73 values and the 7 submodules.
_PUBLIC = (
    "AB_LABELS AdaptiveStrategy AndGameStrategy Box CHSH_LABELS Correlators DEFAULT_TOL DistillationReport "
    "DistillationRow FamilyParams GameResult InfeasibleRegionError InvalidBoxError MAX_OPTIMIZE_N "
    "MAX_XOR_COPIES NonSignalingCheck Optimum QuantumVerdict RAW_STRATEGY_COUNT Relabeling SearchResult "
    "SignalingBoxError TSIRELSON_BOUND ValidationReport Violation Wiring2 XY_LABELS and_game_success "
    "and_game_success_closed arcsin_sums behavior_class_count behavior_key boxes canonical_form "
    "canonical_strategy chsh_csv chsh_functional chsh_stabilizer chsh_values classical_and_optimum "
    "compose_wiring2 compose_xor correlators depolarize deterministic distill distillation_report "
    "enumerate_strategies first_box_strategy games is_distillable_at is_local is_non_signaling "
    "is_quantum_box is_quantum_correlators isotropic load_box mix nl nl_closed_eps nl_closed_eps_delta "
    "nl_correlators noise optimize_quantum_distillation p_eps p_eps_delta play_and_game pr quantum "
    "relabelings require_non_signaling require_valid search search_2copy symmetry tsirelson_check validate "
    "wiring xor_correlator_law xor_strategy"
).split()


# ``python -m nlboxes`` with its arguments, which writes the loaded
# ``nlboxes`` modules, and ``numpy`` if it is loaded, as the last stderr line
# when the process exits.
_RUN_AS_MAIN = """
import atexit, runpy, sys
atexit.register(lambda: print(*sorted(m for m in sys.modules if m.split(".")[0] == "nlboxes" or m == "numpy"),
                              file=sys.stderr))
sys.argv[0] = "nlboxes"
runpy.run_module("nlboxes", run_name="__main__", alter_sys=True)
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=_ENV, timeout=120)


def test_bare_import_loads_no_numpy_and_no_submodule():
    done = _python("-c", "import sys, nlboxes; print(sorted(m for m in sys.modules if m.startswith(('numpy', 'nlboxes'))))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "['nlboxes']"


def test_all_lists_the_public_names():
    assert len(_PUBLIC) == 80
    assert nb.__all__ == sorted(_PUBLIC)
    assert set(_PUBLIC) <= set(dir(nb))


@pytest.mark.parametrize("name", _PUBLIC)
def test_each_name_is_its_submodules_object(name):
    # The package's value is the one every submodule that holds the name
    # holds, e.g. nb.distill.InfeasibleRegionError is nb.InfeasibleRegionError;
    # after the first access it is a plain entry of the package's namespace.
    value = getattr(nb, name)
    assert vars(nb)[name] is value
    if name in _SUBMODULES:
        assert value is sys.modules[f"nlboxes.{name}"]
        return
    holders = [getattr(nb, m) for m in _SUBMODULES if hasattr(getattr(nb, m), name)]
    assert holders
    assert all(getattr(module, name) is value for module in holders)


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(nb, "no_such_name")
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        nb.no_such_name


def test_star_import_binds_every_public_name():
    done = _python("-c", "from nlboxes import *; print(sorted(k for k in dir() if not k.startswith('_')))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == repr(sorted(_PUBLIC))


def test_box_functions_of_symmetry_and_games_load_no_numpy():
    # Boxes built from tuples (p_eps) and from lists, each through canonical
    # form, one relabeling, depolarization and the AND game by enumeration
    # and by table.
    code = """
import sys, nlboxes as nb
for box in (nb.p_eps(0.1), nb.Box([[0.5, 0, 0, 0.5]] * 3 + [[0, 0.5, 0.5, 0]])):
    nb.canonical_form(box)
    nb.relabelings()[37].apply(box)
    nb.depolarize(box)
    nb.and_game_success(nb.AndGameStrategy(box, 2))
    nb.play_and_game(box, 2)
print(sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy.")))
"""
    done = _python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.fixture(scope="module")
def box_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("boxes")
    files = {
        "good": nb.p_eps(0.1).to_json(),
        "truncated": nb.p_eps(0.1).to_json()[:40],
        "signaling": nb.Box([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 1], [1, 0, 0, 0]]).to_json(),
        "nan": nb.Box([[float("nan"), 0.5, 0.5, 0.0]] + [[0.25] * 4] * 3).to_json(),
    }
    for name, text in files.items():
        (root / f"{name}.json").write_text(text)
    return {name: str(root / f"{name}.json") for name in [*files, "missing"]}


# Each subcommand's arguments (box files by name), its exit code, the modules
# it loads besides ``nlboxes``, ``nlboxes.boxes`` and ``nlboxes.cli``, and
# whether it loads numpy.
_SUBCOMMANDS = [
    (["chsh", "good"], 0, (), False),
    (["chsh", "good", "--format", "csv"], 0, (), False),
    (["chsh", "good", "--format", "json"], 0, (), False),
    (["validate", "good"], 0, (), False),
    (["chsh", "truncated"], 2, (), False),
    (["chsh", "missing"], 2, (), False),
    (["chsh", "signaling"], 1, (), False),
    (["chsh", "nan"], 1, (), False),
    (["validate", "truncated"], 2, (), False),
    (["validate", "signaling"], 1, (), False),
    (["quantum", "good"], 0, ("quantum",), False),
    (["quantum", "--correlators", "0.5,0.5,0.5,-0.5"], 0, ("quantum",), False),
    (["distill", "--eps", "0.1", "--n", "1..3"], 0, ("distill", "quantum", "wiring"), False),
    (["distill", "--eps", "0.3", "--delta", "0.02", "--n", "1..16", "--format", "csv"], 0,
     ("distill", "quantum", "wiring"), False),
    (["distill", "--eps", "0.1", "--n", "1..16", "--format", "json"], 0, ("distill", "quantum", "wiring"), False),
    (["optimize", "--n-max", "2"], 0, ("distill", "quantum", "wiring"), True),
    (["game", "good"], 0, ("games", "wiring"), False),
    (["game", "--eps", "0.1", "--m", "2"], 0, ("games", "wiring"), False),
    (["depolarize", "good"], 0, ("symmetry", "wiring"), False),
    (["search", "good"], 0, ("search", "wiring"), True),
    (["search", "missing"], 2, (), False),
]


@pytest.mark.parametrize("argv, code, loaded, numpy", _SUBCOMMANDS, ids=[" ".join(c[0]) for c in _SUBCOMMANDS])
def test_each_subcommand_loads_only_its_modules(argv, code, loaded, numpy, box_files):
    # Run as ``python -m nlboxes`` runs, and list the package's modules at exit.
    # (``-X importtime`` would miss a module that a first access imports.)
    done = _python("-c", _RUN_AS_MAIN, *[box_files.get(a, a) for a in argv])
    assert done.returncode == code, done.stderr
    assert done.stderr.splitlines()[-1].split() == sorted(["nlboxes", "nlboxes.boxes", "nlboxes.cli",
                                                           *(f"nlboxes.{m}" for m in loaded),
                                                           *(["numpy"] if numpy else [])])
