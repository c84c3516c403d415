"""The JSON forms of the result types: each survives a JSON round trip, keys in CLI order.

``DistillationReport``, ``GameResult`` and ``Optimum`` build their JSON from
their dataclass fields, so the field order is the CLI's key order, and a
tuple field left as a tuple would not equal the list that JSON reads back.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

import nlboxes as nb

JSON_FORMS = {
    "DistillationReport": lambda: nb.distillation_report(0.3, 0.02, [1, 4, 2, 16]),
    "GameResult": lambda: nb.play_and_game(nb.p_eps(0.3), m=4),
    "SearchResult": lambda: nb.search_2copy(nb.p_eps(0.1)),
    "Wiring2": lambda: nb.Wiring2(nb.xor_strategy(), nb.first_box_strategy()),
    "AdaptiveStrategy": lambda: nb.AdaptiveStrategy.decode(12345),
    "Box": lambda: nb.isotropic(0.8),
}


@pytest.mark.parametrize("name", JSON_FORMS)
def test_to_json_dict_survives_a_json_round_trip(name):
    d = JSON_FORMS[name]().to_json_dict()
    assert json.loads(json.dumps(d)) == d


def test_json_keys_follow_the_field_order():
    report = nb.distillation_report(0.1, 0.0, range(1, 4)).to_json_dict()
    assert list(report) == ["eps", "delta", "resource_quantum", "rows"]
    assert [list(row) for row in report["rows"]] == [["n", "nl_closed", "nl_brute", "distilled"]] * 3
    game = nb.play_and_game(nb.p_eps(0.3)).to_json_dict()
    assert list(game) == ["resource_nl", "m", "s_value", "success", "classical_baseline", "margin"]
    assert game["margin"] == game["success"] - game["classical_baseline"]
    optimum = asdict(nb.optimize_quantum_distillation(n_max=2))
    assert list(optimum) == ["n", "eps", "delta", "nl_in", "nl_out"]
