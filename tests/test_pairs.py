import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


class TestSummarize:
    def test_lower_is_better_with_a_tie(self):
        # pairs: 9 < 10 win, 12 = 12 tie, 8 < 11 win, 14 > 13 loss, 7 < 10 win
        s = pairs.summarize([10, 12, 11, 13, 10], [9, 12, 8, 14, 7], "lower", 0.25)
        assert s["parent"] == {"median": 11, "q1": 10, "q3": 12}
        assert s["change"] == {"median": 9, "q1": 8, "q3": 12}
        assert s["change_better_pairs"] == "3/5"
        # the gap (2) equals the parent's spread (2): it does not exceed it
        assert s["median_gap_exceeds_parent_quartile_spread"] is False
        assert s["relative_quartile_spread"] == pytest.approx(4 / 9)
        assert s["unresolved"] is True
        assert s["runs"] == {"parent": [10, 12, 11, 13, 10], "change": [9, 12, 8, 14, 7]}

    def test_higher_is_better(self):
        s = pairs.summarize([40, 41, 42, 43], [45, 47, 46, 41], "higher", 0.25)
        assert s["parent"] == {"median": 41.5, "q1": 40.75, "q3": 42.25}
        assert s["change"]["median"] == 45.5
        assert s["change_better_pairs"] == "3/4"
        assert s["median_gap_exceeds_parent_quartile_spread"] is True
        assert s["unresolved"] is False

    def test_all_ties(self):
        s = pairs.summarize([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], "higher", 0.25)
        assert s["change_better_pairs"] == "0/3"
        assert s["median_gap_exceeds_parent_quartile_spread"] is False

    def test_one_pair(self):
        s = pairs.summarize([5.0], [4.0], "lower", 0.05)
        assert s["parent"] == {"median": 5.0, "q1": 5.0, "q3": 5.0}
        assert s["change_better_pairs"] == "1/1"
        assert s["median_gap_exceeds_parent_quartile_spread"] is True

    # ten pairs, lower is better: the parent's median is 11, its quartiles
    # 10.25 and 12, so a median gap must exceed 1.75
    PARENT = [10, 11, 12, 13, 10, 11, 12, 13, 10, 11]

    def test_claim_met(self):
        s = pairs.summarize(self.PARENT, [x - 3 for x in self.PARENT], "lower", 0.25)
        assert s["change_better_pairs"] == "10/10"
        assert s["claim_met"] is True

    def test_claim_missed_on_pairs(self):
        # 3 gained in 8 pairs and 1 lost in 2: the gap still exceeds the spread
        change = [x - 3 for x in self.PARENT[:8]] + [x + 1 for x in self.PARENT[8:]]
        s = pairs.summarize(self.PARENT, change, "lower", 0.25)
        assert s["change_better_pairs"] == "8/10"
        assert s["median_gap_exceeds_parent_quartile_spread"] is True
        assert s["claim_met"] is False

    def test_claim_missed_on_spread(self):
        # every pair won, by less than the parent's quartile spread
        s = pairs.summarize(self.PARENT, [x - 1 for x in self.PARENT], "lower", 0.25)
        assert s["change_better_pairs"] == "10/10"
        assert s["median_gap_exceeds_parent_quartile_spread"] is False
        assert s["claim_met"] is False

    def test_claim_with_ties(self):
        # a tie is no win: 9 wins and a tie meet 9/10, 10 wins and 2 ties of 12 do not
        parent = [40, 41, 42, 43] * 3
        for won, runs, met in ((9, 10, True), (10, 12, False)):
            change = [x + 5 for x in parent[:won]] + parent[won:runs]
            s = pairs.summarize(parent[:runs], change, "higher", 0.25)
            assert s["change_better_pairs"] == f"{won}/{runs}"
            assert s["median_gap_exceeds_parent_quartile_spread"] is True
            assert s["claim_met"] is met

    # the parent's median is 8 and the bound 0.25: worse by more than 2 regresses
    @pytest.mark.parametrize("better, change, regressed", [
        ("lower", [10.5, 10.5, 10.5], True),
        ("higher", [5.9, 5.9, 5.9], True),
        ("lower", [10.0, 10.0, 10.0], False),
        ("higher", [10.0, 10.0, 10.0], False),
    ], ids=["lower-is-better", "higher-is-better", "at-the-bound", "improved"])
    def test_regressed(self, better, change, regressed):
        s = pairs.summarize([7.0, 8.0, 9.0], change, better, 0.25)
        assert s["parent"]["median"] == 8.0
        assert s["regressed"] is regressed

    def test_unpaired_runs(self):
        with pytest.raises(ValueError):
            pairs.summarize([1.0, 2.0], [1.0], "lower", 0.25)


def test_parse_seeds():
    assert pairs.parse_seeds("501-504") == [501, 502, 503, 504]
    assert pairs.parse_seeds("7") == [7]


def test_order_and_document(tmp_path, monkeypatch, capsys):
    spec = {"end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.25}]}
    (tmp_path / "new").mkdir()
    (tmp_path / "new" / "BENCHMARK.json").write_text(json.dumps(spec))
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((checkout.name, seed))
        value = seed + (0.5 if checkout.name == "new" else 0.0)
        # the change is faster on tiny-norm and slower on decompose
        tiny = 2.0 if checkout.name == "new" else 3.0
        latencies = {"tiny-norm n=1": [0.5], "tiny-norm n=4": [tiny, tiny],
                     "decompose n=5 t=0": [value], "decompose n=9 t=1": [1.0],
                     "bogolyubov 0.5/0.25": [seed]}
        return {"attempted": 10, "failed": 0, "metrics": {"ops_per_s": {"value": value}},
                "report": {"op_latencies_ms": latencies}}

    monkeypatch.setattr(pairs, "run_once", fake_run)
    out = tmp_path / "pairs.json"
    argv = [str(tmp_path / "old"), str(tmp_path / "new"), "--workload", "w",
            "--seeds", "3-4", "--seconds", "1", "--out", str(out)]
    assert pairs.main(argv) == 0
    # the parent first on odd seeds, the change first on even ones
    assert calls == [("old", 3), ("new", 3), ("new", 4), ("old", 4)]
    doc = json.loads(out.read_text())
    assert doc == json.loads(capsys.readouterr().out)
    w = doc["w"]
    assert w["seeds"] == [3, 4]
    assert w["attempted_ops"] == {"parent": 20, "change": 20}
    assert w["failed_ops"] == {"parent": 0, "change": 0}
    assert w["metrics"]["ops_per_s"]["runs"] == {"parent": [3, 4], "change": [3.5, 4.5]}
    assert w["metrics"]["ops_per_s"]["change_better_pairs"] == "2/2"
    assert w["family_latency_sums"] == {
        "bogolyubov 0.5/0.25": {"parent_median_ms": 3.5, "change_median_ms": 3.5,
                                "change_better_pairs": "0/2"},
        "decompose": {"parent_median_ms": 4.5, "change_median_ms": 5.0,
                      "change_better_pairs": "0/2"},
        "tiny-norm": {"parent_median_ms": 6.5, "change_median_ms": 4.5,
                      "change_better_pairs": "2/2"},
    }


def test_family_sums_drop_n_and_t():
    report = {"op_latencies_ms": {"anorm projection n=20": [1.0, 2.0], "anorm n=16": [4.0],
                                  "anorm projection n=16": [0.5], "pd": [0.25, 0.25]}}
    assert pairs.family_sums(report) == {"anorm projection": 3.5, "anorm": 4.0, "pd": 0.5}
