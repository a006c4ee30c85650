"""tools/record_bench.py: its summaries of paired benchmark runs."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "record_bench.py"
_spec = importlib.util.spec_from_file_location("record_bench", _PATH)
record_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_bench)

METRICS = [{"name": "op_s", "unit": "s", "better": "lower"},
           {"name": "rate", "unit": "1/s", "better": "higher"}]


def _run(**metrics):
    return {"seed": 1, "returncode": 0, "attempted": 4, "failed": 0,
            "correct": True, "metrics": metrics}


def test_pairs_won_follow_each_metrics_direction():
    runs = {"parent": [_run(op_s=2.0, rate=1.0), _run(op_s=1.0, rate=3.0),
                       _run(op_s=3.0, rate=2.0)],
            "change": [_run(op_s=1.0, rate=2.0), _run(op_s=2.0, rate=1.0),
                       _run(op_s=1.5, rate=4.0)]}
    out = record_bench.compare(runs, METRICS)
    assert (out["op_s"]["pairs_won"], out["op_s"]["pairs"]) == (2, 3)
    assert (out["rate"]["pairs_won"], out["rate"]["pairs"]) == (2, 3)
    assert out["op_s"]["parent"] == {"values": [2.0, 1.0, 3.0], "median": 2.0,
                                     "q1": 1.5, "q3": 2.5}


def test_a_run_without_a_result_is_kept_but_not_paired():
    crashed = {"seed": 2, "returncode": 1, "error": "Traceback ..."}
    runs = {"parent": [_run(op_s=2.0), _run(op_s=1.0)],
            "change": [_run(op_s=1.0), crashed]}
    out = record_bench.compare(runs, METRICS[:1])["op_s"]
    assert (out["pairs_won"], out["pairs"]) == (1, 1)
    assert out["change"] == {"values": [1.0], "median": 1.0, "q1": 1.0,
                             "q3": 1.0}
    assert runs["change"][1] is crashed
