"""tools/design_digest.py: a digest of the benchmark's seeded outcomes that
moves with any check value."""

import importlib.util
import math
from pathlib import Path

from geouio import verify

_PATH = Path(__file__).resolve().parents[1] / "tools" / "design_digest.py"
_spec = importlib.util.spec_from_file_location("design_digest", _PATH)
design_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(design_digest)


def test_digests_repeat_and_follow_a_check_value(monkeypatch):
    seeds, rounds = range(1, 2), range(0, 1)
    first = design_digest.design_digest("design", seeds, rounds)
    assert first == design_digest.design_digest("design", seeds, rounds)
    assert (first["plants"], first["failures"]) == (14, 0)
    battery = design_digest.battery_digest(seeds, rounds)
    assert battery == design_digest.battery_digest(seeds, rounds)
    assert (battery["trials"], battery["disagreements"]) == (200, 0)
    assert verify._workers is not None and not hasattr(verify._workers, "results")

    # every residual row one ulp larger: the same verdicts, another digest
    fro = verify._fro
    monkeypatch.setattr(verify, "_fro", lambda M: math.nextafter(fro(M), math.inf))
    moved = design_digest.design_digest("design", seeds, rounds)
    assert (moved["plants"], moved["failures"]) == (14, 0)
    assert moved["sha256"] != first["sha256"]
