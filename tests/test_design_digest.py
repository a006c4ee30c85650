"""tools/design_digest.py: a digest of the benchmark's seeded outcomes that
moves with any check value."""

import importlib.util
import math
from pathlib import Path

from geouio import verify
from geouio.errors import GeoUioError, NotConditionedInvariant
from geouio.subspaces import note_margin

_PATH = Path(__file__).resolve().parents[1] / "tools" / "design_digest.py"
_spec = importlib.util.spec_from_file_location("design_digest", _PATH)
design_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(design_digest)


def test_digests_repeat_and_follow_a_check_value(monkeypatch):
    seeds, rounds = range(1, 2), range(0, 1)
    first = design_digest.design_digest("design", seeds, rounds)
    assert first == design_digest.design_digest("design", seeds, rounds)
    assert (first["plants"], first["failures"], first["classes"]) == (14, 0, {})
    battery = design_digest.battery_digest(seeds, rounds)
    assert battery == design_digest.battery_digest(seeds, rounds)
    assert (battery["trials"], battery["disagreements"]) == (200, 0)
    assert verify._workers is not None and not hasattr(verify._workers, "results")

    # every residual row one ulp larger: the same verdicts, other digests
    fro = verify._fro
    with monkeypatch.context() as mp:
        mp.setattr(verify, "_fro", lambda M: math.nextafter(fro(M), math.inf))
        moved = design_digest.design_digest("design", seeds, rounds)
    assert (moved["plants"], moved["failures"]) == (14, 0)
    assert moved["sha256"] != first["sha256"]
    assert moved["checks_sha256"] != first["checks_sha256"]

    # one more margin noted per plant: the same checks, another full digest
    checks = verify.invariant_checks

    def noting(*args, **kwargs):
        note_margin(0.5)
        return checks(*args, **kwargs)

    monkeypatch.setattr(verify, "invariant_checks", noting)
    noted = design_digest.design_digest("design", seeds, rounds)
    assert noted["sha256"] != first["sha256"]
    assert noted["checks_sha256"] == first["checks_sha256"]


def test_the_failure_probe_fails_only_by_the_packages_errors(tmp_path):
    # seed 1, round 0 of the benchmark's failure probe: the only plants on
    # which the residual tests' scaled branch (past the bare limit) runs
    ops = design_digest._design_ops("probe", 1, 0, tmp_path)
    assert len(ops) == 21
    failures = []
    for op in ops:
        try:
            op.call()
        except Exception as exc:  # under the suite's error::RuntimeWarning
            failures.append((op.label, exc))
    assert failures and all(isinstance(exc, GeoUioError) for _, exc in failures)
    assert [label.split()[0] for label, _ in failures] == ["network.n24.N16"] * 2
    for _, exc in failures:
        assert isinstance(exc, NotConditionedInvariant)
        assert str(exc).startswith("no common friend for the given subspaces")


def test_the_digest_counts_failures_by_class(capsys):
    design_digest.main(["--seeds", "1", "--rounds", "0", "--part", "probe"])
    line = capsys.readouterr().out
    assert line.startswith("probe: 21 plants, 2 failures "
                           "(NotConditionedInvariant 2), checks sha256 ")
    checks, full = line.split("checks sha256 ")[1].split(", sha256 ")
    assert len(checks) == len(full.strip()) == 64
