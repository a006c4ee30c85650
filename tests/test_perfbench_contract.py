"""The benchmark's hooks into geouio: the names it traces and the checks it reads.

perfbench wraps geouio functions by name from outside the package and reads
the results of `verify.synthesis_residual_checks`; a rename or deletion here
would otherwise surface only as a broken benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from geouio.cases import builtin_config
from geouio.config import parse_config
from geouio.verify import synthesis_residual_checks

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced():
    """The (module, function, aggregate) triples perfbench/tracing.py wraps."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    missing = [f"geouio.{module}.{function}" for module, function, _ in traced
               if not callable(getattr(importlib.import_module(f"geouio.{module}"),
                                       function, None))]
    assert not missing


@pytest.mark.parametrize("which", ["centralized", "distributed"])
def test_residual_checks_carry_what_the_benchmark_reads(which):
    checks = synthesis_residual_checks(parse_config(builtin_config(which)))
    assert checks
    for c in checks:
        assert isinstance(c.name, str)
        assert isinstance(c.passed, bool)
        assert isinstance(c.value, (bool, float))
        assert c.comparison in (None, "<=", "<", ">")
        assert (c.limit is None) == (c.comparison is None)
