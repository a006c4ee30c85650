"""Every package error survives pickling and copying whole."""

import copy
import inspect
import pickle

import numpy as np
import pytest

from geouio import errors

ATTRIBUTES = ("diagnostics", "eigenvalues", "t", "assumption")

EXAMPLES = {
    "GeoUioError": errors.GeoUioError("base"),
    "DimensionMismatch": errors.DimensionMismatch("x0 dimension mismatch"),
    "InvarianceViolated": errors.InvarianceViolated("not invariant"),
    "NotConditionedInvariant": errors.NotConditionedInvariant("no friend"),
    "SpectrumUnassignable": errors.SpectrumUnassignable(
        "cannot place", eigenvalues=np.array([0.5 + 1j, 0.5 - 1j])),
    "NotSolvable": errors.NotSolvable("rank deficient"),
    "ExistenceFailed": errors.ExistenceFailed(
        "W* meets B", diagnostics={"w_star": 2}),
    "AssumptionViolated": errors.AssumptionViolated(
        3, "pair (A, C) not detectable", diagnostics={"modes": [1.0]}),
    "SingularQ": errors.SingularQ("Gram matrix singular"),
    "NonFiniteState": errors.NonFiniteState("diverged", t=0.25),
    "ConfigError": errors.ConfigError("bad key"),
}


def test_every_error_has_an_example():
    classes = {name for name, cls in vars(errors).items()
               if inspect.isclass(cls) and issubclass(cls, errors.GeoUioError)}
    assert classes == set(EXAMPLES)


@pytest.mark.parametrize("name", EXAMPLES)
@pytest.mark.parametrize("clone", [copy.copy,
                                   lambda e: pickle.loads(pickle.dumps(e))])
def test_error_round_trips(name, clone):
    exc = EXAMPLES[name]
    got = clone(exc)
    assert type(got) is type(exc)
    assert str(got) == str(exc)
    for attr in ATTRIBUTES:
        if hasattr(exc, attr):
            want = getattr(exc, attr)
            if isinstance(want, np.ndarray):
                assert np.array_equal(getattr(got, attr), want)
            else:
                assert getattr(got, attr) == want


def test_assumption_message_is_unchanged():
    exc = errors.AssumptionViolated(1, "graph is not connected")
    assert str(exc) == "assumption 1: graph is not connected"
    assert exc.args == ("assumption 1: graph is not connected",)
