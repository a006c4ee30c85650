"""geouio's records are plain classes: each constructor keeps the parameters
and the checks of the dataclass it replaced, and importing the package
generates no code."""

import dataclasses
import importlib
import inspect
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import geouio
from geouio.central import InputPartition, LinSystem
from geouio.distributed import NodeSpec, SensorGraph
from geouio.errors import DimensionMismatch
from geouio.simulate import SignalSpec, SimConfig, Trajectory
from geouio.subspaces import Subspace, TolerancePolicy
from geouio.synthesis import SpectralPartition
from geouio.verify import Check

_ = inspect.Parameter.empty
# (name, default) of every constructor parameter, in order, of each record
# that geouio/__init__.py exports; "_" marks a parameter without a default.
SIGNATURES = {
    "TolerancePolicy": (("rel_rank_tol", 1e-10), ("abs_residual_tol", 1e-9)),
    "Subspace": (("ambient_dim", _), ("basis", _)),
    "SpectralPartition": (("alpha", 0.0), ("margin", 0.5),
                          ("pole_targets", None), ("safety", 1.1)),
    "GeometricDecomposition": (("W_star", _), ("S_star", _), ("Xbar_g", _),
                               ("Xbar_b", _), ("W_g_star", _), ("V", _),
                               ("P_Wstar", _), ("P_Wg", _), ("ker_C", _)),
    "LinSystem": (("A", _), ("B", _), ("C", _)),
    "InputPartition": (("B_known", _), ("B_unknown", _), ("known_cols", _),
                       ("unknown_cols", _)),
    "CentralizedObserver": (("Abar_L", _), ("P_Wg", _), ("L", _), ("E", _),
                            ("F", _), ("decomp", _)),
    "NodeSpec": (("node_id", _), ("C", _), ("known_cols", _),
                 ("unknown_cols", _)),
    "SensorGraph": (("adjacency", _),),
    "SensorNode": (("node_id", _), ("C", _), ("B_known", _), ("B_unknown", _),
                   ("known_cols", _), ("unknown_cols", _), ("node_class", _),
                   ("decomp", _), ("L", _), ("A_cl", _), ("Abarbar", _),
                   ("E", None), ("F", None), ("Abar_L", None)),
    "DistributedObserverNetwork": (("nodes", _), ("graph", _), ("chi", _),
                                   ("gamma", _), ("u_bar_max", _),
                                   ("safety", _), ("W_V_block", _),
                                   ("A_L_block", _), ("chi_min", _),
                                   ("gamma_min", _), ("sigma_min_Q", _)),
    "SignalSpec": (("kind", _), ("amplitude", 1.0), ("frequency", 1.0),
                   ("phase", 0.0)),
    "SimConfig": (("t_end", _), ("x0", _), ("dt", 1e-3), ("method", "rk4"),
                  ("sign_mode", "boundary_layer"), ("eps_bl", 1e-3),
                  ("observer_init", None), ("record_stride", 1),
                  ("divergence_guard", 1e12)),
    "Trajectory": (("times", _), ("states", _), ("D", _), ("Q", _),
                   ("err_norm", _), ("labels", _), ("quotient_maps", _)),
    "ProjectConfig": (("system", _), ("partition", _), ("node_specs", _),
                      ("graph", _), ("spectral", _), ("signals", _),
                      ("sim", _), ("u_bar_max", _), ("raw", _)),
}


def test_every_exported_record_keeps_its_constructor():
    exported = {name for name, obj in vars(geouio).items()  # no aliases
                if inspect.isclass(obj) and obj.__name__ == name}
    assert exported == set(SIGNATURES)
    for name, expected in SIGNATURES.items():
        params = inspect.signature(getattr(geouio, name)).parameters.values()
        assert tuple((p.name, p.default) for p in params) == expected, name
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params), name


def _geouio_classes():
    for info in pkgutil.iter_modules(geouio.__path__):
        module = importlib.import_module(f"geouio.{info.name}")
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                yield obj


def test_no_geouio_class_is_a_dataclass():
    classes = list(_geouio_classes())
    assert len(classes) > 23
    assert [c.__qualname__ for c in classes if dataclasses.is_dataclass(c)] == []


_SQUARE = np.eye(2)


@pytest.mark.parametrize("build, error", [
    (lambda: TolerancePolicy(rel_rank_tol=2), ValueError),
    (lambda: TolerancePolicy(abs_residual_tol=0.0), ValueError),
    (lambda: TolerancePolicy(abs_residual_tol=math.inf), ValueError),
    (lambda: SpectralPartition(safety=0.5), ValueError),
    (lambda: SpectralPartition(margin=-0.1), ValueError),
    (lambda: SpectralPartition(alpha=-1.0, pole_targets=[-0.5]), ValueError),
    (lambda: SpectralPartition(alpha=math.nan), ValueError),
    (lambda: Subspace(2, [[1.0, 1.0], [0.0, 1.0]]), DimensionMismatch),
    (lambda: Subspace(3, _SQUARE), DimensionMismatch),
    (lambda: Subspace(1, np.ones((1, 2))), DimensionMismatch),
    (lambda: LinSystem(np.ones((2, 3)), np.ones((2, 1)), np.ones((1, 3))),
     DimensionMismatch),
    (lambda: LinSystem(_SQUARE, np.ones((3, 1)), np.ones((1, 2))),
     DimensionMismatch),
    (lambda: LinSystem(_SQUARE, np.ones((2, 1)), np.ones((1, 3))),
     DimensionMismatch),
    (lambda: LinSystem(_SQUARE, np.ones((2, 1)), [[math.inf, 0.0]]),
     DimensionMismatch),
    (lambda: InputPartition.from_columns(
        LinSystem(_SQUARE, np.ones((2, 2)), np.ones((1, 2))), [0], [0]),
     DimensionMismatch),
    (lambda: InputPartition.from_columns(
        LinSystem(_SQUARE, np.ones((2, 3)), np.ones((1, 2))), [0], [1, 2]),
     DimensionMismatch),
    (lambda: SimConfig(t_end=0.0, x0=[1.0]), DimensionMismatch),
    (lambda: SimConfig(t_end=1.0, x0=[1.0], dt=1.0), DimensionMismatch),
    (lambda: SimConfig(t_end=1.0, x0=[1.0], method="heun"), DimensionMismatch),
    (lambda: SimConfig(t_end=1.0, x0=[1.0], sign_mode="tanh"),
     DimensionMismatch),
    (lambda: SimConfig(t_end=1.0, x0=[1.0], eps_bl=0.0), DimensionMismatch),
    (lambda: SimConfig(t_end=1.0, x0=[1.0], record_stride=2.0),
     DimensionMismatch),
    (lambda: SimConfig(t_end=1.0, x0=[1.0], record_stride=0),
     DimensionMismatch),
    (lambda: SimConfig(t_end=1.0, x0=[1.0], divergence_guard=0.0),
     DimensionMismatch),
    (lambda: SignalSpec("square"), DimensionMismatch),
    (lambda: SensorGraph(np.ones((2, 3))), DimensionMismatch),
    (lambda: SensorGraph([[0, 1], [0, 0]]), DimensionMismatch),
    (lambda: SensorGraph([[1, 1], [1, 0]]), DimensionMismatch),
    (lambda: SensorGraph([[0, 2], [2, 0]]), DimensionMismatch),
    (lambda: NodeSpec(1, [[math.nan]], (0,), ()), DimensionMismatch),
    (lambda: Trajectory(np.arange(3.0), np.zeros((2, 2)), (), (), (), (), ()),
     DimensionMismatch),
    (lambda: Check("leak", 1.0), TypeError),
    (lambda: Check("flag", True, "<", 1.0), TypeError),
])
def test_each_constructor_check_raises_its_type(build, error):
    with pytest.raises(error):
        build()


def test_constructors_normalize_their_arguments():
    assert SpectralPartition(pole_targets=[-1, -2]).pole_targets == (-1.0, -2.0)
    assert SpectralPartition().pole_targets is None
    x0 = SimConfig(t_end=1.0, x0=[[1, 2]]).x0
    assert x0.dtype == float and x0.shape == (2,)
    spec = NodeSpec(3, [1.0, 0.0], [np.int64(1)], (0,))
    assert spec.C.shape == (1, 2)
    assert (spec.known_cols, spec.unknown_cols) == ((1,), (0,))
    assert type(spec.known_cols[0]) is int
    assert not Subspace(2, _SQUARE).basis.flags.writeable
    assert not SensorGraph([[0, 1], [1, 0]]).adjacency.flags.writeable
    assert Subspace(2, _SQUARE)._perp is None


def test_reproduce_leaves_dataclasses_unimported(tmp_path):
    # Each @dataclass decoration generates and compiles its methods, about
    # 1 ms apiece, in every process that imports geouio.
    code = ("import sys\n"
            "import numpy\n"
            "before = 'dataclasses' in sys.modules\n"
            "from geouio import cli\n"
            f"code = cli.main(['reproduce', 'centralized', '--out', {str(tmp_path)!r}])\n"
            "print(before, code, 'dataclasses' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(geouio.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    before, code, after = proc.stdout.split()[-3:]
    if before == "True":
        pytest.skip("numpy itself imports dataclasses")
    assert (code, after) == ("0", "False")
