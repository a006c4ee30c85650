"""Geometric synthesis and simulation of unknown-input observers.

Layers, bottom up: tolerance-aware subspace algebra (`subspaces`), the
conditioned-invariant decomposition and friend gains (`synthesis`), the
centralized observer (`central`), the networked observer over a sensor graph
(`distributed`), fixed-step simulation (`simulate`), and the config/CLI
plumbing (`config`, `cases`, `verify`, `report`, `cli`).
"""

from .subspaces import (Subspace, TolerancePolicy, canonical_projection,
                        contains, image, induced_map, intersect, kernel,
                        margin_monitor, orth_complement, preimage,
                        subspace_sum, subspaces_equal, unobservable_subspace)
from .synthesis import (GeometricDecomposition, SpectralPartition,
                        common_friend, compute_wg_star, decompose,
                        friend_gain, infimal_conditioned_invariant,
                        infimal_unobservability_subspace, spectral_split,
                        stabilizing_friend)
from .central import (CentralizedObserver, InputPartition, LinSystem,
                      check_uio_condition, classical_rank_condition, estimate,
                      solve_output_reconstruction, synthesize_centralized_uio)
from .distributed import (DistributedObserverNetwork, NodeSpec, SensorGraph,
                          SensorNode, gain_bounds,
                          joint_detectability_check, per_node_decomposition,
                          recoverability_intersection, synthesize_distributed)
from .simulate import (SignalSpec, SimConfig, Trajectory, error_metrics,
                       eval_signals, simulate_centralized,
                       simulate_distributed)
from .config import ProjectConfig, parse_config
from .cases import builtin_config
from . import errors

__version__ = "0.1.0"
