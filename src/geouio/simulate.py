"""Deterministic fixed-step simulation of plant plus observers.

Both modes run through one kernel.  The stacked state s = (x, observer
states) obeys s' = M s + G u(t) + lift . sign(K s), and each observer's error
is read off linearly as err_i = D_i s.  A centralized observer is the case
with no sign coupling (K has no rows); a network stacks every class-2 sign
coupling into one K, and all node couplings see the same stage snapshot.

The centralized observer is carried in (x, zeta) coordinates, where
zeta = P_Wg x - z is the autonomous quotient error.  This is the same ODE as
the (x, z) form under a constant linear change of variables (fixed-step
Runge-Kutta commutes with such changes), but it keeps the error observable in
floating point even when the plant itself grows by many orders of magnitude.
For the same reason its error is formed as E zeta, never as x - xhat.

Integration does not call the RHS.  One explicit Runge-Kutta step of the
kernel is affine in the state and in the stage drives w_j = G u(t + c_j h)
+ lift sigma_j, so it is precomputed once per run from the method's tableau
as a step operator s+ = T s + sum_j W_j w_j (T = R(hM), the method's
stability polynomial), together with the stage projections K s_i = P_i s +
sum_{j<i} Pi_ij w_j that the sign term needs.  Inputs are evaluated for a
whole chunk of steps at once.

Most steps are not taken one at a time.  The region pattern of a step holds,
for every stage sign row, whether its argument lies below the boundary layer,
inside it or above it (in exact mode: its sign).  While the pattern holds,
each sigma_j is affine in the state, so the step is one affine map
s+ = T_p s + U_p u + c_p and a run of steps is a linear recurrence.
``_integrate`` computes up to a chunk of such steps at once with a doubling
scan, recomputes every stage's sign argument of those steps, the first
included, with one product, and keeps the steps before the first one whose
pattern differs.  The per-step path ``_StepOperator.advance`` then takes the
next step, and the affine step of that step's pattern is built for the next
scan.  After a short run the per-step path takes a longer stretch of steps,
doubled while runs stay short, so that a chattering sign term costs no
wasted scans or builds.  ``advance`` is also the reference the scan is tested
against.  A centralized kernel has no sign rows: each chunk is one scan.
"""

from __future__ import annotations

import math

import numpy as np

from .central import CentralizedObserver, InputPartition, LinSystem
from .distributed import N1, N2, DistributedObserverNetwork
from .errors import DimensionMismatch, NonFiniteState
from .subspaces import _block_diag

SIGNAL_KINDS = ("sin", "cos", "const")


class SignalSpec:
    """One input channel: amplitude * kind(frequency * t + phase)."""

    __slots__ = ("kind", "amplitude", "frequency", "phase")

    def __init__(self, kind: str, amplitude: float = 1.0,
                 frequency: float = 1.0, phase: float = 0.0):
        if kind not in SIGNAL_KINDS:
            raise DimensionMismatch(f"unknown signal kind {kind!r}")
        self.kind = kind
        self.amplitude = amplitude
        self.frequency = frequency
        self.phase = phase

    def __call__(self, t):
        """Channel value at time t, or at each time of an array t."""
        t = np.asarray(t, dtype=float)
        if self.kind == "const":
            return np.full(t.shape, self.amplitude)
        wave = np.sin if self.kind == "sin" else np.cos
        return self.amplitude * wave(self.frequency * t + self.phase)


def eval_signals(specs, t) -> np.ndarray:
    """Stack the channel values at time t: shape (m,), or t.shape + (m,)."""
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape + (len(specs),))
    for j, s in enumerate(specs):
        out[..., j] = s(t)
    return out


class SimConfig:
    """Fixed-step integration settings."""

    __slots__ = ("t_end", "x0", "dt", "method", "sign_mode", "eps_bl",
                 "observer_init", "record_stride", "divergence_guard")

    def __init__(self, t_end: float, x0: np.ndarray, dt: float = 1e-3,
                 method: str = "rk4", sign_mode: str = "boundary_layer",
                 eps_bl: float = 1e-3, observer_init: tuple | None = None,
                 record_stride: int = 1, divergence_guard: float = 1e12):
        x0 = np.asarray(x0, dtype=float).ravel()
        if not np.isfinite(x0).all():
            raise DimensionMismatch("x0 has non-finite entries")
        if not (t_end > 0):
            raise DimensionMismatch("t_end must be positive")
        if not (0 < dt < t_end):
            raise DimensionMismatch("dt must satisfy 0 < dt < t_end")
        if method not in ("euler", "rk4"):
            raise DimensionMismatch(f"unknown method {method!r}")
        if sign_mode not in ("exact", "boundary_layer"):
            raise DimensionMismatch(f"unknown sign_mode {sign_mode!r}")
        if sign_mode == "boundary_layer" and not (eps_bl > 0):
            raise DimensionMismatch("eps_bl must be positive")
        if not (isinstance(record_stride, int) and record_stride >= 1):
            raise DimensionMismatch("record_stride must be a positive integer")
        if not (divergence_guard > 0):
            raise DimensionMismatch("sim.divergence_guard must be positive, "
                                    f"got {divergence_guard}")
        self.t_end = t_end
        self.x0 = x0
        self.dt = dt
        self.method = method
        self.sign_mode = sign_mode
        self.eps_bl = eps_bl
        self.observer_init = observer_init  # per-observer initial states; zeros if None
        self.record_stride = record_stride
        self.divergence_guard = divergence_guard

    def sign_fn(self):
        """The sign term as f(v, out=None), exact or boundary-layer."""
        if self.sign_mode == "exact":
            return np.sign
        eps = self.eps_bl

        def clamp(v, out=None):  # np.clip(v / eps, -1, 1) without its wrapper
            return np.minimum(np.maximum(np.divide(v, eps, out=out), -1.0,
                                         out=out), 1.0, out=out)

        return clamp


# Rows per block of every quantity derived from the recorded states.  A
# product over a block is not always bit-equal to the same rows of a product
# over a longer array (a one-row product is not even the same BLAS call), so
# estimates, error norms and written rows are always computed over the same
# absolute blocks [k B, (k + 1) B): a value's bits do not depend on which rows
# were asked for, or on which process formats them.
_BLOCK_ROWS = 1024


def _row_blocks(start: int, stop: int, rows: int):
    """(a, b) of every absolute block [a, b), cut at ``rows``, that meets
    rows ``start:stop``."""
    return [(a, min(a + _BLOCK_ROWS, rows))
            for a in range(start - start % _BLOCK_ROWS, stop, _BLOCK_ROWS)]


class Trajectory:
    """Recorded run: times, stacked states and each observer's error norm.

    ``states`` holds the recorded stacked states s, whose leading columns are
    the plant state ``x``.  Observer i's estimate error is D[i] s and its
    autonomous quotient error (the coordinate whose dynamics are governed by
    the stable induced map ``quotient_maps[i]``) is Q[i] s.  Only what cannot
    be derived is kept: the estimates ``xhat`` and the quotient errors
    ``quotient_err`` are computed on access, and writers take the estimates
    block by block from ``estimates``.
    """

    __slots__ = ("times", "states", "D", "Q", "err_norm", "labels",
                 "quotient_maps")

    def __init__(self, times: np.ndarray, states: np.ndarray, D: tuple,
                 Q: tuple, err_norm: tuple, labels: tuple,
                 quotient_maps: tuple):
        T = len(times)
        if states.shape[0] != T or any(len(e) != T for e in err_norm):
            raise DimensionMismatch("trajectory arrays must share their length")
        self.times = times
        self.states = states
        self.D = D
        self.Q = Q
        self.err_norm = err_norm
        self.labels = labels
        self.quotient_maps = quotient_maps

    @property
    def x(self) -> np.ndarray:
        return self.states[:, :self.D[0].shape[0]]

    @property
    def xhat(self) -> tuple:
        return self.estimates(0, len(self.times))

    @property
    def quotient_err(self) -> tuple:
        return tuple(self.states @ Q.T for Q in self.Q)

    def estimates(self, start: int, stop: int) -> tuple:
        """Every observer's estimate xhat_i = x - s D_i^T over rows
        ``start:stop``, each computed over whole absolute blocks."""
        rows, n = len(self.times), self.D[0].shape[0]
        out = tuple(np.empty((stop - start, n)) for _ in self.D)
        for a, b in _row_blocks(start, stop, rows):
            s = self.states[a:b]
            lo, hi = max(start, a), min(stop, b)
            for o, D in zip(out, self.D):
                o[lo - start:hi - start] = (s[:, :n] - s @ D.T)[lo - a:hi - a]
        return out


def _n_steps(cfg: SimConfig) -> int:
    return int(math.floor(cfg.t_end / cfg.dt + 1e-9))


class _Kernel:
    """s' = M s + G u(t) + lift . sign(K s), with x = s[:n] the plant state.

    Observer i has error err_i = D[i] s and quotient error Q[i] s, whose
    dynamics are governed by the induced map ``quotient_maps[i]``.
    """

    __slots__ = ("n", "M", "G", "K", "lift", "s0", "labels", "D", "Q",
                 "quotient_maps")

    def __init__(self, n: int, M: np.ndarray, G: np.ndarray, K: np.ndarray,
                 lift: np.ndarray, s0: np.ndarray, labels: tuple, D: tuple,
                 Q: tuple, quotient_maps: tuple):
        self.n = n
        self.M = M
        self.G = G
        self.K = K
        self.lift = lift
        self.s0 = s0
        self.labels = labels
        self.D = D
        self.Q = Q
        self.quotient_maps = quotient_maps


# Explicit tableaux (a, b, c): stage i combines the slopes of stages j < i
# with weights a[i], the step combines all slopes with weights b, and stage i
# is evaluated at t + c[i] h.
_TABLEAUX = {
    "euler": (((),), (1.0,), (0.0,)),
    "rk4": (((), (0.5,), (0.0, 0.5), (0.0, 0.0, 1.0)),
            (1 / 6, 1 / 3, 1 / 3, 1 / 6), (0.0, 0.5, 0.5, 1.0)),
}

# Steps whose inputs are evaluated together, and the longest scan.
_CHUNK = 256
# Chattering guard: a scan cut short by a region change after fewer than
# _SHORT_RUN steps hands the next `stretch` steps to the per-step path.  The
# stretch starts at _STRETCH, doubles on every further short run up to
# _MAX_STRETCH and starts again after a long run.
_SHORT_RUN = 8
_STRETCH = 4
_MAX_STRETCH = 1024


class _StepOperator:
    """One explicit Runge-Kutta step of a kernel, as fixed maps.

    With S stages, stage inputs u_j = u(t + c_j h), stage signs sigma_j =
    sign(K s_j) and stage drives w_j = G u_j + lift sigma_j, a step is
    s+ = T s + sum_j W_j w_j and stage i sees K s_i = P_i s +
    sum_{j<i} Pi_ij w_j.  Both act on the step buffer
    (u_1..u_S, s, sigma_1..sigma_S): ``step`` = [W_j G .., T, W_j lift ..]
    and ``stages[i]`` = [Pi_ij G .., P_i, Pi_ij lift ..] (j < i), which reads
    only the buffer's head, ahead of sigma_i.
    """

    __slots__ = ("offsets", "stages", "step", "sign", "eps")

    def __init__(self, offsets: np.ndarray, stages: tuple, step: np.ndarray,
                 sign, eps: float | None):
        self.offsets = offsets  # stage times c_j h
        self.stages = stages    # (r, S m + dim + i r) for stage i; none if r = 0
        self.step = step        # (dim, S m + dim + S r)
        self.sign = sign
        self.eps = eps          # boundary-layer width; None for the exact sign

    def inputs(self, t, signals) -> np.ndarray:
        """Stage inputs (u_1..u_S) of the steps starting at the times t."""
        return eval_signals(signals, t[:, None] + self.offsets).reshape(len(t), -1)

    def advance(self, s, u, signs=None) -> np.ndarray:
        """States after consecutive steps from s, step j with stage inputs u[j].

        Without sign rows a step is just s+ = T s + (W G u).  If given,
        ``signs`` receives the last step's stage signs (sigma_1..sigma_S).
        """
        dim = s.size
        buf = np.empty(self.step.shape[1])
        inputs, cur = buf[:u.shape[1]], buf[u.shape[1]:u.shape[1] + dim]
        cur[:] = s
        slots = []  # (stage map, buffer head it reads, slot of its sign)
        for Ki in self.stages:
            w = Ki.shape[1]
            slots.append((Ki, buf[:w], buf[w:w + Ki.shape[0]]))
        step, sign = self.step, self.sign
        states = np.empty((len(u), dim))
        for uj, out in zip(u, states):
            inputs[:] = uj
            for Ki, head, sig in slots:
                sign(np.dot(Ki, head), sig)
            cur[:] = out[:] = np.dot(step, buf)
        if signs is not None:
            signs[:] = buf[u.shape[1] + dim:]
        return states

    def affine(self, pattern) -> _AffineStep:
        """The step while every stage sign row stays in its ``pattern`` region.

        An entry -1 or +1 fixes sigma at that value.  An entry 0 is the
        boundary layer's linear region, sigma = v / eps, or in exact mode
        sign(v) = 0.  Each sigma_i is then affine in z = (u, s, 1), stage by
        stage, and so are the stage arguments v_i and the step.
        """
        size = pattern.size
        head = self.step.shape[1] - size
        r = size // len(self.offsets)
        V = np.zeros((size, head + 1))       # stage arguments as maps of z
        sigma = np.zeros((size, head + 1))   # stage signs as maps of z
        sigma[:, head] = pattern
        for i, Ki in enumerate(self.stages):
            rows = slice(i * r, (i + 1) * r)
            V[rows, :head] = Ki[:, :head]
            V[rows] += Ki[:, head:] @ sigma[:i * r]
            if self.eps is not None:
                lin = np.flatnonzero(pattern[rows] == 0) + i * r
                sigma[lin] = V[lin] / self.eps
        F = self.step[:, head:] @ sigma
        F[:, :head] += self.step[:, :head]
        m = head - self.step.shape[0]
        powers = [F[:, m:head].T.copy()]     # (T^(2^k))^T
        while 1 << len(powers) < _CHUNK:
            powers.append(powers[-1] @ powers[-1])
        return _AffineStep(pattern=pattern, drive=F[:, :m].T.copy(),
                           const=F[:, head].copy(), powers=tuple(powers),
                           args=V.T.copy(), sign=self.sign)


class _AffineStep:
    """The step under one region pattern: s+ = T s + U u + c.

    ``args`` maps the row (u, s, 1) to the stage sign arguments v, whose
    regions tell whether the pattern still holds.
    """

    __slots__ = ("pattern", "drive", "const", "powers", "args", "sign")

    def __init__(self, pattern: np.ndarray, drive: np.ndarray,
                 const: np.ndarray, powers: tuple, args: np.ndarray, sign):
        self.pattern = pattern
        self.drive = drive      # U^T
        self.const = const      # c
        self.powers = powers    # (T^(2^k))^T, k = 0, 1, ...
        self.args = args        # (S m + dim + 1, S r)
        self.sign = sign

    def scan(self, s, u) -> np.ndarray:
        """States after the leading steps from s whose pattern is this one.

        All len(u) steps are computed as one linear recurrence by a doubling
        scan; the result is cut before the first step, the first one
        included, whose stage arguments leave the pattern's regions.
        """
        y = u @ self.drive + self.const
        y[0] += s @ self.powers[0]
        for k, P in enumerate(self.powers):
            d = 1 << k
            if d >= len(y):
                break
            y[d:] += y[:-d] @ P
        if not self.pattern.size:
            return y
        m, A = u.shape[1], self.args
        v = u @ A[:m] + np.vstack([s, y[:-1]]) @ A[m:-1] + A[-1]
        held = (np.trunc(self.sign(v)) == self.pattern).all(axis=1)
        return y if held.all() else y[:held.argmin()]


class _ScanCounts:
    """Steps taken by the scan and by the per-step path, and region changes."""

    __slots__ = ("scanned", "oracle", "region_changes")

    def __init__(self, scanned: int = 0, oracle: int = 0,
                 region_changes: int = 0):
        self.scanned = scanned
        self.oracle = oracle
        self.region_changes = region_changes


def _step_operator(kernel: _Kernel, cfg: SimConfig) -> _StepOperator:
    """Precompute the step maps from the tableau of ``cfg.method``."""
    a, b, c = _TABLEAUX[cfg.method]
    h, S = cfg.dt, len(b)
    M, K, r = kernel.M, kernel.K, kernel.K.shape[0]
    dim = M.shape[0]
    # every stage state and slope as a map of (s, w_1, ..., w_S)
    base = np.eye(dim, (S + 1) * dim)
    stage_states, slopes = [], []
    for i in range(S):
        X = base + h * sum(aij * k for aij, k in zip(a[i], slopes))
        stage_states.append(X)
        slopes.append(M @ X + np.eye(dim, (S + 1) * dim, (i + 1) * dim))
    X_out = base + h * sum(bi * k for bi, k in zip(b, slopes))
    # the same maps acting on the step buffer (u_1..u_S, s, sigma_1..sigma_S)
    G, lift = np.kron(np.eye(S), kernel.G), np.kron(np.eye(S), kernel.lift)
    head = G.shape[1] + dim

    def on_buffer(X):
        return np.hstack([X[:, dim:] @ G, X[:, :dim], X[:, dim:] @ lift])

    return _StepOperator(
        offsets=np.asarray(c) * h,
        stages=tuple((K @ on_buffer(X))[:, :head + i * r]
                     for i, X in enumerate(stage_states) if r),
        step=on_buffer(X_out), sign=cfg.sign_fn(),
        eps=cfg.eps_bl if cfg.sign_mode == "boundary_layer" else None)


def _integrate(kernel: _Kernel, signals, cfg: SimConfig,
               counts: _ScanCounts | None = None) -> np.ndarray:
    """Fixed-step integration collecting every ``record_stride``-th state.

    ``owed`` counts the steps the per-step path still takes: one at the start
    and after a region change, a stretch after a short run.  When it reaches
    zero, the affine step of the last step's region pattern is built and
    scanned until the pattern changes (see the module docstring); ``counts``,
    if given, tallies how.  The divergence guard checks every step: each batch
    of states is checked as it is taken, and the first offending step is the
    one reported.
    """
    op = _step_operator(kernel, cfg)
    counts = _ScanCounts() if counts is None else counts
    n_steps, stride, guard = _n_steps(cfg), cfg.record_stride, cfg.divergence_guard
    recs = np.empty((n_steps // stride + 1, kernel.s0.size))
    recs[0] = s = kernel.s0
    row = 1
    signs = np.empty(len(op.offsets) * kernel.K.shape[0])
    current = None          # affine step of the pattern in force
    stretch, owed = _STRETCH, 1
    for k0 in range(0, n_steps, _CHUNK):
        u = op.inputs(np.arange(k0, min(k0 + _CHUNK, n_steps)) * cfg.dt, signals)
        k = k0
        while k < k0 + len(u):
            rest = u[k - k0:]
            with np.errstate(over="ignore", invalid="ignore"):
                if owed:
                    states = op.advance(s, rest[:owed], signs)
                    owed -= len(states)
                    counts.oracle += len(states)
                    if not owed:  # scan on with the last step's pattern
                        current = op.affine(np.trunc(signs))
                else:
                    states = current.scan(s, rest)
                    counts.scanned += len(states)
                    if len(states) >= _SHORT_RUN:
                        stretch = _STRETCH
                    if len(states) < len(rest):  # the pattern changed
                        counts.region_changes += 1
                        owed = 1
                        if len(states) < _SHORT_RUN:
                            owed, stretch = stretch, min(2 * stretch, _MAX_STRETCH)
                bad = (~np.isfinite(states).all(axis=1)
                       | (np.abs(states).max(axis=1) > guard))
            if bad.any():
                t = float((k + bad.argmax() + 1) * cfg.dt)
                raise NonFiniteState(
                    f"state left the bounded region at t = {t:.6g} "
                    f"(max |state| > {guard:.3g} or non-finite)", t=t)
            kept = states[(stride - 1 - k) % stride::stride]
            recs[row:row + len(kept)] = kept
            row += len(kept)
            k += len(states)
            if len(states):
                s = states[-1]
    return recs


def _run(kernel: _Kernel, signals, cfg: SimConfig) -> Trajectory:
    """Integrate the kernel and take every observer's error norm off the
    states, block by block."""
    recs = _integrate(kernel, signals, cfg)
    rows = recs.shape[0]
    times = np.arange(rows, dtype=float)
    times *= cfg.dt * cfg.record_stride
    err_norm = tuple(np.empty(rows) for _ in kernel.D)
    for a, b in _row_blocks(0, rows, rows):
        for out, D in zip(err_norm, kernel.D):
            out[a:b] = np.linalg.norm(recs[a:b] @ D.T, axis=1)
    return Trajectory(times=times, states=recs, D=kernel.D, Q=kernel.Q,
                      err_norm=err_norm, labels=kernel.labels,
                      quotient_maps=kernel.quotient_maps)


def _check_plant_inputs(sys: LinSystem, signals, cfg: SimConfig):
    if len(signals) != sys.m:
        raise DimensionMismatch("need one signal per input channel")
    if cfg.x0.size != sys.n:
        raise DimensionMismatch("x0 dimension mismatch")


def _observer_init(cfg: SimConfig, labels, z_dims) -> list:
    """Initial observer states: zeros when unset, else one per observer."""
    if cfg.observer_init is None:
        return [np.zeros(d) for d in z_dims]
    if len(cfg.observer_init) != len(z_dims):
        raise DimensionMismatch(
            f"observer_init needs one initial state per observer "
            f"({len(z_dims)}), got {len(cfg.observer_init)}")
    out = []
    for i, (label, d, v) in enumerate(zip(labels, z_dims, cfg.observer_init)):
        v = np.asarray(v, dtype=float).ravel()
        if v.size != d:
            raise DimensionMismatch(f"{label} initial state must have length {d}")
        if not np.isfinite(v).all():
            raise DimensionMismatch(f"observer_init entry {i} has non-finite entries")
        out.append(v)
    return out


def _central_kernel(sys: LinSystem, obs: CentralizedObserver,
                    cfg: SimConfig) -> _Kernel:
    """Plant plus quotient error zeta: M = blkdiag(A, Abar_L), no sign term."""
    n, q = sys.n, obs.z_dim
    (z0,) = _observer_init(cfg, ("node1",), (q,))
    return _Kernel(
        n=n, M=_block_diag(sys.A, obs.Abar_L),
        G=np.vstack([sys.B, np.zeros((q, sys.m))]),
        K=np.zeros((0, n + q)), lift=np.zeros((n + q, 0)),
        s0=np.concatenate([cfg.x0, obs.P_Wg @ cfg.x0 - z0]), labels=("node1",),
        D=(np.hstack([np.zeros((n, n)), obs.E]),),  # err = E zeta
        Q=(np.hstack([np.zeros((q, n)), np.eye(q)]),),
        quotient_maps=(obs.Abar_L,))


def _network_kernel(sys: LinSystem, net: DistributedObserverNetwork,
                    cfg: SimConfig) -> _Kernel:
    """Plant plus every node's state, with all class-2 sign couplings stacked."""
    n, m = sys.n, sys.m
    nodes = net.nodes
    labels = tuple(f"node{nd.node_id}" for nd in nodes)
    z_dims = [nd.z_dim for nd in nodes]
    z0 = _observer_init(cfg, labels, z_dims)
    offs = [n + sum(z_dims[:i]) for i in range(len(nodes))]
    dim = n + sum(z_dims)
    # estimate maps xhat_i = H_i s: F C x + E z_i (class 1), own state (class 2)
    H = [nd.F @ nd.C @ np.eye(n, dim) + nd.E @ np.eye(nd.z_dim, dim, off)
         if nd.node_class == N1 else np.eye(n, dim, off)
         for nd, off in zip(nodes, offs)]
    D = [np.eye(n, dim) - Hi for Hi in H]
    adj = net.graph.adjacency
    # consensus drive sum_j a_ij (xhat_j - xhat_i) as a map of s
    cons = [sum((H[j] for j in np.flatnonzero(adj[i])), -adj[i].sum() * H[i])
            for i in range(len(nodes))]
    M = _block_diag(sys.A, np.zeros((dim - n, dim - n)))
    G = np.vstack([sys.B, np.zeros((dim - n, m))])
    n_sign = sum(nd.Wg_basis.shape[1] for nd in nodes if nd.node_class == N2)
    K, lift = np.zeros((n_sign, dim)), np.zeros((dim, n_sign))
    Q, r = [], 0
    for i, (nd, off) in enumerate(zip(nodes, offs)):
        rows = slice(off, off + nd.z_dim)
        is_n1 = nd.node_class == N1
        R = nd.P_Wstar if is_n1 else np.eye(n)  # a node's state tracks R x
        blk = nd.consensus_block()
        M[rows, :n] -= R @ (nd.L @ nd.C)
        M[rows, rows] += nd.Abar_L if is_n1 else nd.A_cl
        M[rows, :] += net.chi * (R @ blk) @ (blk.T @ cons[i])
        G[rows, :] = R @ nd.B_known @ np.eye(m)[list(nd.known_cols)]
        if is_n1:
            # leading block of (P_Wstar x - z): the chart stacks [P_Wg; V^T]
            q = nd.P_Wg.shape[0]
            Q.append(nd.P_Wg @ np.eye(n, dim) - np.eye(q, dim, off))
        else:
            k = blk.shape[1]
            K[r:r + k] = blk.T @ cons[i]
            lift[rows, r:r + k] = net.gamma * blk
            r += k
            Q.append(nd.P_Wg @ D[i])
    return _Kernel(n=n, M=M, G=G, K=K, lift=lift,
                   s0=np.concatenate([cfg.x0, *z0]), labels=labels, D=tuple(D),
                   Q=tuple(Q), quotient_maps=tuple(nd.Abarbar for nd in nodes))


def simulate_centralized(sys: LinSystem, part: InputPartition,
                         obs: CentralizedObserver, signals,
                         cfg: SimConfig) -> Trajectory:
    """Integrate the plant and the observer's quotient error jointly."""
    _check_plant_inputs(sys, signals, cfg)
    return _run(_central_kernel(sys, obs, cfg), signals, cfg)


def simulate_distributed(sys: LinSystem, net: DistributedObserverNetwork,
                         signals, cfg: SimConfig) -> Trajectory:
    """Synchronous-snapshot integration of the plant and every node."""
    _check_plant_inputs(sys, signals, cfg)
    return _run(_network_kernel(sys, net, cfg), signals, cfg)


def error_metrics(traj: Trajectory, tol: float = 1e-2,
                  t_star: float | None = None) -> dict:
    """Final error, time-to-tolerance and tail sup-norm, per observer."""
    out = {}
    times = traj.times
    if t_star is None:
        t_star = 0.75 * times[-1]
    tail = times >= t_star
    for label, err in zip(traj.labels, traj.err_norm):
        above = np.nonzero(err >= tol)[0]
        if above.size == 0:
            t_tol = float(times[0])
        elif above[-1] + 1 < len(times):
            t_tol = float(times[above[-1] + 1])
        else:
            t_tol = None  # never settles below tol
        out[label] = {
            "final_err": float(err[-1]),
            "time_to_tolerance": t_tol,
            "tolerance": tol,
            "sup_err_after_t_star": float(err[tail].max()),
            "t_star": float(t_star),
        }
    out["max_final_err"] = float(max(err[-1] for err in traj.err_norm))
    return out
