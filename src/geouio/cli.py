"""Command-line interface.

    geo-uio synth     --config cfg.json [--out DIR]
    geo-uio simulate  --config cfg.json [--out DIR]
    geo-uio verify    (--config cfg.json | --random) [--trials N] [--seed N] [--out DIR]
    geo-uio reproduce {centralized,distributed} [--out DIR]

Exit codes: 0 success, 1 configuration/usage error, 2 synthesis failure,
3 simulation divergence, 4 verification failure.  The environment variable
GEO_UIO_TOL overrides the relative rank tolerance.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import report as rpt
from .cases import builtin_config
from .config import ProjectConfig, parse_config, tolerance_from_env
from .errors import (AssumptionViolated, ConfigError, DimensionMismatch,
                     ExistenceFailed, InvarianceViolated, NonFiniteState,
                     NotConditionedInvariant, NotSolvable, SingularQ,
                     SpectrumUnassignable)
from .simulate import error_metrics, simulate_centralized, simulate_distributed
from .verify import (MARGINAL_GAP, _design, invariant_checks,
                     random_equivalence_battery, synthesis_residual_checks)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SYNTH = 2
EXIT_SIM = 3
EXIT_VERIFY = 4

_SYNTH_ERRORS = (ExistenceFailed, AssumptionViolated, SpectrumUnassignable,
                 NotSolvable, SingularQ, NotConditionedInvariant,
                 InvarianceViolated)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="geo-uio",
                     description="Geometric unknown-input observer toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="synthesize observers from a config")
    p_synth.add_argument("--config", required=True)
    p_synth.add_argument("--out", default="out")

    p_sim = sub.add_parser("simulate", help="synthesize then simulate a config")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default="out")

    p_ver = sub.add_parser("verify", help="invariant and equivalence checks")
    p_ver.add_argument("--config")
    p_ver.add_argument("--random", action="store_true",
                       help="run the randomized equivalence battery")
    p_ver.add_argument("--trials", type=int, default=500)
    p_ver.add_argument("--seed", type=int, default=42)
    p_ver.add_argument("--out")

    p_rep = sub.add_parser("reproduce", help="run a bundled demonstration")
    p_rep.add_argument("which", help="centralized | distributed")
    p_rep.add_argument("--out", default="out")
    return parser


@contextmanager
def _writing(path):
    """Report an output under ``path`` that cannot be written as a usage error."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(
            f"cannot write {exc.filename or path}: {exc.strerror or exc}") from exc


def _synthesize(cfg: ProjectConfig, tol):
    """The synthesized observer or network, its checks and its report."""
    artifact = _design(cfg, tol)
    checks = invariant_checks(artifact, cfg.spectral.alpha, cfg.system,
                              cfg.partition, tol)
    residuals = {name: c.value for name, c in checks.items()}
    if cfg.mode == "centralized":
        report = rpt.centralized_report(cfg.to_dict(), artifact, cfg.system, residuals)
    else:
        report = rpt.distributed_report(cfg.to_dict(), artifact, residuals)
    return artifact, checks, report


def _print_design(cfg: ProjectConfig, report: dict, path: Path):
    """Summarize a synthesized design whose report goes to ``path``."""
    if cfg.mode == "centralized":
        print(f"synthesized centralized observer: z_dim = "
              f"{report['dimensions']['z_dim']}, existence condition passed")
    else:
        print(f"synthesized network: N1 = {report['classes']['N1']}, "
              f"N2 = {report['classes']['N2']}, chi = {report['gains']['chi']:.4g}, "
              f"gamma = {report['gains']['gamma']:.4g}")
    print(f"report written to {path}")


def cmd_synth(cfg: ProjectConfig, out_dir, tol) -> int:
    """Synthesize and write report.json."""
    *_, report = _synthesize(cfg, tol)
    path = Path(out_dir) / "report.json"
    with _writing(path):
        rpt.write_json(path, report)
    _print_design(cfg, report, path)
    return EXIT_OK


def cmd_simulate(cfg: ProjectConfig, out_dir, tol, design=None) -> int:
    """Simulate and write the artifacts; ``design`` is an (artifact, checks,
    report) triple already synthesized."""
    if cfg.sim is None:
        raise ConfigError("config has no 'sim' block")
    artifact, _, report = design or _synthesize(cfg, tol)
    try:
        if cfg.mode == "centralized":
            traj = simulate_centralized(cfg.system, cfg.partition, artifact,
                                        cfg.signals, cfg.sim)
        else:
            traj = simulate_distributed(cfg.system, artifact, cfg.signals, cfg.sim)
    except DimensionMismatch as exc:  # e.g. observer_init that fits no observer
        raise ConfigError(str(exc)) from exc
    out = Path(out_dir)
    metrics = error_metrics(traj)
    report["metrics"] = metrics
    with _writing(out):
        rpt.write_trajectory_tables(traj, out)
        rpt.write_json(out / "report.json", report)
    final = metrics["max_final_err"]
    print(f"simulated {cfg.mode} run to t = {cfg.sim.t_end:g}: "
          f"max final error = {final:.3e}")
    print(f"artifacts written to {out}")
    return EXIT_OK


def cmd_verify(args, tol) -> int:
    failed = False
    lines = []
    battery_payload = None
    if args.random:
        if args.trials <= 0:
            raise ConfigError("--trials must be a positive integer")
        if args.seed < 0:
            raise ConfigError("--seed must be a non-negative integer")
        res = random_equivalence_battery(args.trials, args.seed, tol=tol)
        ok = res.all_agree and res.marginal_fraction < 0.05
        failed |= not ok
        lines.append(
            f"equivalence-battery       {'PASS' if ok else 'FAIL'}   "
            f"{res.agreements}/{res.scored} scored trials agree, "
            f"{len(res.marginal)} marginal excluded "
            f"(gap < {MARGINAL_GAP:g}), seed {res.seed}")
        for bad in res.disagreements:
            lines.append(f"  disagreement: {bad}")
        battery_payload = {
            "trials": res.trials, "seed": res.seed,
            "agreements": res.agreements, "scored": res.scored,
            "marginal": len(res.marginal),
            "disagreements": res.disagreements,
        }
    if args.config:
        cfg = parse_config(args.config)
        checks = synthesis_residual_checks(cfg, tol)
        worst = max((c.value for c in checks if c.comparison == "<="),
                    default=0.0)
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            failed |= not c.passed
            if c.comparison is None:
                lines.append(f"{c.name:44s}  {status}")
            else:
                lines.append(f"{c.name:44s}  {status}   {c.value:.3e} "
                             f"({c.comparison} {c.limit:g})")
        lines.append(f"worst residual: {worst:.3e}")
    if not args.random and not args.config:
        raise ConfigError("verify needs --config and/or --random")
    for ln in lines:
        print(ln)
    if args.out:
        payload = {"checks": lines}
        if battery_payload:
            payload["battery"] = battery_payload
        path = Path(args.out) / "verify.json"
        with _writing(path):
            rpt.write_json(path, payload)
    return EXIT_VERIFY if failed else EXIT_OK


def cmd_reproduce(which, out_dir, tol) -> int:
    cfg = parse_config(builtin_config(which))
    out = Path(out_dir) / which
    design = _, checks, report = _synthesize(cfg, tol)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
    _print_design(cfg, report, out / "report.json")
    try:
        code = cmd_simulate(cfg, out, tol, design)
    except (ConfigError, NonFiniteState):
        # a failed simulation leaves the synthesis report, as `synth` writes it
        with _writing(out):
            rpt.write_json(out / "report.json", report)
        raise
    if code:
        return code
    for c in checks.values():
        print(f"  {c.name}: {'PASS' if c.passed else 'FAIL'}")
    return EXIT_OK if all(c.passed for c in checks.values()) else EXIT_VERIFY


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        tol = tolerance_from_env(os.environ)
        if args.command == "synth":
            return cmd_synth(parse_config(args.config), args.out, tol)
        if args.command == "simulate":
            return cmd_simulate(parse_config(args.config), args.out, tol)
        if args.command == "verify":
            return cmd_verify(args, tol)
        if args.command == "reproduce":
            return cmd_reproduce(args.which, args.out, tol)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _SYNTH_ERRORS as exc:
        print(f"synthesis failed: {exc}", file=sys.stderr)
        return EXIT_SYNTH
    except NonFiniteState as exc:
        print(f"simulation diverged: {exc}", file=sys.stderr)
        return EXIT_SIM


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
