"""Command-line front end: reproducible experiment runner over all modules.

Exit status: 0 success, 1 usage/config error, 2 numerical-tolerance failure
(dominance violation or identity check out of tolerance), 3 I/O error.
Flag values override config-file values, which override built-in defaults;
the resolved configuration is echoed and embedded in every output file.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

from . import bm, dominance, io, mc, verify, walk, walk_girsanov
from .bm import DriftSpec
from .walk import WalkSpec


def _finite(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {text!r}")
    return x


def _floats(text: str) -> list[float]:
    try:
        return [_finite(x) for x in str(text).split(",") if x != ""]
    except ValueError:
        raise ValueError(
            f"expected a comma-separated list of finite floats, got {text!r}")


_CONVERTERS = {
    "p": str, "p-from": str, "p-to": str, "p1": str, "p2": str,
    "k": int, "horizon": int, "n": int, "truncation": int,
    "mode": str, "ps": str, "tol": _finite,
    "lambdas": _floats, "times": _floats, "b": _finite,
    "lam": _finite, "lambda-from": _finite, "lambda-to": _finite,
    "t": _finite, "dt": _finite, "time-horizon": _finite, "n-paths": int,
    "seed": int, "threads": int, "bins": int, "alpha": _finite,
    "y0": _finite, "level": _finite, "z-tol": _finite,
    "dump-paths": int, "profile": str,
}

# flag name -> (default, help text); order defines --help order
_SUBCOMMANDS: dict[str, dict] = {
    "rw-survival": {
        "p": ("0.5", "step-up probability (dimensionless, in (0,1); '3/5' form allowed)"),
        "k": (2, "barrier half-width (steps)"),
        "horizon": (50, "largest step count n (steps)"),
        "mode": ("float", "arithmetic mode: rational|float"),
    },
    "rw-dominance": {
        "ps": ("0.5,0.6,0.7,0.8,0.9", "ascending bias grid in [1/2,1) (comma list)"),
        "k": (3, "barrier half-width (steps)"),
        "horizon": (200, "largest step count n (steps)"),
        "mode": ("rational", "arithmetic mode: rational|float"),
    },
    "rw-independence": {
        "p": ("0.7", "step-up probability (dimensionless)"),
        "k": (2, "barrier half-width (steps)"),
        "truncation": (300, "table truncation (steps)"),
        "mode": ("float", "arithmetic mode: rational|float"),
        "tol": (verify.INDEPENDENCE_TOL,
                "max allowed joint-vs-product independence deviation (probability)"),
    },
    "rw-reweight": {
        "p-from": ("0.5", "simulated bias (dimensionless)"),
        "p-to": ("0.7", "target bias (dimensionless)"),
        "k": (3, "barrier half-width (steps)"),
        "n": (10, "survival step count n (steps)"),
        "truncation": (400, "table truncation (steps)"),
        "tol": (verify.REWEIGHT_FLOOR,
                "floor under the tail bound: pass when |reweighted - direct| <= "
                "max(tail bound, tol) (probability)"),
    },
    "rw-factorization": {
        "p1": ("0.5", "smaller bias, >= 1/2 (dimensionless)"),
        "p2": ("0.6", "larger bias, < 1 (dimensionless)"),
        "k": (2, "barrier half-width (steps)"),
        "n": (4, "survival step count n (steps)"),
        "truncation": (400, "table truncation (steps)"),
        "tol": (verify.FACTORIZATION_TOL, "max allowed identity deviation (probability)"),
    },
    "bm-survival": {
        "lambdas": ("0,0.5,1", "drift rates (1/time, comma list)"),
        "b": (1.0, "barrier half-width (length)"),
        "times": ("0.25,0.5,1,2", "evaluation times (time, comma list)"),
    },
    "bm-dominance": {
        "lambdas": ("0,0.5,1,2", "ascending nonnegative drift rates (1/time)"),
        "b": (1.0, "barrier half-width (length)"),
        "times": ("0.25,0.5,1,2", "evaluation times (time, comma list)"),
        "tol": (bm.DOMINANCE_TIE_TOL,
                "tie tolerance for survival comparisons (probability)"),
    },
    "bm-couple": {
        "lambdas": ("0,0.5,1", "ascending drift rates (1/time)"),
        "y0": (0.0, "initial squared position (length^2)"),
        "dt": (1e-4, "Euler step (time)"),
        "time-horizon": (1.0, "simulation horizon (time)"),
        "n-paths": (1000, "number of coupled paths (count)"),
        "level": (1.0, "first-hitting level for Y (length^2)"),
        "seed": (20240817, "master seed (64-bit integer)"),
        "tol": (verify.COUPLED_TOL, "max allowed ordering-violation step fraction"),
    },
    "bm-independence": {
        "lam": (1.0, "drift rate (1/time)"),
        "b": (1.0, "barrier half-width (length)"),
        "dt": (1e-3, "Euler step (time)"),
        "time-horizon": (30.0, "simulation horizon (time)"),
        "n-paths": (100000, "number of paths (count)"),
        "bins": (10, "equal-probability exit-time bins (count)"),
        "alpha": (verify.INDEPENDENCE_ALPHA, "rejection level for the chi-square test"),
        "seed": (20240817, "master seed (64-bit integer)"),
        "threads": (1, "worker threads for path batches (count)"),
        "dump-paths": (0, "also write the large per-path CSV: 1 on, 0 off"),
    },
    "bm-reweight": {
        "lambda-from": (0.0, "simulated drift (1/time)"),
        "lambda-to": (1.0, "target drift (1/time)"),
        "b": (1.0, "barrier half-width (length)"),
        "t": (0.5, "survival evaluation time (time)"),
        "dt": (1e-3, "Euler step (time)"),
        "time-horizon": (30.0, "simulation horizon (time)"),
        "n-paths": (100000, "number of paths (count)"),
        "z-tol": (4.0, "allowed deviation from the analytic value (standard errors)"),
        "seed": (20240817, "master seed (64-bit integer)"),
        "threads": (1, "worker threads for path batches (count)"),
        "dump-paths": (0, "also write the large per-path CSV: 1 on, 0 off"),
    },
    "verify-all": {
        "profile": ("desk", "battery size: desk|quick"),
        "seed": (20240817, "master seed (64-bit integer)"),
        "threads": (1, "worker threads for path batches (count)"),
    },
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exitdom",
        description="Exit-time stochastic domination experiments "
                    "(biased walks and drifted Brownian motion)")
    sub = parser.add_subparsers(dest="command", metavar="subcommand")
    for name, flags in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=None,
                            description=f"'{name}' experiment runner")
        for flag, (default, help_text) in flags.items():
            sp.add_argument(f"--{flag}", default=None,
                            help=f"{help_text} [default: {default}]")
        sp.add_argument("--config", default=None,
                        help="flat key=value config file (UTF-8, '#' comments)")
        sp.add_argument("--outdir", default=None,
                        help="output directory [default: $EXITDOM_OUTDIR or '.']")
    return parser


_VALUE_FLAGS = frozenset({f"--{flag}" for flags in _SUBCOMMANDS.values() for flag in flags}
                         | {"--config", "--outdir"})


def _join_flag_values(argv: list[str]) -> list[str]:
    """argv with each known flag and the token after it joined as --flag=value.

    Every subcommand flag takes exactly one value, so the token after one is
    its value, even where argparse would read it as an option string, as it
    does for -1e-3 or -inf.
    """
    out = []
    tokens = iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in _VALUE_FLAGS else None
        out.append(token if value is None else f"{token}={value}")
    return out


def _resolve(command: str, args: argparse.Namespace) -> dict:
    """Merge CLI flags over config-file values over built-in defaults."""
    file_cfg = {}
    if args.config:
        file_cfg = io.read_config_file(args.config)
    cfg = {}
    for flag, (default, _) in _SUBCOMMANDS[command].items():
        attr = flag.replace("-", "_")
        raw = getattr(args, attr, None)
        if raw is None:
            raw = file_cfg.get(flag, default)
        conv = _CONVERTERS[flag]
        try:
            cfg[flag] = conv(raw) if isinstance(raw, str) else raw
        except (ValueError, TypeError) as exc:
            raise ValueError(f"bad value for key '{flag}': {exc}")
    unknown = set(file_cfg) - set(_SUBCOMMANDS[command]) - {"outdir"}
    if unknown:
        raise ValueError(
            f"config key '{sorted(unknown)[0]}' is not accepted by {command}")
    cfg["outdir"] = io.resolve_outdir(args.outdir or file_cfg.get("outdir"))
    return cfg


def _echo(command: str, cfg: dict) -> None:
    print(f"resolved config for {command}:")
    for k in sorted(cfg):
        print(f"  {k} = {io.fmt_cell(cfg[k])}")


def _out(cfg: dict, stem: str, ext: str) -> str:
    os.makedirs(cfg["outdir"], exist_ok=True)
    return os.path.join(cfg["outdir"], f"{stem}.{ext}")


def _cmd_rw_survival(cfg: dict) -> int:
    curve = walk.survival_pmf(WalkSpec(cfg["p"], cfg["k"]), cfg["horizon"],
                              cfg["mode"])
    rows = list(enumerate(curve.values))
    io.write_csv(_out(cfg, "rw_survival", "csv"), ["n", "survival"], rows, cfg)
    io.write_json(_out(cfg, "rw_survival", "json"),
                  {"survival": curve.to_json_obj()}, cfg)
    return 0


def _dominance_report(cfg: dict, stem: str, rep) -> int:
    io.write_json(_out(cfg, stem, "json"), {"report": rep.to_json_obj()}, cfg)
    print(rep.to_text())
    return 0 if rep.n_violations <= verify.MAX_VIOLATIONS else 2


def _cmd_rw_dominance(cfg: dict) -> int:
    ps = [s.strip() for s in cfg["ps"].split(",")]
    rep = dominance.dominance_scan_discrete(ps, cfg["k"], cfg["horizon"],
                                            cfg["mode"])
    return _dominance_report(cfg, "rw_dominance", rep)


def _cmd_rw_independence(cfg: dict) -> int:
    dev = walk_girsanov.check_independence_discrete(
        cfg["p"], cfg["k"], cfg["truncation"], cfg["mode"])
    io.write_json(_out(cfg, "rw_independence", "json"),
                  {"max_deviation": float(dev)}, cfg)
    print(f"max joint-vs-product deviation: {float(dev):.6e}")
    return 0 if float(dev) <= cfg["tol"] else 2


def _cmd_rw_reweight(cfg: dict) -> int:
    est, bound = walk_girsanov.reweighted_survival_walk(
        cfg["p-from"], cfg["p-to"], cfg["k"], cfg["n"], cfg["truncation"])
    direct = walk.survival_pmf(WalkSpec(cfg["p-to"], cfg["k"]), cfg["n"]).values[cfg["n"]]
    diff = abs(est - direct)
    io.write_json(_out(cfg, "rw_reweight", "json"),
                  {"estimate": est, "tail_bound": bound,
                   "direct": float(direct), "abs_diff": diff}, cfg)
    print(f"reweighted {est:.12g}  direct {float(direct):.12g}  "
          f"diff {diff:.3e}  tail bound {bound:.3e}")
    return 0 if verify.reweight_within(diff, bound, cfg["tol"]) else 2


def _cmd_rw_factorization(cfg: dict) -> int:
    dev = walk_girsanov.factorization_check_discrete(
        cfg["p1"], cfg["p2"], cfg["k"], cfg["n"], cfg["truncation"])
    io.write_json(_out(cfg, "rw_factorization", "json"),
                  {"deviation": dev}, cfg)
    print(f"factorization deviation: {dev:.6e}")
    return 0 if dev <= cfg["tol"] else 2


def _cmd_bm_survival(cfg: dict) -> int:
    rows = []
    for lam in cfg["lambdas"]:
        for t in cfg["times"]:
            rows.append((lam, t,
                         bm.drifted_survival(DriftSpec(lam, cfg["b"]), t),
                         bm.SERIES_TOL))
    io.write_csv(_out(cfg, "bm_survival", "csv"),
                 ["lambda", "t", "survival", "error_bound"], rows, cfg)
    io.write_json(_out(cfg, "bm_survival", "json"),
                  {"rows": [{"lambda": r[0], "t": r[1], "survival": r[2],
                             "error_bound": r[3]} for r in rows]}, cfg)
    return 0


def _cmd_bm_dominance(cfg: dict) -> int:
    rep = bm.dominance_scan_continuous(cfg["lambdas"], cfg["b"], cfg["times"],
                                       tie_tol=cfg["tol"])
    return _dominance_report(cfg, "bm_dominance", rep)


def _cmd_bm_couple(cfg: dict) -> int:
    stats = mc.simulate_y_coupled(
        cfg["lambdas"], cfg["y0"], cfg["dt"], cfg["time-horizon"],
        cfg["n-paths"], mc.RngStreamSpec(cfg["seed"]), level=cfg["level"])
    hits = [stats.hit_summary(i) for i in range(len(stats.lambdas))]
    io.write_json(_out(cfg, "bm_couple", "json"),
                  {"violation_fraction": stats.violation_fraction,
                   "pair_violation_fractions": stats.pair_violation_fractions,
                   "hit_mean": [h[0] for h in hits],
                   "hit_stderr": [h[1] for h in hits],
                   "hit_fraction": [h[2] for h in hits]}, cfg)
    print(f"ordering-violation step fraction: {stats.violation_fraction:.6e}")
    return 0 if stats.violation_fraction <= cfg["tol"] else 2


def _simulate_exits(cfg: dict, lam: float, stem: str):
    """Exit samples at drift ``lam``; with dump-paths, also the per-path CSV."""
    samples = mc.simulate_exit_bm(
        DriftSpec(lam, cfg["b"]), cfg["dt"], cfg["time-horizon"],
        cfg["n-paths"], mc.RngStreamSpec(cfg["seed"]), threads=cfg["threads"])
    if cfg["dump-paths"]:
        rows = ((i, samples.times[i], int(samples.sides[i]), samples.terminal[i])
                for i in range(samples.n))
        io.write_csv(_out(cfg, f"{stem}_paths", "csv"),
                     ["path", "time", "side", "terminal"], rows, cfg)
    return samples


def _cmd_bm_independence(cfg: dict) -> int:
    samples = _simulate_exits(cfg, cfg["lam"], "bm_independence")
    res = mc.check_independence_continuous(samples, cfg["bins"])
    io.write_json(_out(cfg, "bm_independence", "json"),
                  {"statistic": res.statistic, "dof": res.dof,
                   "p_value": res.p_value,
                   "censored_fraction": samples.censored_fraction}, cfg)
    print(f"chi-square {res.statistic:.4f} on {res.dof} dof, p = {res.p_value:.4g}")
    return 0 if res.p_value >= cfg["alpha"] else 2


def _cmd_bm_reweight(cfg: dict) -> int:
    samples = _simulate_exits(cfg, cfg["lambda-from"], "bm_reweight")
    est = mc.reweighted_survival_bm(samples, cfg["lambda-to"], cfg["t"])
    an = bm.drifted_survival(DriftSpec(cfg["lambda-to"], cfg["b"]), cfg["t"])
    z = abs(est.estimate - an) / est.stderr if est.stderr > 0 else math.inf
    io.write_json(_out(cfg, "bm_reweight", "json"),
                  {"estimate": est.estimate, "stderr": est.stderr,
                   "censored_bound": est.censored_bound,
                   "analytic": an, "z_score": z}, cfg)
    print(f"reweighted {est.estimate:.6f} +- {est.stderr:.6f}  "
          f"analytic {an:.6f}  z {z:.2f}  censored {est.censored_bound:.2e}")
    return 0 if z <= cfg["z-tol"] + est.censored_bound else 2


def _cmd_verify_all(cfg: dict) -> int:
    results = verify.run_battery(cfg["profile"], cfg["seed"], cfg["threads"])
    n_pass = sum(r.passed for r in results)
    text = "".join(f"{r.line()}\n" for r in results)
    text += f"{n_pass}/{len(results)} checks passed\n"
    with open(_out(cfg, "verify_all", "txt"), "w") as fh:
        fh.write(io.config_header(cfg) + text)
    io.write_json(_out(cfg, "verify_all", "json"),
                  {"results": [dataclasses.asdict(r) for r in results]}, cfg)
    print(text, end="")
    return 0 if n_pass == len(results) else 2


_HANDLERS = {
    "rw-survival": _cmd_rw_survival,
    "rw-dominance": _cmd_rw_dominance,
    "rw-independence": _cmd_rw_independence,
    "rw-reweight": _cmd_rw_reweight,
    "rw-factorization": _cmd_rw_factorization,
    "bm-survival": _cmd_bm_survival,
    "bm-dominance": _cmd_bm_dominance,
    "bm-couple": _cmd_bm_couple,
    "bm-independence": _cmd_bm_independence,
    "bm-reweight": _cmd_bm_reweight,
    "verify-all": _cmd_verify_all,
}


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_join_flag_values(argv))
    except SystemExit as exc:
        # argparse uses status 2 for usage errors and 0 for --help
        return 0 if exc.code == 0 else 1
    if args.command is None:
        parser.print_usage()
        return 1
    try:
        cfg = _resolve(args.command, args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _echo(args.command, cfg)
    try:
        return _HANDLERS[args.command](cfg)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
