"""Command-line front end: reproducible experiment runner over all modules.

Exit status: 0 success, 1 usage/config error, 2 numerical-tolerance failure
(dominance violation or identity check out of tolerance), 3 I/O error.
Flag values override config-file values, which override built-in defaults;
the resolved configuration is echoed and embedded in every output file.

Each subcommand is one entry of ``_SUBCOMMANDS``: a handler and its flags.
A handler returns ``(payload, text, passed)``; ``main`` writes the payload to
``<command>.json``, prints the text and maps ``passed`` to exit status 0 or 2.
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
        values = [_finite(x) for x in str(text).split(",") if x != ""]
    except ValueError:
        values = []
    if not values:
        raise ValueError(
            f"expected a comma-separated list of finite floats, got {text!r}")
    return values


def _bias(text: str) -> str:
    """The text unchanged, once it reads as a bias strictly inside (0, 1)."""
    walk._parse_bias(text, "bias")
    return text


def _upper_bias_value(text: str) -> float:
    p = walk._parse_bias(text, "bias")
    if p < 0.5:
        raise ValueError(f"expected a bias in [1/2, 1), got {text!r}")
    return p


def _upper_bias(text: str) -> str:
    """The text unchanged, once it reads as a bias in [1/2, 1)."""
    _upper_bias_value(text)
    return text


def _fractions(text: str) -> str:
    """The comma list unchanged, once its entries read as biases in
    [1/2, 1) that strictly ascend."""
    values = [_upper_bias_value(entry) for entry in text.split(",")]
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"expected a strictly ascending list, got {text!r}")
    return text


def _choice(values):
    """A converter that keeps the text when it is one of ``values``."""
    def conv(text: str) -> str:
        if text not in values:
            raise ValueError(f"expected one of {'|'.join(values)}, got {text!r}")
        return text
    return conv


def _threads(text: str) -> int:
    n = int(text)
    if n < 1:
        raise ValueError(f"expected at least 1 thread, got {n}")
    return n


def _out(cfg: dict, stem: str, ext: str) -> str:
    os.makedirs(cfg["outdir"], exist_ok=True)
    return os.path.join(cfg["outdir"], f"{stem}.{ext}")


def _cmd_rw_survival(cfg: dict) -> tuple[dict, str, bool]:
    curve = walk.survival_pmf(WalkSpec(cfg["p"], cfg["k"]), cfg["horizon"],
                              cfg["mode"])
    io.write_csv(_out(cfg, "rw_survival", "csv"), ["n", "survival"],
                 enumerate(curve.values), cfg)
    values = [io.fmt_cell(v) for v in curve.values]
    return {"survival": {"mode": curve.mode, "values": values}}, "", True


def _cmd_rw_dominance(cfg: dict) -> tuple[dict, str, bool]:
    ps = [s.strip() for s in cfg["ps"].split(",")]
    rep = dominance.dominance_scan_discrete(ps, cfg["k"], cfg["horizon"],
                                            cfg["mode"])
    return ({"report": rep.to_json_obj()}, rep.to_text(),
            rep.n_violations <= verify.MAX_VIOLATIONS)


def _cmd_rw_independence(cfg: dict) -> tuple[dict, str, bool]:
    dev = walk_girsanov.check_independence_discrete(
        cfg["p"], cfg["k"], cfg["truncation"], cfg["mode"])
    # an exact deviation passes only at 0: one that rounds to 0.0 must fail
    passed = dev == 0 if cfg["mode"] == walk.MODE_RATIONAL else dev <= cfg["tol"]
    dev = float(dev)
    return ({"max_deviation": dev},
            f"max joint-vs-product deviation: {dev:.6e}", passed)


def _cmd_rw_reweight(cfg: dict) -> tuple[dict, str, bool]:
    est, bound = walk_girsanov.reweighted_survival_walk(
        cfg["p-from"], cfg["p-to"], cfg["k"], cfg["n"], cfg["truncation"])
    direct = float(walk_girsanov._float_exit_table(
        walk._parse_bias(cfg["p-to"]), cfg["k"], cfg["truncation"]).residual[cfg["n"]])
    diff = abs(est - direct)
    text = (f"reweighted {est:.12g}  direct {direct:.12g}  "
            f"diff {diff:.3e}  tail bound {bound:.3e}")
    # a tail bound that is not finite is written as null, and fails the check
    if not math.isfinite(bound):
        text += " (not finite: the check cannot pass)"
    return ({"estimate": est,
             "tail_bound": bound if math.isfinite(bound) else None,
             "direct": direct, "abs_diff": diff},
            text, verify.reweight_within(diff, bound, cfg["tol"]))


def _cmd_rw_factorization(cfg: dict) -> tuple[dict, str, bool]:
    dev = walk_girsanov.factorization_check_discrete(
        cfg["p1"], cfg["p2"], cfg["k"], cfg["n"], cfg["truncation"])
    return ({"deviation": dev}, f"factorization deviation: {dev:.6e}",
            dev <= cfg["tol"])


def _cmd_bm_survival(cfg: dict) -> tuple[dict, str, bool]:
    rows = [(lam, t, bm.drifted_survival(DriftSpec(lam, cfg["b"]), t),
             bm.SERIES_TOL)
            for lam in cfg["lambdas"] for t in cfg["times"]]
    columns = ["lambda", "t", "survival", "error_bound"]
    io.write_csv(_out(cfg, "bm_survival", "csv"), columns, rows, cfg)
    return {"rows": [dict(zip(columns, r)) for r in rows]}, "", True


def _cmd_bm_dominance(cfg: dict) -> tuple[dict, str, bool]:
    rep = bm.dominance_scan_continuous(cfg["lambdas"], cfg["b"], cfg["times"],
                                       tie_tol=cfg["tol"])
    return ({"report": rep.to_json_obj()}, rep.to_text(),
            rep.n_violations <= verify.MAX_VIOLATIONS)


def _cmd_bm_couple(cfg: dict) -> tuple[dict, str, bool]:
    stats = mc.simulate_y_coupled(
        cfg["lambdas"], cfg["y0"], cfg["dt"], cfg["time-horizon"],
        cfg["n-paths"], mc.RngStreamSpec(cfg["seed"]), level=cfg["level"])
    hits = [stats.hit_summary(i) for i in range(len(stats.lambdas))]
    return ({"violation_fraction": stats.violation_fraction,
             "pair_violation_fractions": stats.pair_violation_fractions,
             "hit_mean": [h[0] for h in hits],
             "hit_stderr": [h[1] for h in hits],
             "hit_fraction": [h[2] for h in hits]},
            f"ordering-violation step fraction: {stats.violation_fraction:.6e}",
            stats.violation_fraction <= cfg["tol"])


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


def _cmd_bm_independence(cfg: dict) -> tuple[dict, str, bool]:
    samples = _simulate_exits(cfg, cfg["lam"], "bm_independence")
    res = mc.check_independence_continuous(samples, cfg["bins"])
    return ({"statistic": res.statistic, "dof": res.dof,
             "p_value": res.p_value,
             "censored_fraction": samples.censored_fraction},
            f"chi-square {res.statistic:.4f} on {res.dof} dof, p = {res.p_value:.4g}",
            res.p_value >= cfg["alpha"])


def _cmd_bm_reweight(cfg: dict) -> tuple[dict, str, bool]:
    samples = _simulate_exits(cfg, cfg["lambda-from"], "bm_reweight")
    est = mc.reweighted_survival_bm(samples, cfg["lambda-to"], cfg["t"])
    an = bm.drifted_survival(DriftSpec(cfg["lambda-to"], cfg["b"]), cfg["t"])
    dev = abs(est.estimate - an)
    z = 0.0 if dev == 0 else dev / est.stderr if est.stderr > 0 else math.inf
    # a z that is not finite is written as null, and fails the rule below
    return ({"estimate": est.estimate, "stderr": est.stderr,
             "censored_bound": est.censored_bound, "analytic": an,
             "z_score": z if math.isfinite(z) else None},
            f"reweighted {est.estimate:.6f} +- {est.stderr:.6f}  "
            f"analytic {an:.6f}  z {z:.2f}  censored {est.censored_bound:.2e}",
            z <= cfg["z-tol"] + est.censored_bound)


def _cmd_verify_all(cfg: dict) -> tuple[dict, str, bool]:
    results = verify.run_battery(cfg["profile"], cfg["seed"], cfg["threads"])
    n_pass = sum(r.passed for r in results)
    text = "\n".join([*(r.line() for r in results),
                      f"{n_pass}/{len(results)} checks passed"])
    with open(_out(cfg, "verify_all", "txt"), "w") as fh:
        fh.write(io.config_header(cfg) + text + "\n")
    return ({"results": [dataclasses.asdict(r) for r in results]}, text,
            n_pass == len(results))


# flags shared by several subcommands: (default, converter, help text)
_SEED = (20240817, int, "master seed (64-bit integer)")
_THREADS = (1, _threads, "worker threads for path batches (count)")
_DUMP_PATHS = (0, int, "also write the large per-path CSV: 1 on, 0 off")
_MODE_HELP = f"arithmetic mode: {'|'.join(walk._MODES)}"

# name -> (handler, {flag: (default, converter, help text)}); the order of
# the entries and of their flags is the --help order
_SUBCOMMANDS: dict[str, tuple] = {
    "rw-survival": (_cmd_rw_survival, {
        "p": ("0.5", _bias, "step-up probability (dimensionless, in (0,1); '3/5' form allowed)"),
        "k": (2, int, "barrier half-width (steps)"),
        "horizon": (50, int, "largest step count n (steps)"),
        "mode": ("float", _choice(walk._MODES), _MODE_HELP),
    }),
    "rw-dominance": (_cmd_rw_dominance, {
        "ps": ("0.5,0.6,0.7,0.8,0.9", _fractions, "ascending bias grid in [1/2,1) (comma list)"),
        "k": (3, int, "barrier half-width (steps)"),
        "horizon": (200, int, "largest step count n (steps)"),
        "mode": ("rational", _choice(walk._MODES), _MODE_HELP),
    }),
    "rw-independence": (_cmd_rw_independence, {
        "p": ("0.7", _bias, "step-up probability (dimensionless)"),
        "k": (2, int, "barrier half-width (steps)"),
        "truncation": (300, int, "table truncation (steps)"),
        "mode": ("float", _choice(walk._MODES), _MODE_HELP),
        "tol": (verify.INDEPENDENCE_TOL, _finite,
                "max allowed joint-vs-product independence deviation (probability); "
                "rational mode passes only at exactly 0"),
    }),
    "rw-reweight": (_cmd_rw_reweight, {
        "p-from": ("0.5", _bias, "simulated bias (dimensionless)"),
        "p-to": ("0.7", _bias, "target bias (dimensionless)"),
        "k": (3, int, "barrier half-width (steps)"),
        "n": (10, int, "survival step count n (steps)"),
        "truncation": (400, int, "table truncation (steps)"),
        "tol": (verify.REWEIGHT_FLOOR, _finite,
                "floor under the tail bound: pass when |reweighted - direct| <= "
                "max(tail bound, tol) (probability); a tail bound that is not "
                "finite fails"),
    }),
    "rw-factorization": (_cmd_rw_factorization, {
        "p1": ("0.5", _upper_bias, "smaller bias, >= 1/2 (dimensionless)"),
        "p2": ("0.6", _upper_bias, "larger bias, < 1 (dimensionless)"),
        "k": (2, int, "barrier half-width (steps)"),
        "n": (4, int, "survival step count n (steps)"),
        "truncation": (400, int, "table truncation (steps)"),
        "tol": (verify.FACTORIZATION_TOL, _finite,
                "max allowed identity deviation (probability)"),
    }),
    "bm-survival": (_cmd_bm_survival, {
        "lambdas": ("0,0.5,1", _floats, "drift rates (1/time, comma list)"),
        "b": (1.0, _finite, "barrier half-width (length)"),
        "times": ("0.25,0.5,1,2", _floats, "evaluation times (time, comma list)"),
    }),
    "bm-dominance": (_cmd_bm_dominance, {
        "lambdas": ("0,0.5,1,2", _floats, "ascending nonnegative drift rates (1/time)"),
        "b": (1.0, _finite, "barrier half-width (length)"),
        "times": ("0.25,0.5,1,2", _floats, "evaluation times (time, comma list)"),
        "tol": (bm.DOMINANCE_TIE_TOL, _finite,
                "tie tolerance for survival comparisons (probability)"),
    }),
    "bm-couple": (_cmd_bm_couple, {
        "lambdas": ("0,0.5,1", _floats, "ascending drift rates (1/time)"),
        "y0": (0.0, _finite, "initial squared position (length^2)"),
        "dt": (1e-4, _finite, "Euler step (time)"),
        "time-horizon": (1.0, _finite, "simulation horizon (time)"),
        "n-paths": (1000, int, "number of coupled paths (count)"),
        "level": (1.0, _finite, "first-hitting level for Y (length^2)"),
        "seed": _SEED,
        "tol": (verify.COUPLED_TOL, _finite,
                "max allowed ordering-violation step fraction"),
    }),
    "bm-independence": (_cmd_bm_independence, {
        "lam": (1.0, _finite, "drift rate (1/time)"),
        "b": (1.0, _finite, "barrier half-width (length)"),
        "dt": (1e-3, _finite, "Euler step (time)"),
        "time-horizon": (30.0, _finite, "simulation horizon (time)"),
        "n-paths": (100000, int, "number of paths (count)"),
        "bins": (10, int, "equal-probability exit-time bins (count)"),
        "alpha": (verify.INDEPENDENCE_ALPHA, _finite,
                  "rejection level for the chi-square test"),
        "seed": _SEED,
        "threads": _THREADS,
        "dump-paths": _DUMP_PATHS,
    }),
    "bm-reweight": (_cmd_bm_reweight, {
        "lambda-from": (0.0, _finite, "simulated drift (1/time)"),
        "lambda-to": (1.0, _finite, "target drift (1/time)"),
        "b": (1.0, _finite, "barrier half-width (length)"),
        "t": (0.5, _finite, "survival evaluation time (time)"),
        "dt": (1e-3, _finite, "Euler step (time)"),
        "time-horizon": (30.0, _finite, "simulation horizon (time)"),
        "n-paths": (100000, int, "number of paths (count)"),
        "z-tol": (4.0, _finite,
                  "allowed deviation from the analytic value (standard errors)"),
        "seed": _SEED,
        "threads": _THREADS,
        "dump-paths": _DUMP_PATHS,
    }),
    "verify-all": (_cmd_verify_all, {
        "profile": ("desk", _choice(verify.SIZES),
                    f"battery size: {'|'.join(verify.SIZES)}"),
        "seed": _SEED,
        "threads": _THREADS,
    }),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exitdom",
        description="Exit-time stochastic domination experiments "
                    "(biased walks and drifted Brownian motion)")
    sub = parser.add_subparsers(dest="command", metavar="subcommand")
    for name, (_, flags) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=None,
                            description=f"'{name}' experiment runner")
        for flag, (default, _, help_text) in flags.items():
            sp.add_argument(f"--{flag}", default=None,
                            help=f"{help_text} [default: {default}]")
        sp.add_argument("--config", default=None,
                        help="flat key=value config file (UTF-8, '#' comments)")
        sp.add_argument("--outdir", default=None,
                        help="output directory [default: $EXITDOM_OUTDIR or '.']")
    return parser


_VALUE_FLAGS = frozenset({f"--{flag}" for _, flags in _SUBCOMMANDS.values()
                          for flag in flags} | {"--config", "--outdir"})


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
    flags = _SUBCOMMANDS[command][1]
    cfg = {}
    for flag, (default, conv, _) in flags.items():
        raw = getattr(args, flag.replace("-", "_"), None)
        if raw is None:
            raw = file_cfg.get(flag, default)
        try:
            cfg[flag] = conv(raw) if isinstance(raw, str) else raw
        except (ValueError, TypeError) as exc:
            raise ValueError(f"bad value for key '{flag}': {exc}")
    unknown = set(file_cfg) - set(flags) - {"outdir"}
    if unknown:
        raise ValueError(
            f"config key '{sorted(unknown)[0]}' is not accepted by {command}")
    if ({"p1", "p2"} <= cfg.keys()
            and walk._parse_bias(cfg["p1"]) >= walk._parse_bias(cfg["p2"])):
        raise ValueError(f"bad value for key 'p2': expected a bias above "
                         f"p1 = {cfg['p1']!r}, got {cfg['p2']!r}")
    cfg["outdir"] = io.resolve_outdir(args.outdir or file_cfg.get("outdir"))
    return cfg


def _echo(command: str, cfg: dict) -> None:
    print(f"resolved config for {command}:")
    for k in sorted(cfg):
        print(f"  {k} = {io.fmt_cell(cfg[k])}")


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
    handler = _SUBCOMMANDS[args.command][0]
    try:
        payload, text, passed = handler(cfg)
        io.write_json(_out(cfg, args.command.replace("-", "_"), "json"),
                      payload, cfg)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    if text:
        print(text)
    return 0 if passed else 2


if __name__ == "__main__":
    sys.exit(main())
