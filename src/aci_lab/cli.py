"""Command-line entry point.

Subcommands mirror the harness: ``online`` and ``offline`` run one
experiment, ``sweep`` runs the calibration-fraction grid, ``lemma-stress``
runs every predictor against adversarial synthetic streams and checks the
level-confinement and coverage bounds, ``report`` re-aggregates trace
files and counts their boundary steps, empty and infinite sets.  A flat
key=value config file can seed any invocation; flags override the file.
"""

import argparse
import os
import sys
from dataclasses import fields

from .aci import confinement_interval
from .harness import (ConfigError, ExperimentConfig, _check_levels, build_config, emit_sweep,
                      lemma_stress_matrix, parse_config_file, parse_trace, run_offline,
                      run_online, run_sweep, value_text, write_run_outputs, format_float)
from .metrics import summarize_run


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one ``error:`` line, as a bad value is."""

    def error(self, message):
        raise ConfigError(message)


def _add_flag(p: argparse.ArgumentParser, f, **kw) -> None:
    """The flag of ExperimentConfig field ``f``: a switch for a bool; any
    other passes its text to ``build_config``, which parses it."""
    if f.type is bool:
        kw.update(action="store_const", const="true")
    default = "unset" if f.default is None else value_text(f.default)
    kw.setdefault("help", f"{f.metadata['help']} (default {default})")
    p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, **kw)


def _config_from_args(args) -> dict:
    """The config file's settings, then every flag given over them."""
    mapping = parse_config_file(args.config) if getattr(args, "config", None) else {}
    for f in fields(ExperimentConfig):
        if getattr(args, f.name, None) is not None:
            mapping[f.name] = getattr(args, f.name)
    return mapping


def _print_summary(result) -> None:
    s = result.summary
    print(f"dataset={result.dataset_name} predictor={result.config.predictor} "
          f"n={s.n_steps} gamma={format_float(result.gamma)}")
    parts = [f"mean_err={format_float(s.mean_err)}",
             f"bound={format_float(s.bound)}",
             f"bound_satisfied={s.bound_satisfied}"]
    if s.oe is not None:
        parts.append(f"oe={format_float(s.oe)}")
    if s.mean_winkler_finite is not None:
        parts.append(f"winkler={format_float(s.mean_winkler_finite)}")
    if s.mean_width_finite is not None:
        parts.append(f"width={format_float(s.mean_width_finite)}")
    if s.frac_inf is not None:
        parts.append(f"frac_inf={format_float(s.frac_inf)}")
    print("  " + " ".join(parts))


def main(argv=None) -> int:
    parser = _Parser(
        prog="aci-lab",
        description="online set prediction under adaptive error-rate control")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (("online", "stream one dataset through an online predictor"),
                            ("offline", "fixed train/test run with a split predictor"),
                            ("sweep", "calibration-fraction grid with seeded trials"),
                            ("lemma-stress",
                             "confinement and coverage checks across all predictors")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key=value config file")
        for f in fields(ExperimentConfig):
            _add_flag(p, f)

    p = sub.add_parser("report", help="re-aggregate existing trace files")
    p.add_argument("traces", nargs="+", help="trace CSV paths")
    for f in fields(ExperimentConfig):
        if f.name in ("eps", "eps1", "gamma"):
            _add_flag(p, f, required=f.name != "eps1", help=f.metadata["help"])

    try:
        return _dispatch(parser.parse_args(argv))
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    cfg = build_config(_config_from_args(args))

    if args.command == "report":
        _check_levels(cfg)
        for path in args.traces:
            records = parse_trace(path)
            s = summarize_run(records, cfg.eps, cfg.resolved_eps1(), cfg.gamma)
            print(f"{path}: n={s.n_steps} mean_err={format_float(s.mean_err)} "
                  f"bound={format_float(s.bound)} satisfied={s.bound_satisfied}")
            low = sum(r.eps_used <= 0.0 for r in records)
            high = sum(r.eps_used >= 1.0 for r in records)
            print(f"  boundary_steps={low + high} (eps<=0: {low}, eps>=1: {high}) "
                  f"empty_sets={sum(r.is_empty for r in records)} "
                  f"infinite_sets={sum(r.is_infinite for r in records)}")
        return 0

    if args.command in ("online", "offline"):
        result = (run_online if args.command == "online" else run_offline)(cfg)
        _print_summary(result)
        if cfg.out:
            paths = write_run_outputs(cfg.out, result)
            print("  wrote " + " ".join(sorted(paths.values())))
        return 0

    if args.command == "sweep":
        sweep = run_sweep(cfg)
        for frac, method, metric, mean, half, n in sweep.rows:
            frac_s = "-" if frac is None else format_float(frac)
            print(f"cal={frac_s} {method} {metric} = {format_float(mean)} "
                  f"+/- {format_float(half)} (T={n})")
        if cfg.out:
            os.makedirs(cfg.out, exist_ok=True)
            path = os.path.join(cfg.out, "sweep.csv")
            emit_sweep(path, sweep)
            print(f"wrote {path}")
        return 0

    # lemma-stress
    failures = 0
    for pid, stream, result in lemma_stress_matrix(eps=cfg.eps, delta=cfg.delta,
                                                   seed=cfg.seed):
        lo, hi = confinement_interval(result.gamma)
        confined = lo <= result.eps_min and result.eps_max <= hi
        ok = confined and result.summary.bound_satisfied
        failures += 0 if ok else 1
        status = "ok" if ok else "FAIL"
        print(f"[{status}] {pid:12s} {stream:16s} "
              f"mean_err={format_float(result.summary.mean_err)} "
              f"bound={format_float(result.summary.bound)} "
              f"eps_range=[{format_float(result.eps_min)}, {format_float(result.eps_max)}]")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
