"""Command-line entry point.

Two subcommands:

  ampvbic run   --config cfg.txt [--seed N] [--out results.csv] ...
  ampvbic sweep --config cfg.txt [--seed N] [--out sweep.csv] ...

The config file is flat key = value text (INI/TOML style, '#' comments).
Recognized keys: the scenario fields (M, N, J, p_a, snr_db, modulation,
n_it, seed) plus trials, detectors, axis, values.  Lists are comma
separated, with optional [brackets] and quotes.  Values are read as int,
float or text; ScenarioConfig checks the scenario fields, the harness the
request and main the --out path, all before any trial runs.

Exit codes: 0 success, 2 configuration error, 3 numerical breakdown.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ConfigError, NumericalBreakdown, TrialFailure
from .harness import run_trials, summarize, sweep, write_csv
from .model import ScenarioConfig

SCENARIO_KEYS = {"M", "N", "J", "p_a", "snr_db", "modulation", "n_it", "seed"}
EXPERIMENT_KEYS = {"trials", "detectors", "axis", "values"}
LIST_KEYS = {"detectors", "values"}


def _parse_scalar(text: str):
    text = text.strip().strip("'\"")
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_config_file(path: str) -> dict:
    """Flat key = value parser; raises ConfigError on a line it cannot read
    or an unknown key.  Values are not type-checked here."""
    values: dict = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line or line.startswith("[") and line.endswith("]"):
            continue  # allow INI section headers, they carry no information here
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in SCENARIO_KEYS | EXPERIMENT_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in LIST_KEYS:
            val = val.strip("[]")
            values[key] = [_parse_scalar(v) for v in val.split(",") if v.strip()]
        else:
            values[key] = _parse_scalar(val)
    return values


def _build_scenario(values: dict, seed_override: int | None) -> ScenarioConfig:
    missing = {"M", "N", "J", "p_a", "snr_db"} - values.keys()
    if missing:
        raise ConfigError(f"config is missing required keys: {sorted(missing)}")
    kwargs = {k: values[k] for k in SCENARIO_KEYS & values.keys()}
    if seed_override is not None:
        kwargs["seed"] = seed_override
    return ScenarioConfig(**kwargs)


def _add_common_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="flat key=value config file")
    sub.add_argument("--seed", type=int, default=None, help="master RNG seed")
    sub.add_argument("--out", default=None, help="CSV output path")
    sub.add_argument("--threads", type=int, default=1,
                     help="parallel trial worker processes, >= 1 (default 1); "
                          "one pool per command, at most one worker per "
                          "(value, trial)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ampvbic",
        description="Joint user-activity and data detection simulations "
                    "for spreading-based grant-free random access.")
    subs = parser.add_subparsers(dest="command", required=True)
    run_p = subs.add_parser("run", help="single configuration, per-trial metrics")
    _add_common_args(run_p)
    sweep_p = subs.add_parser("sweep", help="sweep one axis, aggregated metrics")
    _add_common_args(sweep_p)
    sweep_p.add_argument("--bernoulli-activity", action="store_true",
                         help="p_a sweeps draw Bernoulli activity instead of "
                              "a fixed active-user count")
    return parser


def _cmd_run(args, values: dict, config: ScenarioConfig,
             detectors: tuple[str, ...], n_trials: int) -> list:
    records = run_trials(config, n_trials, detectors, n_workers=args.threads)
    print(f"{n_trials} trials, M={config.M} N={config.N} J={config.J} "
          f"p_a={config.p_a} snr_db={config.snr_db} n_it={config.n_it} "
          f"seed={config.seed}")
    print(summarize(records))
    return records


def _cmd_sweep(args, values: dict, config: ScenarioConfig,
               detectors: tuple[str, ...], n_trials: int) -> list:
    if "axis" not in values or "values" not in values:
        raise ConfigError("sweep needs 'axis' and 'values' keys in the config")
    records = sweep(config, values["axis"], values["values"], n_trials,
                    detectors, n_workers=args.threads,
                    bernoulli_activity=args.bernoulli_activity)
    for rec in records:
        print(f"{values['axis']}={getattr(rec, values['axis'])}  "
              f"{rec.detector:22s} aer={rec.aer:.5f} ser={rec.ser:.5f} "
              f"ce_mse={rec.ce_mse:.6f}")
    return records


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = _cmd_run if args.command == "run" else _cmd_sweep
    try:
        values = parse_config_file(args.config)
        # --out is checked before the trials, so that they are not lost.
        out_dir = os.path.dirname(os.path.abspath(args.out or "."))
        if args.out and (os.path.isdir(args.out) or not os.access(out_dir, os.W_OK)):
            raise ConfigError(f"cannot write --out {args.out} in {out_dir}")
        records = command(args, values, _build_scenario(values, args.seed),
                          tuple(values.get("detectors", ["amp_vbic"])),
                          values.get("trials", 10))
        if args.out:
            write_csv(records, args.out)
            print(f"wrote {len(records)} rows to {args.out}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalBreakdown as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return 3
    except TrialFailure as exc:
        cause = exc.__cause__
        if isinstance(cause, NumericalBreakdown):
            print(f"numerical breakdown: {exc}", file=sys.stderr)
            return 3
        raise


if __name__ == "__main__":
    sys.exit(main())
