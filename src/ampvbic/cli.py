"""Command-line entry point.

One parser with two commands, which share every flag; each sweep row is
the aggregated run of its axis value, with every user active with
probability p_a on every axis, p_a included:

  ampvbic run   --config cfg.txt [--seed N] [--out results.csv] ...
  ampvbic sweep --config cfg.txt [--seed N] [--out sweep.csv] ...

The config file is flat key = value text (INI/TOML style, '#' comments).
Recognized keys, each at most once: the scenario fields (M, N, J, p_a,
snr_db, modulation, n_it, seed) plus trials, detectors, axis, values.
Lists are comma separated, with optional [brackets] and quotes.  Values
are read as int, float or text; ScenarioConfig checks the scenario
fields, the harness the request and main the --out path, before any trial.

Exit codes: 0 success, 2 configuration error, 3 numerical breakdown.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .errors import ConfigError, NumericalBreakdown, TrialFailure
from .harness import run_trials, summarize, sweep, write_csv
from .model import ScenarioConfig

# ScenarioConfig's fields; _build_scenario requires those without a default.
SCENARIO_KEYS = {f.name for f in dataclasses.fields(ScenarioConfig)}
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
    """Flat key = value parser; raises ConfigError on a line it cannot read,
    an unknown key or a key given twice.  Values are not type-checked here."""
    values: dict = {}
    seen_at: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
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
        if key in seen_at:
            raise ConfigError(f"{path}:{lineno}: {key!r} repeats line {seen_at[key]}")
        seen_at[key] = lineno
        if key in LIST_KEYS:
            val = val.strip("[]")
            values[key] = [_parse_scalar(v) for v in val.split(",") if v.strip()]
        else:
            values[key] = _parse_scalar(val)
    return values


def _build_scenario(values: dict, seed_override: int | None) -> ScenarioConfig:
    missing = {f.name for f in dataclasses.fields(ScenarioConfig)
               if f.default is dataclasses.MISSING} - values.keys()
    if missing:
        raise ConfigError(f"config is missing required keys: {sorted(missing)}")
    kwargs = {k: values[k] for k in SCENARIO_KEYS & values.keys()}
    if seed_override is not None:
        kwargs["seed"] = seed_override
    return ScenarioConfig(**kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ampvbic",
        description="Joint user-activity and data detection simulations "
                    "for spreading-based grant-free random access.")
    parser.add_argument("command", choices=("run", "sweep"),
                        help="run: single configuration, per-trial metrics; "
                             "sweep: sweep one axis, aggregated metrics")
    parser.add_argument("--config", required=True, help="flat key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="master RNG seed")
    parser.add_argument("--out", default=None, help="CSV output path")
    parser.add_argument("--threads", type=int, default=1,
                        help="parallel trial worker processes, >= 1 (default 1); "
                             "one pool per command, at most one worker per "
                             "(value, trial)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        values = parse_config_file(args.config)
        # --out is checked before the trials, so that they are not lost.
        out_dir = os.path.dirname(os.path.abspath(args.out or "."))
        if args.out and (os.path.isdir(args.out) or not os.access(out_dir, os.W_OK)):
            raise ConfigError(f"cannot write --out {args.out} in {out_dir}")
        config = _build_scenario(values, args.seed)
        detectors = tuple(values.get("detectors", ["amp_vbic"]))
        n_trials = values.get("trials", 10)
        # trials = 20.0 runs 20 trials, as n_it = 20.0 runs 20 iterations.
        if isinstance(n_trials, float) and n_trials.is_integer():
            n_trials = int(n_trials)
        if args.command == "run":
            records = run_trials(config, n_trials, detectors,
                                 n_workers=args.threads)
            print(f"{n_trials} trials, M={config.M} N={config.N} J={config.J} "
                  f"p_a={config.p_a} snr_db={config.snr_db} n_it={config.n_it} "
                  f"seed={config.seed}")
            print(summarize(records))
        else:
            if "axis" not in values or "values" not in values:
                raise ConfigError("sweep needs 'axis' and 'values' keys in the config")
            axis = values["axis"]
            records = sweep(config, axis, values["values"], n_trials,
                            detectors, n_workers=args.threads)
            for rec in records:
                print(f"{axis}={getattr(rec, axis)}  "
                      f"{rec.detector:22s} aer={rec.aer:.5f} ser={rec.ser:.5f} "
                      f"ce_mse={rec.ce_mse:.6f}")
        if args.out:
            write_csv(records, args.out)
            print(f"wrote {len(records)} rows to {args.out}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalBreakdown, TrialFailure) as exc:
        if isinstance(exc, TrialFailure) and \
                not isinstance(exc.__cause__, NumericalBreakdown):
            raise
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
