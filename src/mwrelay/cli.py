"""Experiment driver: named experiments reproducing the study figures as CSV.

Subcommands: sweep-m (sum SE vs antenna count, simulation + closed form),
compare-schemes (proposed vs conventional), cdf (sum-SE distribution over
random placements), bounds-table (closed forms only), selftest (invariant
suite). Each option is declared once, in ``OPTIONS``: its entry builds the
flag, converts the config-file value and is echoed into the CSV, and the
geometry options take their defaults from ``GeometryModel``. Each
experiment is declared once, in ``EXPERIMENTS``: its runner, its default
schemes and the options it reads, which alone it takes as flags and config
keys and echoes. All dB inputs are converted to linear scale once, at the
argument boundary. Runs are reproducible: same seed means byte-identical
CSV, for any MWRELAY_THREADS value.
"""

import argparse
import csv
import functools
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .bounds import bound_report
from .channel import (
    STREAM_PROFILE,
    GeometryModel,
    SystemConfig,
    checked_gains,
    draw_large_scale,
    read_beta_file,
    substream,
)
from .exceptions import InvalidConfigError, SingularSystemError
from .montecarlo import cdf_experiment, estimate_link_se, sum_se
from .schedule import SCHEMES, SlotIndexer
from .validation import run_round_noiseless

__all__ = ["main", "parse_and_dispatch", "write_csv", "db_to_linear", "parse_m_range"]

CSV_HEADER = ("experiment", "scheme", "M", "K", "user", "slot", "metric", "value", "stderr", "seed")
METRICS = frozenset({"se_mc", "se_bound", "se_asym", "sum_se", "cdf_sample", "p5"})

# Option name (the flag without its dashes, and the config key) -> GeometryModel field.
_GEOMETRY_FIELDS = {
    "cell-radius": "cell_radius",
    "exclusion-radius": "exclusion_radius",
    "ploss-exp": "path_loss_exponent",
    "shadow-db": "shadowing_sigma_db",
    "ref-dist": "reference_distance",
}
# Option name -> (type, default, help); None is filled per experiment (trials, beta) or unset.
OPTIONS = {
    "k": (int, 10, "number of users"),
    "m": (str, "100", "antenna count, single value or START:STOP:STEP"),
    "pu-db": (float, 0.0, "per-user power [dB]"),
    "pr-db": (float, 10.0, "relay power [dB]"),
    "trials": (int, None, "Monte Carlo trials per configuration"),
    "profiles": (int, 2000, "placement profiles for cdf"),
    "seed": (int, 1, "base seed for all substreams"),
    "out": (str, None, "output CSV path"),
    "scheme": (str, None, "scheme to run; both runs every scheme"),
    "beta": (str, None, "unit | file:PATH | geometry"),
    **{name: (float, getattr(GeometryModel(), field), f"--beta geometry: {field}")
       for name, field in _GEOMETRY_FIELDS.items()},
}
# Option name -> the values it accepts, through its flag and through a config file.
_CHOICES = {"scheme": (*SCHEMES, "both")}


@dataclass(frozen=True)
class Experiment:
    """A subcommand; ``reads`` maps each option it reads to its default, None taking OPTIONS'."""

    help: str
    runner: Callable
    schemes: tuple
    reads: dict


def db_to_linear(value_db):
    """10^(dB/10); exact at the common calibration points 0 and 10 dB.

    Raises InvalidConfigError where a finite dB value overflows a float.
    """
    try:
        return 10.0 ** (value_db / 10.0)
    except OverflowError:
        raise InvalidConfigError(f"power {value_db!r} dB overflows a float") from None


def parse_m_range(text):
    """Antenna counts from '128' or 'start:stop:step' (stop kept when aligned)."""
    try:
        parts = [int(part) for part in text.split(":")]
    except ValueError:
        raise InvalidConfigError(f"bad antenna range {text!r}: counts must be integers") from None
    if len(parts) not in (1, 3):
        raise InvalidConfigError(f"bad antenna range {text!r}: use START:STOP:STEP or a single value")
    start, stop, step = parts if len(parts) == 3 else (parts[0], parts[0], 1)
    if step <= 0 or start > stop:
        raise InvalidConfigError(f"bad antenna range {text!r}: need start <= stop, step > 0")
    if start < 1:
        raise InvalidConfigError(f"antenna counts must be >= 1, got {text!r}")
    return list(range(start, stop + 1, step))


def read_config_file(path):
    """Plain `key = value` lines; keys mirror the CLI flag names."""
    options = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in OPTIONS:
                raise InvalidConfigError(f"{path}:{lineno}: unknown option {key!r}")
            try:
                options[key] = OPTIONS[key][0](value)
            except ValueError:
                raise InvalidConfigError(f"{path}:{lineno}: {key} must be "
                                         f"{OPTIONS[key][0].__name__}, got {value!r}") from None
            if key in _CHOICES and options[key] not in _CHOICES[key]:
                raise InvalidConfigError(f"{path}:{lineno}: {key} must be one of "
                                         f"{', '.join(_CHOICES[key])}, got {options[key]!r}")
    return options


def write_csv(path, rows, params=None):
    """Write schema rows with the run parameters echoed as '#' comment lines.

    Values get 12 significant digits; row order is whatever the experiment
    produced (deterministic), so identical runs give identical bytes.
    """
    for row in rows:
        if row[6] not in METRICS:
            raise ValueError(f"metric {row[6]!r} not in vocabulary {sorted(METRICS)}")
    with open(path, "w", newline="") as fh:
        if params:
            for key in sorted(params):
                fh.write(f"# {key} = {params[key]}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for experiment, scheme, M, K, user, slot, metric, value, stderr, seed in rows:
            writer.writerow(
                [experiment, scheme, M, K, user, slot, metric,
                 f"{value:.12g}", f"{stderr:.12g}", seed]
            )


@functools.cache
def _build_parser():
    """The parser, built once per process: each subcommand takes --config and what it reads."""
    parser = argparse.ArgumentParser(
        prog="mwrelay",
        description="Multi-way massive MIMO relaying experiments (CSV output).",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, experiment in EXPERIMENTS.items():
        command = sub.add_parser(name, help=experiment.help)
        command.add_argument("--config", help="key = value file; flags given here override it")
        for option in filter(experiment.reads.__contains__, OPTIONS):  # in OPTIONS order
            command.add_argument(f"--{option}", dest=option, type=OPTIONS[option][0],
                                 help=OPTIONS[option][2], choices=_CHOICES.get(option))
    return parser


def _resolve_options(args):
    """The options the experiment reads: its defaults, the config file, the flags; plus its name."""
    experiment = EXPERIMENTS[args.experiment]
    given = read_config_file(args.config) if args.config else {}
    if unread := sorted(given.keys() - experiment.reads.keys()):
        raise InvalidConfigError(f"{args.config}: {args.experiment} does not read {unread[0]!r}")
    given.update((name, value) for name, value in vars(args).items()
                 if name in OPTIONS and value is not None)
    options = {name: OPTIONS[name][1] if default is None else default
               for name, default in experiment.reads.items()} | given
    if options.get("beta") != "geometry":  # the geometry options are read under geometry only
        if knobs := sorted(given.keys() & _GEOMETRY_FIELDS.keys()):
            raise InvalidConfigError(f"{knobs[0]} is read only with --beta geometry")
        options = {name: value for name, value in options.items() if name not in _GEOMETRY_FIELDS}
    return options | {"experiment": args.experiment}


def _schemes(options):
    choice = options["scheme"]
    if choice is None:
        return EXPERIMENTS[options["experiment"]].schemes
    return SCHEMES if choice == "both" else (choice,)


def _geometry(options):
    return GeometryModel(**{field: options[name] for name, field in _GEOMETRY_FIELDS.items()})


def _beta_model(options):
    """The gain model that --beta names: "unit", "file" or "geometry"."""
    choice = options["beta"]
    if choice in ("unit", "geometry"):
        return choice
    if choice.startswith("file:"):
        return "file"
    raise InvalidConfigError(f"--beta must be unit, file:PATH, or geometry, got {choice!r}")


def _gains(options, K, seed):
    """The K gains that --beta names."""
    model = _beta_model(options)
    if model == "unit":
        return np.ones(K)
    if model == "file":
        return checked_gains(read_beta_file(options["beta"][len("file:"):]), K)
    return draw_large_scale(_geometry(options), K, substream(seed, STREAM_PROFILE, 0))


def _configs(options):
    """One SystemConfig per antenna count that --m names, with the powers converted from dB."""
    p_u, p_r = db_to_linear(options["pu-db"]), db_to_linear(options["pr-db"])
    return [SystemConfig(M=M, K=options["k"], p_u=p_u, p_r=p_r) for M in parse_m_range(options["m"])]


def _closed_form_cells(report, scheme, K):
    """(user, slot, metric, closed-form value) per cell; slot 0 is the uplink."""
    table = np.column_stack([report.uplink, report.downlink(scheme)])
    first_zf = SlotIndexer(K).sic_slots + 1 if scheme == "proposed" else K
    for (k, t), value in np.ndenumerate(table):
        yield k + 1, t, "se_asym" if t >= first_zf else "se_bound", value


def _link_rows(experiment, scheme, config, seed, estimate, report):
    """Aggregate + per-user rows for one (M, scheme) cell."""
    M, K = config.M, config.K
    composed = sum_se(estimate, scheme)
    rows = [
        (experiment, scheme, M, K, 0, 0, "sum_se", composed.sum_se, composed.stderr, seed),
        (experiment, scheme, M, K, 0, 0, "se_bound", report.sum_se(scheme), 0.0, seed),
    ]
    # Column 0 is the uplink, columns 1..K-1 the broadcast slots.
    mc = np.column_stack([estimate.uplink, estimate.downlink])
    mc_err = np.column_stack([estimate.uplink_stderr, estimate.downlink_stderr])
    for k, t, metric, value in _closed_form_cells(report, scheme, K):
        rows.append((experiment, scheme, M, K, k, t, "se_mc", mc[k - 1, t], mc_err[k - 1, t], seed))
        rows.append((experiment, scheme, M, K, k, t, metric, value, 0.0, seed))
    return rows


def _run_sweep_m(options, aggregates_only=False):
    experiment, seed = options["experiment"], options["seed"]
    beta = _gains(options, options["k"], seed)
    schemes = _schemes(options)
    rows = []
    for config in _configs(options):
        report = bound_report(config, beta)
        estimates = estimate_link_se(config, beta, schemes, options["trials"], seed)
        for scheme in schemes:
            cell = _link_rows(experiment, scheme, config, seed, estimates[scheme], report)
            rows.extend(cell[:2] if aggregates_only else cell)
    return rows


def _run_cdf(options):
    experiment, seed = options["experiment"], options["seed"]
    config, *others = _configs(options)
    if others:
        raise InvalidConfigError("cdf takes a single antenna count, not a range")
    if _beta_model(options) != "geometry":
        raise InvalidConfigError("cdf draws random placements; --beta must be geometry")
    results = cdf_experiment(config, _geometry(options), options["profiles"], options["trials"],
                             seed, schemes=_schemes(options))
    rows = []
    for scheme, result in results.items():
        cell = (experiment, scheme, config.M, config.K, 0)
        rows.extend((*cell, rank, "cdf_sample", float(value), 0.0, seed)
                    for rank, value in enumerate(result.sorted_samples, start=1))
        rows.append((*cell, 0, "p5", result.likely_95, 0.0, seed))
    return rows


def _run_bounds_table(options):
    experiment, seed, K = options["experiment"], options["seed"], options["k"]
    beta = _gains(options, K, seed)
    rows = []
    for config in _configs(options):
        report = bound_report(config, beta)
        for scheme in _schemes(options):
            rows.extend((experiment, scheme, config.M, K, k, t, metric, value, 0.0, seed)
                        for k, t, metric, value in _closed_form_cells(report, scheme, K))
    return rows


def _run_selftest(options):
    """Protocol and linear-algebra invariants; prints one line per check, returns the exit code."""
    seed = options["seed"]
    failures = []

    def check(name, ok, detail=""):
        print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))
        if not ok:
            failures.append(name)

    for K in range(2, 13):
        idx = SlotIndexer(K)
        users = np.arange(K)
        # Each user holds its own symbol first and every symbol once, so the
        # symbols held after the cancelation slots and the remaining unknowns
        # partition all K.
        partition_ok = (np.array_equal(idx.order[:, 0], users)
                        and np.array_equal(np.sort(idx.order, axis=1), np.tile(users, (K, 1))))
        # Slot t broadcasts symbol order[j, t] on beam j, so the beam the table
        # names for each held symbol carries exactly that symbol.
        slots = np.arange(1, K)[:, None]
        routing_ok = np.array_equal(idx.order[idx.beams, slots],
                                    np.broadcast_to(idx.order[:, None, :], idx.beams.shape))
        check(f"schedule identities K={K}", partition_ok and routing_ok)

    worst = 0.0
    for K in range(2, 13):
        config = SystemConfig(M=32, K=K, p_u=1.0, p_r=10.0)
        round_ = run_round_noiseless(config, np.ones(K), seed)
        worst = max(worst, round_.max_deviation)
        check(f"noiseless recovery K={K}", round_.max_deviation <= 1e-9,
              f"max deviation {round_.max_deviation:.2e}")
    print(f"worst recovery deviation: {worst:.3e}")

    return 1 if failures else 0


# What every CSV experiment reads; the geometry options only when beta is geometry.
_CSV_READS = {**dict.fromkeys(("k", "m", "pu-db", "pr-db", "seed", "out", "scheme",
                               *_GEOMETRY_FIELDS)), "beta": "unit"}
# Runners return CSV rows, except selftest's, which returns the exit status.
EXPERIMENTS = {
    "sweep-m": Experiment("sum SE vs antenna count: Monte Carlo plus closed-form composition",
                          _run_sweep_m, ("proposed",), _CSV_READS | {"trials": 10_000}),
    "compare-schemes": Experiment("proposed vs conventional sum SE",
                                  functools.partial(_run_sweep_m, aggregates_only=True), SCHEMES,
                                  _CSV_READS | {"trials": 10_000}),
    "cdf": Experiment("sum-SE distribution over random user placements", _run_cdf, ("proposed",),
                      _CSV_READS | {"trials": 1000, "profiles": None, "beta": "geometry"}),
    "bounds-table": Experiment("closed-form rates per user and slot", _run_bounds_table, SCHEMES,
                               _CSV_READS),
    "selftest": Experiment("run the protocol/linear-algebra invariant suite", _run_selftest, (),
                           {"seed": None}),
}


def parse_and_dispatch(argv=None):
    """Run one experiment; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code or 0)
    try:
        options = _resolve_options(args)
        runner = EXPERIMENTS[args.experiment].runner
        if runner is _run_selftest:
            return runner(options)
        if not options["out"]:
            raise InvalidConfigError("this experiment writes CSV; pass --out PATH")
        rows = runner(options)
        params = {k: v for k, v in options.items() if v is not None and k != "out"}
        write_csv(options["out"], rows, params)
        return 0
    except (InvalidConfigError, SingularSystemError, ValueError, OSError) as exc:
        print(f"mwrelay: error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(parse_and_dispatch())


if __name__ == "__main__":
    main()
