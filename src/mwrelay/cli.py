"""Experiment driver: named experiments reproducing the study figures as CSV.

Subcommands: sweep-m (sum SE vs antenna count, simulation + closed form),
compare-schemes (proposed vs conventional), cdf (sum-SE distribution over
random placements), bounds-table (closed forms only), selftest (invariant
suite). All dB inputs are converted to linear scale once, at the argument
boundary. Runs are reproducible: same seed means byte-identical CSV, for
any MWRELAY_THREADS value.
"""

import argparse
import csv
import sys

import numpy as np

from .bounds import bound_report
from .channel import (
    STREAM_PROFILE,
    GeometryModel,
    SystemConfig,
    draw_large_scale,
    read_beta_file,
    substream,
    unit_profile,
)
from .exceptions import InvalidConfigError, SingularSystemError
from .montecarlo import cdf_experiment, estimate_link_se, sum_se
from .schedule import SlotIndexer, known_set, partner_index, remaining_unknowns
from .validation import run_round_noiseless

__all__ = ["main", "parse_and_dispatch", "write_csv", "db_to_linear", "parse_m_range"]

CSV_HEADER = ("experiment", "scheme", "M", "K", "user", "slot", "metric", "value", "stderr", "seed")
METRICS = frozenset({"se_mc", "se_bound", "se_asym", "sum_se", "cdf_sample", "p5"})

DEFAULTS = {
    "k": 10,
    "m": "100",
    "pu-db": 0.0,
    "pr-db": 10.0,
    "trials": None,  # 10^4 for sweeps, 10^3 per profile for cdf
    "profiles": 2000,
    "seed": 1,
    "out": None,
    "scheme": None,  # per-experiment default
    "beta": "unit",
    "cell-radius": 1000.0,
    "exclusion-radius": 100.0,
    "ploss-exp": 3.8,
    "shadow-db": 8.0,
    "ref-dist": 100.0,
}
_CONVERT = {
    "k": int, "trials": int, "profiles": int, "seed": int,
    "pu-db": float, "pr-db": float,
    "cell-radius": float, "exclusion-radius": float,
    "ploss-exp": float, "shadow-db": float, "ref-dist": float,
    "m": str, "out": str, "scheme": str, "beta": str,
}
_SCHEME_DEFAULT = {
    "sweep-m": ("proposed",),
    "compare-schemes": ("conventional", "proposed"),
    "cdf": ("proposed",),
    "bounds-table": ("conventional", "proposed"),
}


def db_to_linear(value_db):
    """10^(dB/10); exact at the common calibration points 0 and 10 dB."""
    return 10.0 ** (value_db / 10.0)


def parse_m_range(text):
    """Antenna counts from '128' or 'start:stop:step' (stop kept when aligned)."""
    parts = text.split(":")
    if len(parts) == 1:
        values = [int(parts[0])]
    elif len(parts) == 3:
        start, stop, step = (int(p) for p in parts)
        if step <= 0 or start > stop:
            raise InvalidConfigError(f"bad antenna range {text!r}: need start <= stop, step > 0")
        values = list(range(start, stop + 1, step))
    else:
        raise InvalidConfigError(f"bad antenna range {text!r}: use START:STOP:STEP or a single value")
    if not values or values[0] < 1:
        raise InvalidConfigError(f"antenna counts must be >= 1, got {text!r}")
    return values


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
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in DEFAULTS:
                raise InvalidConfigError(f"{path}:{lineno}: unknown option {key!r}")
            options[key] = _CONVERT[key](value.strip())
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


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mwrelay",
        description="Multi-way massive MIMO relaying experiments (CSV output).",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value file; flags given here override it")
    common.add_argument("--k", type=int, help="number of users")
    common.add_argument("--m", help="antenna count, single value or START:STOP:STEP")
    common.add_argument("--pu-db", type=float, dest="pu_db", help="per-user power [dB]")
    common.add_argument("--pr-db", type=float, dest="pr_db", help="relay power [dB]")
    common.add_argument("--trials", type=int, help="Monte Carlo trials per configuration")
    common.add_argument("--profiles", type=int, help="placement profiles for cdf")
    common.add_argument("--seed", type=int, help="base seed for all substreams")
    common.add_argument("--out", help="output CSV path")
    common.add_argument("--scheme", choices=["conventional", "proposed", "both"])
    common.add_argument("--beta", help="unit | file:PATH | geometry")
    common.add_argument("--cell-radius", type=float, dest="cell_radius")
    common.add_argument("--exclusion-radius", type=float, dest="exclusion_radius")
    common.add_argument("--ploss-exp", type=float, dest="ploss_exp")
    common.add_argument("--shadow-db", type=float, dest="shadow_db")
    common.add_argument("--ref-dist", type=float, dest="ref_dist")

    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, blurb in [
        ("sweep-m", "sum SE vs antenna count: Monte Carlo plus closed-form composition"),
        ("compare-schemes", "proposed vs conventional sum SE"),
        ("cdf", "sum-SE distribution over random user placements"),
        ("bounds-table", "closed-form rates per user and slot"),
        ("selftest", "run the protocol/linear-algebra invariant suite"),
    ]:
        sub.add_parser(name, parents=[common], help=blurb)
    return parser


def _resolve_options(args):
    options = dict(DEFAULTS)
    if args.config:
        options.update(read_config_file(args.config))
    for key in DEFAULTS:
        value = getattr(args, key.replace("-", "_"))
        if value is not None:
            options[key] = value
    if options["trials"] is None:
        options["trials"] = 1000 if args.experiment == "cdf" else 10_000
    return options


def _schemes(options, experiment):
    choice = options["scheme"]
    if choice in (None, ""):
        return _SCHEME_DEFAULT[experiment]
    if choice == "both":
        return ("conventional", "proposed")
    return (choice,)


def _geometry(options):
    return GeometryModel(
        cell_radius=options["cell-radius"],
        exclusion_radius=options["exclusion-radius"],
        path_loss_exponent=options["ploss-exp"],
        shadowing_sigma_db=options["shadow-db"],
        reference_distance=options["ref-dist"],
    )


def _profile(options, K, seed):
    choice = options["beta"]
    if choice == "unit":
        return unit_profile(K)
    if choice.startswith("file:"):
        profile = read_beta_file(choice[len("file:"):])
        if profile.K != K:
            raise InvalidConfigError(f"beta file holds {profile.K} gains, expected {K}")
        return profile
    if choice == "geometry":
        return draw_large_scale(_geometry(options), K, substream(seed, STREAM_PROFILE, 0), seed=seed)
    raise InvalidConfigError(f"--beta must be unit, file:PATH, or geometry, got {choice!r}")


def _echo_params(options, experiment):
    params = {k: v for k, v in options.items() if v is not None and k != "out"}
    params["experiment"] = experiment
    return params


def _require_out(options):
    if not options["out"]:
        raise InvalidConfigError("this experiment writes CSV; pass --out PATH")
    return options["out"]


def _closed_form_cells(report, scheme, K):
    """(user, slot, metric, closed-form value) per cell; slot 0 is the uplink."""
    sic_slots = SlotIndexer(K).sic_slots
    for k in range(1, K + 1):
        yield k, 0, "se_bound", report.uplink[k - 1]
        for t in range(1, K):
            if scheme == "conventional":
                yield k, t, "se_bound", report.dl_conventional[k - 1, t - 1]
            elif t <= sic_slots:
                yield k, t, "se_bound", report.dl_proposed[k - 1, t - 1]
            else:
                yield k, t, "se_asym", report.zf_asymptotic[k - 1, t - 1 - sic_slots]


def _link_rows(experiment, scheme, config, seed, estimate, report):
    """Aggregate + per-user rows for one (M, scheme) cell."""
    M, K = config.M, config.K
    composed = sum_se(estimate, scheme)
    analytic = report.sum_se(scheme)
    rows = [
        (experiment, scheme, M, K, 0, 0, "sum_se", composed.sum_se, composed.stderr, seed),
        (experiment, scheme, M, K, 0, 0, "se_bound", analytic, 0.0, seed),
    ]
    # Column 0 is the uplink, columns 1..K-1 the broadcast slots.
    mc = np.column_stack([estimate.uplink, estimate.downlink])
    mc_err = np.column_stack([estimate.uplink_stderr, estimate.downlink_stderr])
    for k, t, metric, value in _closed_form_cells(report, scheme, K):
        rows.append((experiment, scheme, M, K, k, t, "se_mc", mc[k - 1, t], mc_err[k - 1, t], seed))
        rows.append((experiment, scheme, M, K, k, t, metric, value, 0.0, seed))
    return rows


def _run_sweep_m(options, experiment="sweep-m", aggregates_only=False):
    seed = options["seed"]
    K = options["k"]
    p_u, p_r = db_to_linear(options["pu-db"]), db_to_linear(options["pr-db"])
    profile = _profile(options, K, seed)
    schemes = _schemes(options, experiment)
    rows = []
    for M in parse_m_range(options["m"]):
        config = SystemConfig(M=M, K=K, p_u=p_u, p_r=p_r)
        report = bound_report(config, profile.beta)
        estimates = estimate_link_se(config, profile.beta, schemes, options["trials"], seed)
        for scheme in schemes:
            cell = _link_rows(experiment, scheme, config, seed, estimates[scheme], report)
            rows.extend(cell[:2] if aggregates_only else cell)
    return rows


def _run_compare(options):
    return _run_sweep_m(options, experiment="compare-schemes", aggregates_only=True)


def _run_cdf(options):
    seed = options["seed"]
    K = options["k"]
    m_values = parse_m_range(options["m"])
    if len(m_values) != 1:
        raise InvalidConfigError("cdf takes a single antenna count, not a range")
    if options["beta"].startswith("file:"):
        raise InvalidConfigError("cdf draws random placements; --beta file is not meaningful here")
    geometry = None if options["beta"] == "unit" else _geometry(options)
    config = SystemConfig(M=m_values[0], K=K,
                          p_u=db_to_linear(options["pu-db"]), p_r=db_to_linear(options["pr-db"]))
    results = cdf_experiment(config, geometry, options["profiles"], options["trials"], seed,
                             schemes=_schemes(options, "cdf"))
    rows = []
    for scheme, result in results.items():
        for rank, value in enumerate(result.sorted_samples, start=1):
            rows.append(("cdf", scheme, config.M, K, 0, rank, "cdf_sample", float(value), 0.0, seed))
        rows.append(("cdf", scheme, config.M, K, 0, 0, "p5", result.likely_95, 0.0, seed))
    return rows


def _run_bounds_table(options):
    seed = options["seed"]
    K = options["k"]
    p_u, p_r = db_to_linear(options["pu-db"]), db_to_linear(options["pr-db"])
    profile = _profile(options, K, seed)
    rows = []
    for M in parse_m_range(options["m"]):
        config = SystemConfig(M=M, K=K, p_u=p_u, p_r=p_r)
        report = bound_report(config, profile.beta)
        for scheme in _schemes(options, "bounds-table"):
            rows.extend(("bounds-table", scheme, M, K, k, t, metric, value, 0.0, seed)
                        for k, t, metric, value in _closed_form_cells(report, scheme, K))
    return rows


def _run_selftest(options):
    """Protocol and linear-algebra invariants; prints one line per check."""
    seed = options["seed"]
    failures = []

    def check(name, ok, detail=""):
        print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))
        if not ok:
            failures.append(name)

    for K in range(2, 11):
        wrap_ok = all(
            partner_index(k - t, t, K) == k
            for k in range(1, K + 1) for t in range(0, 2 * K)
        )
        t_sic = SlotIndexer(K).sic_slots
        partition_ok = True
        for k in range(1, K + 1):
            held = known_set(k, t_sic, K)
            rest = remaining_unknowns(k, K)
            if held & set(rest) or held | set(rest) != set(range(1, K + 1)):
                partition_ok = False
        check(f"schedule identities K={K}", wrap_ok and partition_ok)

    worst = 0.0
    for K in range(2, 11):
        config = SystemConfig(M=32, K=K, p_u=1.0, p_r=10.0)
        round_ = run_round_noiseless(config, np.ones(K), seed)
        worst = max(worst, round_.max_deviation)
        ok = round_.max_deviation <= 1e-9 and round_.slots_used == SlotIndexer(K).proposed_slots
        check(f"noiseless recovery K={K}", ok, f"max deviation {round_.max_deviation:.2e}")
    print(f"worst recovery deviation: {worst:.3e}")

    from .rates import build_zf_stage  # local import keeps module load light

    rng = substream(seed, 0, 987)
    worst_zf = 0.0
    for K in (3, 5, 8, 12):
        M = max(K, 16)
        z = rng.standard_normal((2, M, K))
        G = (z[0] + 1j * z[1]) / np.sqrt(2.0)
        stage = build_zf_stage(G, np.arange(1, K + 1))
        err = np.max(np.abs(stage.combiner() @ stage.mixing - np.eye(stage.n_unknowns)))
        worst_zf = max(worst_zf, float(err))
    check("zero-forcing exactness", worst_zf <= 1e-9, f"worst |Z A - I| = {worst_zf:.2e}")

    return 1 if failures else 0


def parse_and_dispatch(argv=None):
    """Run one experiment; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code or 0)
    try:
        options = _resolve_options(args)
        if args.experiment == "selftest":
            return _run_selftest(options)
        runner = {
            "sweep-m": _run_sweep_m,
            "compare-schemes": _run_compare,
            "cdf": _run_cdf,
            "bounds-table": _run_bounds_table,
        }[args.experiment]
        rows = runner(options)
        write_csv(_require_out(options), rows, _echo_params(options, args.experiment))
        return 0
    except (InvalidConfigError, SingularSystemError, ValueError, OSError) as exc:
        print(f"mwrelay: error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(parse_and_dispatch())


if __name__ == "__main__":
    main()
