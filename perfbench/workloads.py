"""The benchmark workloads: what one pass runs, and the gate its output must pass.

Every pass returns its output as bytes (the CSV file, or the raw symbol
error rate array) so that passes can be compared byte for byte, and
``check`` returns a list of gate failures, empty when the output is correct.

The reference values are what seed 1 gave at the full figure sizes (10^4
trials per sweep cell, 200 placement profiles, 1000 symbol rounds). A pass
here is smaller, so each comparison carries a Monte Carlo tolerance set
from the spread between seeds at the pass size.
"""

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from mwrelay import cli, validation
from mwrelay.channel import SystemConfig

K = 10
SWEEP_M = (100, 300)
SWEEP_TRIALS = 2000
CDF_M = 100
CDF_PROFILES = 40
CDF_TRIALS = 1000
ROUNDS = 300
ROUND_CONFIG = SystemConfig(M=100, K=K, p_u=1.0, p_r=10.0)
SCHEMES = ("conventional", "proposed")

# Sum SE, bit/s/Hz. Between seeds at 2000 trials the standard deviation is
# about 0.04, so 0.25 is six of them.
SUM_SE_REF = {("conventional", 100): 31.63, ("conventional", 300): 45.15,
              ("proposed", 100): 40.39, ("proposed", 300): 52.90}
SUM_SE_TOL = 0.25
# Per-cell Monte Carlo slack for the Jensen ordering se_mc >= se_bound, in
# reported standard errors; the tightest cell sits about 4.5 above it.
JENSEN_SLACK = 3.0
# Placement distribution: 5th percentile, and mean and standard deviation
# of the sum-SE samples, over 200 profiles.
P5_REF = {"conventional": 1.126, "proposed": 1.067}
CDF_MEAN_REF = {"conventional": 4.468, "proposed": 4.340}
CDF_SD_REF = {"conventional": 2.50, "proposed": 2.54}
CDF_REF_PROFILES = 200
# QPSK symbol error rates: all slots, cancelation slots, zero-forcing slots.
SER_REF = {"all": 0.07279, "cancelation": 0.00032, "zf": 0.16338}
NOISELESS_TOL = 1e-9


def _sweep_argv(out, seed):
    return ["sweep-m", "--scheme", "both", "--k", str(K),
            "--m", f"{SWEEP_M[0]}:{SWEEP_M[-1]}:{SWEEP_M[-1] - SWEEP_M[0]}",
            "--trials", str(SWEEP_TRIALS), "--seed", str(seed), "--out", str(out)]


def _cdf_argv(out, seed):
    return ["cdf", "--beta", "geometry", "--scheme", "both", "--k", str(K),
            "--m", str(CDF_M), "--profiles", str(CDF_PROFILES),
            "--trials", str(CDF_TRIALS), "--seed", str(seed), "--out", str(out)]


def _run_cli(argv):
    out = Path(argv[argv.index("--out") + 1])
    status = cli.parse_and_dispatch(argv)
    if status != 0:
        raise RuntimeError(f"mwrelay {argv[0]} exited with status {status}")
    return out.read_bytes()


def _csv_rows(data):
    lines = [line for line in data.decode().splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def csv_row_count(data):
    """Data rows in a CSV output (comment and header lines excluded)."""
    return len(_csv_rows(data))


def _cell(row):
    return row["scheme"], int(row["M"]), int(row["user"]), int(row["slot"])


def check_sweep(data):
    failures = []
    rows = _csv_rows(data)
    sums = {(r["scheme"], int(r["M"])): float(r["value"]) for r in rows if r["metric"] == "sum_se"}
    if set(sums) != set(SUM_SE_REF):
        failures.append(f"sum_se cells {sorted(sums)} differ from {sorted(SUM_SE_REF)}")
    for key, ref in SUM_SE_REF.items():
        if key in sums and not abs(sums[key] - ref) <= SUM_SE_TOL:
            failures.append(f"sum_se {key} = {sums[key]:.4f}, reference {ref} +- {SUM_SE_TOL}")

    # Uplink, conventional and cancelation-slot cells carry both a Monte
    # Carlo estimate and a Jensen bound; the proposed zero-forcing slots
    # carry se_asym instead, and the user-0 aggregate is not a bound.
    bounds = {_cell(r): float(r["value"]) for r in rows
              if r["metric"] == "se_bound" and int(r["user"]) >= 1}
    checked = 0
    for r in rows:
        cell = _cell(r)
        if r["metric"] != "se_mc" or cell not in bounds:
            continue
        mean, stderr = float(r["value"]), float(r["stderr"])
        checked += 1
        if not (stderr >= 0 and mean + JENSEN_SLACK * stderr >= bounds[cell]):
            failures.append(f"Jensen ordering fails at {cell}: se_mc {mean} +- {stderr} "
                            f"< se_bound {bounds[cell]}")
    sic = K // 2
    expected = len(SWEEP_M) * ((K + K * (K - 1)) + (K + K * sic))
    if checked != expected:
        failures.append(f"Jensen ordering checked {checked} cells, expected {expected}")
    return failures


def check_cdf(data):
    failures = []
    rows = _csv_rows(data)
    for scheme in SCHEMES:
        samples = np.array([float(r["value"]) for r in rows
                            if r["scheme"] == scheme and r["metric"] == "cdf_sample"])
        p5 = [float(r["value"]) for r in rows if r["scheme"] == scheme and r["metric"] == "p5"]
        n = samples.size
        if n != CDF_PROFILES or len(p5) != 1:
            failures.append(f"{scheme}: {n} samples and {len(p5)} p5 rows, "
                            f"expected {CDF_PROFILES} and 1")
            continue
        if not (np.all(np.isfinite(samples)) and np.all(samples > 0)
                and np.all(np.diff(samples) >= 0)):
            failures.append(f"{scheme}: samples are not positive, finite and sorted")
        if not math.isclose(p5[0], float(np.quantile(samples, 0.05)), rel_tol=1e-9):
            failures.append(f"{scheme}: p5 {p5[0]} is not the 5% quantile of its samples")
        # A sample falls below the reference 5th percentile with probability
        # 0.05, so the count is binomial.
        below = int(np.sum(samples <= P5_REF[scheme]))
        limit = n * 0.05 + 5.0 * math.sqrt(n * 0.05 * 0.95)
        if below > limit:
            failures.append(f"{scheme}: {below} of {n} samples below reference p5 "
                            f"{P5_REF[scheme]}, at most {limit:.1f} expected")
        tol = 5.0 * math.hypot(samples.std(ddof=1) / math.sqrt(n),
                               CDF_SD_REF[scheme] / math.sqrt(CDF_REF_PROFILES))
        if not abs(samples.mean() - CDF_MEAN_REF[scheme]) <= tol:
            failures.append(f"{scheme}: sample mean {samples.mean():.4f}, reference "
                            f"{CDF_MEAN_REF[scheme]} +- {tol:.4f}")
    return failures


def _symbol_rounds(seed):
    errors = validation.run_round_noisy(ROUND_CONFIG, np.ones(K), ROUNDS, seed)
    return np.ascontiguousarray(errors, dtype=np.float64).tobytes()


def check_rounds(data, seed):
    failures = []
    ser = np.frombuffer(data, dtype=np.float64)
    if ser.size != K * (K - 1):
        return [f"symbol error rates hold {ser.size} values, expected {K * (K - 1)}"]
    ser = ser.reshape(K, K - 1)
    sic = K // 2
    groups = {"all": ser, "cancelation": ser[:, :sic], "zf": ser[:, sic:]}
    if not np.all((ser >= 0) & (ser <= 1)):
        failures.append("symbol error rates outside [0, 1]")
    for group, values in groups.items():
        ref = SER_REF[group]
        decisions = ROUNDS * values.size
        tol = 5.0 * math.sqrt(ref * (1 - ref) / decisions)
        if not abs(values.mean() - ref) <= tol:
            failures.append(f"{group} SER {values.mean():.5f}, reference {ref} +- {tol:.5f}")
    deviation = validation.run_round_noiseless(ROUND_CONFIG, np.ones(K), seed).max_deviation
    if not deviation <= NOISELESS_TOL:
        failures.append(f"noiseless round deviation {deviation:.3e} > {NOISELESS_TOL}")
    return failures


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``run(seed, out)`` makes one pass and returns its output bytes, ``check``
    returns the gate failures for those bytes, ``warm_up(out)`` makes a tiny
    call down the same path, and ``trials`` counts the work in one pass.
    """

    name: str
    run: Callable
    check: Callable
    warm_up: Callable
    trials: int
    writes_csv: bool


WORKLOADS = {
    "link-sweep": Workload(
        name="link-sweep",
        run=lambda seed, out: _run_cli(_sweep_argv(out, seed)),
        check=lambda data, seed: check_sweep(data),
        warm_up=lambda out: _run_cli(["sweep-m", "--scheme", "both", "--k", "4", "--m", "8",
                                      "--trials", "16", "--seed", "0", "--out", str(out)]),
        trials=SWEEP_TRIALS * len(SCHEMES) * len(SWEEP_M),
        writes_csv=True,
    ),
    "placement-cdf": Workload(
        name="placement-cdf",
        run=lambda seed, out: _run_cli(_cdf_argv(out, seed)),
        check=lambda data, seed: check_cdf(data),
        warm_up=lambda out: _run_cli(["cdf", "--beta", "geometry", "--scheme", "both",
                                      "--k", "4", "--m", "8", "--profiles", "4",
                                      "--trials", "16", "--seed", "0", "--out", str(out)]),
        trials=CDF_PROFILES * CDF_TRIALS * len(SCHEMES),
        writes_csv=True,
    ),
    "symbol-rounds": Workload(
        name="symbol-rounds",
        run=lambda seed, out: _symbol_rounds(seed),
        check=check_rounds,
        warm_up=lambda out: validation.run_round_noisy(
            SystemConfig(M=8, K=4, p_u=1.0, p_r=10.0), np.ones(4), 2, 0),
        trials=ROUNDS,
        writes_csv=False,
    ),
}
