"""mwrelay benchmark: figure-shaped workloads, timed untraced, plus a traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload link-sweep --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for sizes and the correctness gate):

    link-sweep     sweep-m, both schemes, M = 100 and 300, unit gains (Fig. 1/2 shape)
    placement-cdf  cdf over random placements, both schemes, M = 100 (Fig. 3 shape)
    symbol-rounds  run_round_noisy at M = 100, K = 10 (the symbol-level chain)

Each run is one process that imports the package from ``src/`` and calls
its public entry points in-process, with MWRELAY_THREADS=2 and
OPENBLAS_NUM_THREADS=1 so that compute threads never exceed two cores.

With ``--trace 0`` it reports the end-to-end metrics: the median pass time
over passes repeated for ``--seconds``, trials per second, the set-up time
(median over several fresh interpreters that import the package and make
one tiny call on the workload's path) and the tracemalloc peak of one
separate, untimed pass. With ``--trace 1`` it repeats cycles of an untraced
1-worker pass, an untraced 2-worker pass and a traced 1-worker pass, and
reports per-layer calls, self times and shares (see spans.py).

Every pass goes through the workload's correctness gate, and every pass of
a run must give the same output bytes whatever the worker count and
whether or not it is traced. A human-readable table, the run manifest and
the metrics go to ``perfbench/results/``; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""

import os

# Read once, when numpy and the package load.
os.environ["MWRELAY_THREADS"] = "2"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("link-sweep", "placement-cdf", "symbol-rounds")
SETUP_SAMPLES = 5
THREAD_VARS = ("MWRELAY_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LAYERS = ("channel", "montecarlo", "rates", "schedule", "bounds", "validation", "cli")

# Fresh interpreter for one set-up sample: the clock starts before numpy,
# scipy and mwrelay are imported and stops after the warm-up call.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.WORKLOADS[sys.argv[3]].warm_up(sys.argv[4])
print(time.perf_counter() - t0)
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="mwrelay benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def load_package():
    """Import the package from this checkout's src/; None when it is not there."""
    if not (SRC / "mwrelay" / "__init__.py").is_file():
        return None
    sys.path[:0] = [str(SRC), str(HERE)]
    import mwrelay

    if Path(mwrelay.__file__).resolve().parent != SRC / "mwrelay":
        return None
    import workloads

    return workloads


@contextlib.contextmanager
def worker_threads(n):
    saved = os.environ["MWRELAY_THREADS"]
    os.environ["MWRELAY_THREADS"] = str(n)
    try:
        yield
    finally:
        os.environ["MWRELAY_THREADS"] = saved


@contextlib.contextmanager
def peak_memory(peaks):
    """Appends the tracemalloc peak, in bytes, of the block to ``peaks``."""
    tracemalloc.start()
    try:
        yield
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()


class PassLog:
    """Runs passes through the correctness gate and counts the failures.

    Every pass that completes must return the same bytes as the first one.
    """

    def __init__(self, workload, seed, scratch):
        self.workload = workload
        self.seed = seed
        self.out = Path(scratch) / "pass.out"
        self.attempted = 0
        self.failures = []
        self.reference = None

    def run(self, label, wrap=contextlib.nullcontext):
        """One pass; returns (seconds, output bytes), output None when it failed."""
        self.attempted += 1
        try:
            with wrap():
                start = time.perf_counter()
                data = self.workload.run(self.seed, self.out)
                seconds = time.perf_counter() - start
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{label}: raised {sys.exc_info()[1]!r}")
            return None, None
        problems = list(self.workload.check(data, self.seed))
        if self.reference is None:
            self.reference = data
        elif data != self.reference:
            problems.append("output bytes differ from the first pass of this run")
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))
            return seconds, None
        return seconds, data


class HostSpeed:
    """Times a fixed kernel between measurements, to rescale them to one host speed.

    Other tenants of a shared host slow the same code by up to 1.8x for
    minutes at a time. The kernel, half an interpreter loop and half batched
    complex matrix products, slows with them. A time measured between two
    kernel runs is rescaled by REFERENCE_S over their mean: it reads as the
    time on a host where the kernel takes REFERENCE_S. The kernel is part of
    the benchmark, so it is the same code for every commit measured.
    """

    REFERENCE_S = 0.025

    def __init__(self):
        z = np.random.default_rng(0).standard_normal((2, 64, 100, 10))
        self._block = z[0] + 1j * z[1]
        self.samples = []
        self.tick()

    def tick(self):
        """Run the kernel once and record its time."""
        start = time.perf_counter()
        total = 0
        for i in range(150_000):
            total += i * i % 7
        for _ in range(30):
            self._block.conj().transpose(0, 2, 1) @ self._block
        self.samples.append(time.perf_counter() - start)

    def rescale(self, seconds):
        """Rescale a time measured since the last kernel run, then run the kernel again."""
        self.tick()
        return seconds * self.REFERENCE_S / statistics.fmean(self.samples[-2:])


def setup_seconds(workload, scratch, speed):
    samples = []
    for i in range(SETUP_SAMPLES):
        out = Path(scratch) / f"setup{i}.out"
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE), workload.name, str(out)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(speed.rescale(float(proc.stdout.strip().splitlines()[-1])))
    return samples


def timed_run(workload, log, scratch, seconds):
    """End-to-end metrics from untraced 2-worker passes."""
    speed = HostSpeed()
    setup = setup_seconds(workload, scratch, speed)
    workload.warm_up(Path(scratch) / "warm.out")

    durations, rescaled = [], []
    speed.tick()
    deadline = time.perf_counter() + seconds
    while True:
        elapsed, data = log.run(f"timed pass {log.attempted + 1}")
        pass_s = speed.rescale(elapsed or 0.0)
        if data is not None:
            durations.append(elapsed)
            rescaled.append(pass_s)
        if time.perf_counter() >= deadline:
            break

    # Once per run: the same bytes from one worker.
    log.run("1-worker pass", lambda: worker_threads(1))

    # tracemalloc slows passes severalfold, so it never wraps a timed one.
    peaks = []
    _, data = log.run("tracemalloc pass", lambda: peak_memory(peaks))

    details = {"passes": len(durations), "wall_pass_seconds": durations,
               "pass_seconds": rescaled, "kernel_seconds": speed.samples,
               "setup_samples": setup, "trials_per_pass": workload.trials}
    if not durations or data is None:
        return {}, details
    details.update(wall_median_pass_s=statistics.median(durations),
                   quartiles_pass_s=statistics.quantiles(rescaled, n=4) if len(rescaled) > 1 else None)
    pass_s = statistics.median(rescaled)
    metrics = {
        "trials_per_s": (workload.trials / pass_s, "1/s"),
        "pass_s": (pass_s, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_mb": (peaks[0] / 1e6, "MB"),
    }
    return metrics, details


def trace_targets():
    from mwrelay import bounds, channel, cli, exceptions, montecarlo, rates, schedule, validation

    targets = {
        "channel.substream": (channel, "substream"),
        "channel.draw_small_scale": (channel, "draw_small_scale"),
        "channel.draw_large_scale": (channel, "draw_large_scale"),
        "montecarlo.estimate_link_se": (montecarlo, "estimate_link_se"),
        "montecarlo.cdf_experiment": (montecarlo, "cdf_experiment"),
        "montecarlo.sum_se": (montecarlo, "sum_se"),
        "rates.build_zf_stage": (rates, "build_zf_stage"),
        "rates.relay_precode": (rates, "relay_precode"),
        "rates.ZfStage.combiner": (rates.ZfStage, "combiner"),
        "bounds.bound_report": (bounds, "bound_report"),
        "bounds.analytic_sum_se": (bounds, "analytic_sum_se"),
        "validation.run_round_noisy": (validation, "run_round_noisy"),
        "cli.parse_and_dispatch": (cli, "parse_and_dispatch"),
        "cli.write_csv": (cli, "write_csv"),
        "exceptions.SingularSystemError": (exceptions.SingularSystemError, "__init__"),
    }
    for name in ("partner_index", "slot_count", "known_set", "remaining_unknowns",
                 "zf_coefficient_offset"):
        targets[f"schedule.{name}"] = (schedule, name)
    for name in ("__post_init__", "n_unknowns", "proposed_slots", "conventional_slots",
                 "partner", "known", "remaining", "offset", "beam"):
        targets[f"schedule.SlotIndexer.{name}"] = (schedule.SlotIndexer, name)
    import mwrelay

    aliases = (mwrelay, bounds, channel, cli, montecarlo, rates, schedule, validation)
    return targets, aliases


def traced_pass(log, label):
    """One traced 1-worker pass; returns (seconds, output, tracer, counters)."""
    targets, aliases = trace_targets()
    counters = {"bytes_drawn": 0, "draws": 0, "distinct": set()}

    def on_draw(M, K, rng):
        # A draw is identified by its shape and the generator state it starts
        # from: two draws with the same key return the same matrix.
        counters["bytes_drawn"] += 16 * M * K
        counters["draws"] += 1
        counters["distinct"].add((M, K, repr(rng.bit_generator.state)))

    accumulate = {"channel.substream"} | {n for n in targets if n.startswith("schedule.")}
    tracer = Tracer(targets, aliases, accumulate,
                    hooks={"channel.draw_small_scale": on_draw})

    @contextlib.contextmanager
    def wrap():
        with worker_threads(1), tracer:
            yield

    seconds, data = log.run(label, wrap)
    return seconds, data, tracer, counters


def trace_run(workload, log, scratch, seconds, csv_rows):
    """Per-layer metrics: cycles of 1-worker, 2-worker and traced passes."""
    workload.warm_up(Path(scratch) / "warm.out")
    one, two, traced, tracers, counters = [], [], [], [], None
    output = None
    start = time.perf_counter()
    cycle = 0.0
    while not traced or time.perf_counter() - start + cycle <= seconds:
        begin = time.perf_counter()
        n = len(traced) + 1
        t1, data1 = log.run(f"1-worker pass {n}", lambda: worker_threads(1))
        t2, data2 = log.run(f"2-worker pass {n}")
        tt, data, tracer, counts = traced_pass(log, f"traced pass {n}")
        if data1 is None or data2 is None or data is None:
            if not traced:
                break
            continue
        one.append(t1)
        two.append(t2)
        traced.append(tt)
        tracers.append(tracer)
        counters, output = counts, data
        cycle = time.perf_counter() - begin
    if not traced:
        return {}, {}, None

    metrics = {}

    def per_pass(fn):
        return statistics.median([fn(tr, tt) for tr, tt in zip(tracers, traced)])

    first = tracers[0]
    for name in first.targets:
        layer = name.split(".")[0]
        if layer in ("schedule", "exceptions"):
            continue
        metrics[f"{name}.calls"] = (first.calls[name], "count")
        metrics[f"{name}.self_s"] = (per_pass(lambda tr, tt: tr.self_ns[name] / 1e9), "s")
    sched = [n for n in first.targets if n.startswith("schedule.")]
    metrics["schedule.calls"] = (sum(first.calls[n] for n in sched), "count")
    metrics["schedule.self_s"] = (per_pass(lambda tr, tt: sum(tr.self_ns[n] for n in sched) / 1e9), "s")
    metrics["schedule.partner_index.calls"] = (first.calls["schedule.partner_index"], "count")
    for layer in LAYERS:
        names = [n for n in first.targets if n.split(".")[0] == layer]
        metrics[f"{layer}.share"] = (
            per_pass(lambda tr, tt: sum(tr.self_ns[n] for n in names) / 1e9 / tt), "frac")
    metrics["channel.bytes_drawn"] = (counters["bytes_drawn"], "bytes")
    # Distinct draws over draws made; 1 when nothing was drawn twice.
    metrics["montecarlo.draw_reuse"] = (
        len(counters["distinct"]) / counters["draws"] if counters["draws"] else 1.0, "ratio")
    metrics["montecarlo.pool_speedup"] = (statistics.median(one) / statistics.median(two), "ratio")
    metrics["montecarlo.singular_errors"] = (first.calls["exceptions.SingularSystemError"], "count")
    metrics["cli.csv_rows"] = (csv_rows(output) if workload.writes_csv else 0, "count")
    metrics["cli.csv_bytes"] = (len(output) if workload.writes_csv else 0, "bytes")
    metrics["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(one) - 1.0, "frac")
    metrics["trace.coverage"] = (per_pass(lambda tr, tt: sum(tr.self_ns.values()) / 1e9 / tt), "frac")
    metrics["trace.pass_s"] = (statistics.median(traced), "s")
    details = {"cycles": len(traced), "one_worker_seconds": one, "two_worker_seconds": two,
               "traced_seconds": traced}
    return metrics, details, tracers[-1]


def manifest(seed, trace):
    import numpy
    import scipy

    def blas(module):
        deps = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {k: deps.get(k) for k in ("name", "version", "openblas configuration")}

    cpu = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_rev = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "mwrelay").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "git_rev": git_rev,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "trace": trace,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def main(argv=None):
    args = parse_args(argv)
    workloads = load_package()
    if workloads is None:
        print(f"perfbench: no mwrelay package under {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    RESULTS.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=RESULTS)
    try:
        log = PassLog(workload, args.seed, scratch)
        if args.trace:
            metrics, details, tracer = trace_run(workload, log, scratch, args.seconds,
                                                 workloads.csv_row_count)
            if tracer is not None:
                tracer.dump(RESULTS / f"{workload.name}-seed{args.seed}-spans.json")
        else:
            metrics, details = timed_run(workload, log, scratch, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = len(log.failures)
    correct = failed == 0 and bool(metrics)
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:14s} {name:36s} {value:>16.6g} {unit}")
    if "wall_median_pass_s" in details:
        print(f"{workload.name:14s} {'passes':36s} {details['passes']:>16d} "
              f"(wall-time median {details['wall_median_pass_s']:.4g} s)")
    if "cycles" in details:
        print(f"{workload.name:14s} {'cycles':36s} {details['cycles']:>16d}")
    print(f"{workload.name:14s} {'failed_frac':36s} {failed / log.attempted:>16.6g} "
          f"frac ({failed} of {log.attempted} passes)")
    for failure in log.failures:
        print(f"FAILED {failure}")
    report = {
        "workload": workload.name,
        "manifest": manifest(args.seed, args.trace),
        "correct": correct,
        "attempted": log.attempted,
        "failed": failed,
        "failures": log.failures,
        "failed_frac": failed / log.attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": details,
    }
    with open(RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": log.attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
