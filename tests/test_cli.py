"""CLI contract: flags, config files, CSV schema, reproducibility."""

import hashlib
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from mwrelay import GeometryModel, SystemConfig, bound_report, draw_large_scale, write_beta_file
from mwrelay import cli, montecarlo
from mwrelay.channel import STREAM_PROFILE, substream
from mwrelay.cli import (
    CSV_HEADER,
    OPTIONS,
    db_to_linear,
    parse_and_dispatch,
    parse_m_range,
    read_config_file,
    write_csv,
)
from mwrelay.exceptions import InvalidConfigError, SingularSystemError


def test_db_conversion_exact_points():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == 10.0
    assert db_to_linear(3.0) == pytest.approx(1.9952623, rel=1e-6)
    assert db_to_linear(-10.0) == pytest.approx(0.1, rel=1e-12)


def test_m_range_parsing():
    assert parse_m_range("100") == [100]
    assert parse_m_range("50:500:50") == [50, 100, 150, 200, 250, 300, 350, 400, 450, 500]
    assert parse_m_range("50:90:25") == [50, 75]  # stop dropped when misaligned
    for bad in ("0", "10:5:5", "10:20:0", "1:2:3:4", "abc"):
        with pytest.raises(Exception):
            parse_m_range(bad)


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("text", ["1.5", "a:b:c", "8:16:2.5"])
def test_m_range_non_integer_names_the_text(tmp_path, capsys, text, source):
    message = f"bad antenna range {text!r}: counts must be integers"
    with pytest.raises(InvalidConfigError) as exc:
        parse_m_range(text)
    assert str(exc.value) == message
    out, cfg = tmp_path / "x.csv", tmp_path / "m.cfg"
    cfg.write_text(f"m = {text}\n")
    given = ["--m", text] if source == "flag" else ["--config", str(cfg)]
    assert parse_and_dispatch(["bounds-table", "--k", "3", *given, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"mwrelay: error: {message}\n"
    assert not out.exists()


def test_write_csv_schema(tmp_path):
    path = tmp_path / "out.csv"
    rows = [("sweep-m", "proposed", 100, 10, 1, 0, "se_mc", 1.23456789012345, 0.01, 7)]
    write_csv(path, rows, {"k": 10, "seed": 7})
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "# k = 10"
    assert lines[1] == "# seed = 7"
    assert lines[2] == ",".join(CSV_HEADER)
    assert lines[3].startswith("sweep-m,proposed,100,10,1,0,se_mc,1.23456789012,")
    # 12 significant digits in the value column
    assert len(lines[3].split(",")[7].replace(".", "").lstrip("0")) >= 10


def test_write_csv_empty_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, [])
    assert path.read_text() == ",".join(CSV_HEADER) + "\n"


def test_write_csv_rejects_unknown_metric(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "x.csv", [("e", "proposed", 1, 2, 0, 0, "bogus", 1.0, 0.0, 1)])


def test_config_file_layering(tmp_path, monkeypatch):
    monkeypatch.setenv("MWRELAY_THREADS", "2")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nk = 4\npr-db = 7\nseed = 5\nm = 16\n")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    code = parse_and_dispatch(
        ["bounds-table", "--config", str(cfg), "--out", str(out_a)]
    )
    assert code == 0
    # CLI flag overrides the file value.
    code = parse_and_dispatch(
        ["bounds-table", "--config", str(cfg), "--k", "5", "--out", str(out_b)]
    )
    assert code == 0
    assert ",16,4," in out_a.read_text()
    assert ",16,5," in out_b.read_text()


def test_config_file_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense line\n")
    with pytest.raises(Exception):
        read_config_file(bad)
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("warp-speed = 9\n")
    with pytest.raises(Exception):
        read_config_file(unknown)


@pytest.mark.parametrize("line, kind", [("trials = 10.5", "int"), ("pu-db = loud", "float")])
def test_config_conversion_error_names_file_line_and_key(tmp_path, capsys, line, kind):
    cfg = tmp_path / "typed.cfg"
    cfg.write_text(f"# comment\n{line}\n")
    key, _, value = (part.strip() for part in line.partition("="))
    message = f"{cfg}:2: {key} must be {kind}, got {value!r}"
    with pytest.raises(InvalidConfigError) as exc:
        read_config_file(cfg)
    assert str(exc.value) == message
    out = tmp_path / "x.csv"
    assert parse_and_dispatch(["bounds-table", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"mwrelay: error: {message}\n"


def test_sweep_m_reproducible_across_thread_counts(tmp_path, monkeypatch):
    args = ["sweep-m", "--k", "4", "--m", "16:32:16", "--trials", "80", "--seed", "3"]
    monkeypatch.setenv("MWRELAY_THREADS", "1")
    a = tmp_path / "a.csv"
    assert parse_and_dispatch(args + ["--out", str(a)]) == 0
    monkeypatch.setenv("MWRELAY_THREADS", "8")
    b = tmp_path / "b.csv"
    assert parse_and_dispatch(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_m_metrics_and_order(tmp_path, monkeypatch):
    monkeypatch.setenv("MWRELAY_THREADS", "2")
    out = tmp_path / "sweep.csv"
    assert parse_and_dispatch(
        ["sweep-m", "--k", "4", "--m", "16", "--trials", "40", "--seed", "1",
         "--out", str(out)]
    ) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    rows = [l.split(",") for l in lines[1:]]
    metrics = {r[6] for r in rows}
    assert metrics == {"sum_se", "se_mc", "se_bound", "se_asym"}
    # Aggregate rows lead and carry user=0/slot=0.
    assert rows[0][6] == "sum_se" and rows[0][4] == "0" and rows[0][5] == "0"
    assert rows[1][6] == "se_bound"
    # 2 aggregates + per user: uplink (2 rows) + 3 slots x 2 rows.
    assert len(rows) == 2 + 4 * (2 + 3 * 2)


def test_compare_schemes_rows(tmp_path, monkeypatch):
    monkeypatch.setenv("MWRELAY_THREADS", "2")
    out = tmp_path / "cmp.csv"
    assert parse_and_dispatch(
        ["compare-schemes", "--k", "4", "--m", "16", "--trials", "40",
         "--seed", "2", "--out", str(out)]
    ) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    rows = [l.split(",") for l in lines[1:]]
    assert {r[1] for r in rows} == {"conventional", "proposed"}
    assert all(r[6] in {"sum_se", "se_bound"} for r in rows)


def test_cdf_rows_sorted_with_percentile(tmp_path, monkeypatch):
    monkeypatch.setenv("MWRELAY_THREADS", "2")
    out = tmp_path / "cdf.csv"
    assert parse_and_dispatch(
        ["cdf", "--k", "4", "--m", "24", "--profiles", "9", "--trials", "30",
         "--seed", "4", "--beta", "geometry", "--out", str(out)]
    ) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    rows = [l.split(",") for l in lines[1:]]
    samples = [float(r[7]) for r in rows if r[6] == "cdf_sample"]
    assert len(samples) == 9
    assert samples == sorted(samples)
    p5 = [float(r[7]) for r in rows if r[6] == "p5"]
    assert len(p5) == 1
    assert samples[0] <= p5[0] <= samples[-1]


def test_cdf_rejects_m_range_and_beta_file(tmp_path):
    out = tmp_path / "x.csv"
    assert parse_and_dispatch(
        ["cdf", "--k", "4", "--m", "8:16:8", "--profiles", "2", "--trials", "5",
         "--out", str(out)]
    ) == 1
    assert parse_and_dispatch(
        ["cdf", "--k", "4", "--m", "8", "--profiles", "2", "--trials", "5",
         "--beta", "file:whatever.txt", "--out", str(out)]
    ) == 1


def test_cdf_zero_trials_nonzero(tmp_path):
    out = tmp_path / "cdf.csv"
    assert parse_and_dispatch(
        ["cdf", "--k", "4", "--m", "8", "--profiles", "3", "--trials", "0",
         "--out", str(out)]
    ) == 1
    assert not out.exists()


def test_singular_gram_fails_run_without_csv(tmp_path, monkeypatch, capsys):
    def never_regular(least, largest):
        raise SingularSystemError("forced")

    monkeypatch.setattr(montecarlo, "check_pivots", never_regular)
    out = tmp_path / "sweep.csv"
    assert parse_and_dispatch(
        ["sweep-m", "--k", "4", "--m", "16", "--trials", "40", "--seed", "1",
         "--out", str(out)]
    ) == 1
    assert capsys.readouterr().err == "mwrelay: error: forced\n"
    assert not out.exists()


def _closed_form_rows(path):
    """(scheme, M, K, user, slot, metric) -> value of the per-user closed-form rows."""
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return {
        (r[1], r[2], r[3], r[4], r[5], r[6]): r[7]
        for r in (l.split(",") for l in lines[1:])
        if r[6] in {"se_bound", "se_asym"} and r[4] != "0"
    }


def test_bounds_table_matches_sweep_closed_forms(tmp_path, monkeypatch):
    monkeypatch.setenv("MWRELAY_THREADS", "2")
    beta_path = tmp_path / "beta.txt"
    write_beta_file(beta_path, np.array([0.4, 1.0, 1.7, 0.9, 2.5]))
    common = ["--k", "5", "--m", "24", "--beta", f"file:{beta_path}", "--scheme", "both"]
    table, sweep = tmp_path / "table.csv", tmp_path / "sweep.csv"
    assert parse_and_dispatch(["bounds-table", *common, "--out", str(table)]) == 0
    assert parse_and_dispatch(
        ["sweep-m", *common, "--trials", "20", "--out", str(sweep)]
    ) == 0
    from_table = _closed_form_rows(table)
    # Every user/slot of both schemes: uplink plus K-1 broadcast slots.
    assert len(from_table) == 2 * 5 * 5
    assert {key[5] for key in from_table} == {"se_bound", "se_asym"}
    assert _closed_form_rows(sweep) == from_table


def test_beta_file_flow(tmp_path, monkeypatch):
    monkeypatch.setenv("MWRELAY_THREADS", "2")
    beta_path = tmp_path / "beta.txt"
    write_beta_file(beta_path, np.array([0.5, 1.0, 1.5, 2.0]))
    out = tmp_path / "o.csv"
    assert parse_and_dispatch(
        ["bounds-table", "--k", "4", "--m", "16", "--beta", f"file:{beta_path}",
         "--out", str(out)]
    ) == 0
    # Wrong user count must fail loudly.
    assert parse_and_dispatch(
        ["bounds-table", "--k", "5", "--m", "16", "--beta", f"file:{beta_path}",
         "--out", str(out)]
    ) == 1


def test_non_finite_power_nonzero(tmp_path, capsys):
    # 1e309 dB parses to an infinite float and so to an infinite linear power;
    # 4000 dB is finite, but its linear power overflows a float, through a
    # flag or a config file.
    config = tmp_path / "p.cfg"
    config.write_text("pr-db = 4000\n")
    out = tmp_path / "x.csv"
    for power, message in ((["--pr-db", "1e309"], "got inf"),
                           (["--pr-db", "4000"], "4000.0 dB"),
                           (["--pu-db", "4000"], "4000.0 dB"),
                           (["--config", str(config)], "4000.0 dB")):
        assert parse_and_dispatch(
            ["sweep-m", "--k", "4", "--m", "8", "--trials", "8", *power, "--out", str(out)]
        ) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("mwrelay: error: ") and message in err


def test_unknown_flag_nonzero():
    assert parse_and_dispatch(["sweep-m", "--warp", "9"]) != 0
    assert parse_and_dispatch(["unknown-experiment"]) != 0


def test_unwritable_output_nonzero(tmp_path):
    missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
    code = parse_and_dispatch(
        ["bounds-table", "--k", "4", "--m", "8", "--out", str(missing_dir)]
    )
    assert code == 1


def test_missing_out_nonzero():
    assert parse_and_dispatch(["sweep-m", "--k", "4", "--m", "8", "--trials", "5"]) == 1


def test_missing_out_fails_before_the_experiment_runs(monkeypatch, capsys):
    # The --out check used to run after the Monte Carlo, so a long run was lost.
    def never(*args, **kwargs):
        raise AssertionError("the experiment ran without --out")

    monkeypatch.setattr(cli, "estimate_link_se", never)
    assert parse_and_dispatch(["sweep-m", "--k", "10", "--m", "100:300:100"]) == 1
    assert "pass --out PATH" in capsys.readouterr().err


def test_bounds_table_geometry_gains_are_profile_zero(tmp_path):
    # --beta geometry draws the gains of cdf_experiment's profile 0 from the seed.
    K, seed, out = 4, 7, tmp_path / "table.csv"
    assert parse_and_dispatch(["bounds-table", "--k", str(K), "--m", "16:32:16", "--beta",
                               "geometry", "--seed", str(seed), "--out", str(out)]) == 0
    beta = draw_large_scale(GeometryModel(), K, substream(seed, STREAM_PROFILE, 0))
    written = {(r[1], int(r[2]), int(r[4]), int(r[5])): r[7] for r in _data_rows(out)}
    expected = {}
    for M in (16, 32):
        report = bound_report(SystemConfig(M=M, K=K, p_u=1.0, p_r=10.0), beta)
        for scheme in ("conventional", "proposed"):
            table = np.column_stack([report.uplink, report.downlink(scheme)])
            expected.update({(scheme, M, k + 1, t): f"{value:.12g}"
                             for (k, t), value in np.ndenumerate(table)})
    assert written == expected


def test_selftest_exits_zero(monkeypatch, capsys):
    monkeypatch.setenv("MWRELAY_THREADS", "2")
    assert parse_and_dispatch(["selftest", "--seed", "1"]) == 0
    captured = capsys.readouterr()
    assert "PASS" in captured.out
    assert "FAIL" not in captured.out
    for check in ("schedule identities", "noiseless recovery"):
        lines = [line for line in captured.out.splitlines() if check in line]
        assert [line.split("  ")[:2] for line in lines] == [
            ["PASS", f"{check} K={K}"] for K in range(2, 13)]


def test_trials_default_per_experiment(tmp_path, monkeypatch):
    monkeypatch.setenv("MWRELAY_THREADS", "2")
    cdf_out = tmp_path / "cdf_default.csv"
    assert parse_and_dispatch(
        ["cdf", "--k", "4", "--m", "16", "--profiles", "2", "--seed", "1",
         "--beta", "geometry", "--out", str(cdf_out)]
    ) == 0
    assert "# trials = 1000\n" in cdf_out.read_text()
    sweep_out = tmp_path / "sweep_default.csv"
    assert parse_and_dispatch(
        ["sweep-m", "--k", "4", "--m", "16", "--seed", "1", "--out", str(sweep_out)]
    ) == 0
    assert "# trials = 10000\n" in sweep_out.read_text()
    table_out = tmp_path / "table_default.csv"
    assert parse_and_dispatch(
        ["bounds-table", "--k", "4", "--m", "16", "--out", str(table_out)]
    ) == 0
    assert "# trials" not in table_out.read_text()


def _data_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return [l.split(",") for l in lines[1:]]


@pytest.mark.parametrize("argv, ms", [
    (["sweep-m", "--k", "4", "--m", "16:32:16", "--trials", "300"], (16, 32)),
    (["cdf", "--k", "4", "--m", "16", "--profiles", "3", "--trials", "300", "--beta", "geometry"],
     (16,)),
], ids=["sweep-m", "cdf"])
def test_both_schemes_share_one_draw_per_trial(tmp_path, monkeypatch, argv, ms):
    monkeypatch.setenv("MWRELAY_THREADS", "2")
    from mwrelay import montecarlo

    real = montecarlo.draw_gram_block
    calls = []

    def counted(M, K, seed, stream, block, n):
        # A draw is identified by its shape and its substream (seed, stream, block).
        calls.append((M, K, n, (seed, stream, block)))
        return real(M, K, seed, stream, block, n)

    monkeypatch.setattr(montecarlo, "draw_gram_block", counted)
    common = argv + ["--seed", "6"]
    both = tmp_path / "both.csv"
    assert parse_and_dispatch(common + ["--scheme", "both", "--out", str(both)]) == 0
    # Every trial of every M is drawn once, whatever the number of schemes:
    # each M draws the blocks holding its 300 trials, each block once.
    trials = 300
    blocks = -(-trials // montecarlo.GRAM_BLOCK)
    assert len(set(calls)) == len(calls)
    for M in ms:
        drawn = [n for m, _, n, _ in calls if m == M]
        assert len(drawn) == blocks and sum(drawn) == blocks * montecarlo.GRAM_BLOCK
    assert len(calls) == blocks * len(ms)
    rows = _data_rows(both)
    for scheme in ("conventional", "proposed"):
        alone = tmp_path / f"{scheme}.csv"
        assert parse_and_dispatch(common + ["--scheme", scheme, "--out", str(alone)]) == 0
        assert [r for r in rows if r[1] == scheme] == _data_rows(alone)


# A value off the default for every option; cdf, whose gains are drawn from the
# geometry, reads them all but beta, which it takes as geometry only, so the
# beta case runs sweep-m, whose default is unit, on the base options it reads.
_CDF_BASE = {"k": "4", "m": "16", "profiles": "3", "trials": "20"}
_OFF_DEFAULT = {
    "k": "3", "m": "12", "pu-db": "1.5", "pr-db": "7.25", "trials": "30", "profiles": "4",
    "seed": "9", "out": None, "scheme": "both", "beta": "geometry", "cell-radius": "900",
    "exclusion-radius": "50", "ploss-exp": "3.5", "shadow-db": "6", "ref-dist": "80",
}


@pytest.mark.parametrize("key", sorted(OPTIONS))
def test_option_same_through_config_and_flag(tmp_path, monkeypatch, key):
    monkeypatch.setenv("MWRELAY_THREADS", "2")
    flag_out, config_out = tmp_path / "flag.csv", tmp_path / "config.csv"
    experiment = "sweep-m" if key == "beta" else "cdf"
    base = {name: value for name, value in _CDF_BASE.items()
            if name in cli.EXPERIMENTS[experiment].reads}
    settings = {**base, key: _OFF_DEFAULT[key]}

    def argv(options):
        return [experiment] + [f"--{name}={value}" for name, value in options.items()
                               if value is not None]

    assert parse_and_dispatch(argv(settings) + [f"--out={flag_out}"]) == 0
    cfg = tmp_path / "run.cfg"
    if key == "out":
        cfg.write_text(f"out = {config_out}\n")
        rest = argv(settings)
    else:
        cfg.write_text(f"{key} = {settings[key]}\n")
        rest = argv({name: value for name, value in settings.items() if name != key})
        rest.append(f"--out={config_out}")
    assert parse_and_dispatch(rest + ["--config", str(cfg)]) == 0
    assert flag_out.read_bytes() == config_out.read_bytes()
    if key != "out":
        kind = OPTIONS[key][0]
        assert f"# {key} = {kind(settings[key])}\n" in flag_out.read_text()


# Small runs of every experiment, on the options it reads.
_SMALL = {"k": "3", "m": "8", "trials": "8", "profiles": "2"}


@pytest.mark.parametrize("experiment, name",
                         [(experiment, name) for experiment in cli.EXPERIMENTS for name in OPTIONS])
def test_experiment_takes_only_the_options_it_reads(tmp_path, monkeypatch, capsys,
                                                    experiment, name):
    # An option the experiment reads is taken by flag and by config alike and
    # echoed; any other is a usage error as a flag and rejected as a config
    # key, before anything runs. The geometry knobs are read under geometry.
    monkeypatch.setenv("MWRELAY_THREADS", "1")
    reads = cli.EXPERIMENTS[experiment].reads
    base = [f"--{key}={value}" for key, value in _SMALL.items() if key in reads and key != name]
    if name in cli._GEOMETRY_FIELDS and "beta" in reads:
        base.append("--beta=geometry")
    flag_out, config_out, cfg = tmp_path / "flag.csv", tmp_path / "config.csv", tmp_path / "run.cfg"
    value = _OFF_DEFAULT[name]
    cfg.write_text(f"{name} = {config_out if name == 'out' else value}\n")

    def out(path):
        return [f"--out={path}"] if "out" in reads else []

    flag = [f"--out={flag_out}"] if name == "out" else [f"--{name}={value}", *out(flag_out)]
    config = ["--config", str(cfg), *([] if name == "out" else out(config_out))]
    if name not in reads:
        assert parse_and_dispatch([experiment, *base, *flag]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert parse_and_dispatch([experiment, *base, *config]) == 1
        assert capsys.readouterr().err == (
            f"mwrelay: error: {cfg}: {experiment} does not read {name!r}\n")
        assert not flag_out.exists() and not config_out.exists()
        return
    assert parse_and_dispatch([experiment, *base, *flag]) == 0
    flag_printed = capsys.readouterr().out
    assert parse_and_dispatch([experiment, *base, *config]) == 0
    assert capsys.readouterr().out == flag_printed
    if "out" in reads:
        assert flag_out.read_bytes() == config_out.read_bytes()
        if name != "out":
            assert f"# {name} = {OPTIONS[name][0](value)}\n" in flag_out.read_text()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("beta", ["unit", "file", "geometry"])
@pytest.mark.parametrize("experiment", ["sweep-m", "compare-schemes", "bounds-table"])
def test_geometry_knobs_only_under_beta_geometry(tmp_path, capsys, experiment, beta, source):
    gains, out, cfg = tmp_path / "gains.txt", tmp_path / "x.csv", tmp_path / "g.cfg"
    write_beta_file(gains, np.ones(3))
    beta = f"file:{gains}" if beta == "file" else beta
    argv = [experiment, "--k=3", "--m=8", f"--beta={beta}", f"--out={out}"]
    argv += [] if experiment == "bounds-table" else ["--trials=8"]
    knobs = {name: _OFF_DEFAULT[name] for name in cli._GEOMETRY_FIELDS}
    if beta == "geometry":
        cfg.write_text("".join(f"{name} = {value}\n" for name, value in knobs.items()))
        given = ([f"--{name}={value}" for name, value in knobs.items()] if source == "flag"
                 else ["--config", str(cfg)])
        assert parse_and_dispatch(argv + given) == 0
        assert all(f"# {name} = {float(value)}\n" in out.read_text()
                   for name, value in knobs.items())
        return
    for name, value in knobs.items():
        cfg.write_text(f"{name} = {value}\n")
        given = [f"--{name}={value}"] if source == "flag" else ["--config", str(cfg)]
        assert parse_and_dispatch(argv + given) == 1
        assert capsys.readouterr().err == (
            f"mwrelay: error: {name} is read only with --beta geometry\n")
        assert not out.exists()


# md5 of the header and rows (the '#' lines dropped) of small runs, pinned
# when every run echoed all options: narrowing the echo changes no row.
@pytest.mark.parametrize("argv, digest", [
    ("sweep-m --k 3 --m 8:16:8 --trials 40 --seed 5 --scheme both",
     "4b8e7b21725e49e5aa5c4dcf4dcaa813"),
    ("compare-schemes --k 4 --m 8:16:8 --trials 40 --seed 5", "60f893249cc0d230db96987c13f984cd"),
    ("bounds-table --k 4 --m 8:16:8 --seed 5 --beta geometry", "bb61e3713f13c2168ec3455b10b35e0a"),
], ids=["sweep-m", "compare-schemes", "bounds-table"])
def test_data_rows_pinned(tmp_path, monkeypatch, argv, digest):
    monkeypatch.setenv("MWRELAY_THREADS", "2")
    out = tmp_path / "x.csv"
    assert parse_and_dispatch(argv.split() + ["--out", str(out)]) == 0
    data = "".join(line for line in out.read_text().splitlines(keepends=True)
                   if not line.startswith("#"))
    assert hashlib.md5(data.encode()).hexdigest() == digest


def test_parser_built_once_per_process():
    # Every benchmark pass parses one command line; building the parser for
    # it each time would cost more than the parse.
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("flag, field, value", [
    ("cell-radius", "cell_radius", 700.0),
    ("exclusion-radius", "exclusion_radius", 40.0),
    ("ploss-exp", "path_loss_exponent", 3.0),
    ("shadow-db", "shadowing_sigma_db", 0.0),
    ("ref-dist", "reference_distance", 60.0),
])
def test_geometry_flag_reaches_geometry_model(tmp_path, monkeypatch, flag, field, value):
    monkeypatch.setenv("MWRELAY_THREADS", "2")
    seen = []
    real = cli.cdf_experiment

    def recording(config, geometry, *args, **kwargs):
        seen.append(geometry)
        return real(config, geometry, *args, **kwargs)

    monkeypatch.setattr(cli, "cdf_experiment", recording)
    common = ["cdf", "--k", "4", "--m", "16", "--profiles", "5", "--trials", "20",
              "--beta", "geometry"]
    default, changed = tmp_path / "default.csv", tmp_path / "changed.csv"
    assert parse_and_dispatch(common + ["--out", str(default)]) == 0
    assert parse_and_dispatch(common + [f"--{flag}", str(value), "--out", str(changed)]) == 0
    assert seen == [GeometryModel(), GeometryModel(**{field: value})]
    assert _data_rows(default) != _data_rows(changed)


def test_scheme_flag_takes_schemes_or_both(tmp_path, capsys):
    out = tmp_path / "x.csv"
    common = ["bounds-table", "--k", "4", "--m", "8", "--out", str(out)]
    for name in ("conventional", "proposed", "both"):
        assert parse_and_dispatch(common + ["--scheme", name]) == 0
    capsys.readouterr()
    assert parse_and_dispatch(common + ["--scheme", "hybrid"]) == 2
    assert "invalid choice: 'hybrid'" in capsys.readouterr().err


def test_config_scheme_takes_the_flag_choices(tmp_path, capsys):
    # A config-file scheme outside the --scheme choices is rejected (exit 1),
    # not written out as rows labelled with the unknown name.
    out, cfg = tmp_path / "x.csv", tmp_path / "h.cfg"
    common = ["bounds-table", "--k", "3", "--m", "8", "--config", str(cfg), "--out", str(out)]
    for name in ("conventional", "proposed", "both"):
        cfg.write_text(f"scheme = {name}\n")
        assert parse_and_dispatch(common) == 0
    out.unlink()
    capsys.readouterr()
    cfg.write_text("scheme = hybrid\n")
    assert parse_and_dispatch(common) == 1
    assert "'hybrid'" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(InvalidConfigError):
        read_config_file(cfg)


@pytest.mark.parametrize("source", ["flag", "config"])
def test_cdf_rejects_unknown_beta_model(tmp_path, capsys, source):
    # cdf checks --beta against the same vocabulary as the other experiments
    # instead of running the geometry model for any other value.
    out, cfg = tmp_path / "cdf.csv", tmp_path / "b.cfg"
    argv = ["cdf", "--k", "4", "--m", "8", "--profiles", "2", "--trials", "5", "--out", str(out)]
    if source == "flag":
        argv += ["--beta", "bogus"]
    else:
        cfg.write_text("beta = bogus\n")
        argv += ["--config", str(cfg)]
    assert parse_and_dispatch(argv) == 1
    assert ("mwrelay: error: --beta must be unit, file:PATH, or geometry, got 'bogus'"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("beta", ["unit", "file:gains.txt"])
def test_cdf_takes_geometry_gains_only(tmp_path, capsys, source, beta):
    # Unit gains used to score every profile alike, so the default run wrote
    # one sum SE 2000 times; a file holds one profile, not a placement study.
    out, cfg = tmp_path / "cdf.csv", tmp_path / "b.cfg"
    argv = ["cdf", "--k", "4", "--m", "8", "--profiles", "2", "--trials", "5", "--out", str(out)]
    if source == "flag":
        argv += ["--beta", beta]
    else:
        cfg.write_text(f"beta = {beta}\n")
        argv += ["--config", str(cfg)]
    assert parse_and_dispatch(argv) == 1
    assert capsys.readouterr().err == (
        "mwrelay: error: cdf draws random placements; --beta must be geometry\n")
    assert not out.exists()


def test_cdf_defaults_to_geometry_gains(tmp_path):
    out = tmp_path / "cdf.csv"
    common = ["cdf", "--k", "4", "--m", "8", "--profiles", "6", "--trials", "5"]
    assert parse_and_dispatch(common + ["--out", str(out)]) == 0
    explicit = tmp_path / "explicit.csv"
    assert parse_and_dispatch(common + ["--beta", "geometry", "--out", str(explicit)]) == 0
    assert out.read_bytes() == explicit.read_bytes()
    assert "# beta = geometry\n" in out.read_text()
    samples = [float(r[7]) for r in _data_rows(out) if r[6] == "cdf_sample"]
    assert len(samples) == 6 and len(set(samples)) == 6


def _readme_commands():
    """Each ``mwrelay ...`` line of README's Command line block as argv, continued lines joined."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("mwrelay ")]


def _readme_flags():
    """README's Command line flag table (experiment -> option names) and its geometry knobs."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            experiment, flags = line.strip("|").split("|")
            table[experiment.strip(" `")] = re.findall(r"`--([a-z-]+)`", flags)
    knobs = section.split("Every experiment that reads `--beta` also takes", 1)[1]
    return table, re.findall(r"`--([a-z-]+)`", knobs.split(";", 1)[0])


def test_readme_commands_parse_and_resolve():
    # The documented commands go through the same parser and option
    # resolution as a run, so they cannot drift from it.
    parser = cli._build_parser()
    beta = {}
    for argv in _readme_commands():
        options = cli._resolve_options(parser.parse_args(argv))
        beta[options["experiment"]] = options.get("beta")
    assert beta == {"sweep-m": "unit", "compare-schemes": "unit", "cdf": "geometry",
                    "bounds-table": "unit", "selftest": None}
    # So do the documented flags: the table lists what each experiment reads
    # but the geometry knobs, which every experiment that reads beta takes.
    table, knobs = _readme_flags()
    assert knobs == list(cli._GEOMETRY_FIELDS)
    assert table == {name: [option for option in OPTIONS
                            if option in experiment.reads and option not in knobs]
                     for name, experiment in cli.EXPERIMENTS.items()}
    for experiment in cli.EXPERIMENTS.values():
        assert ("beta" in experiment.reads) == (set(knobs) <= experiment.reads.keys())
