import json
from pathlib import Path

import pytest

from focklab.cli import main


@pytest.fixture()
def tiny_config(tmp_path):
    cfg = {
        "model": {"d": 2, "potential": {"kind": "contact", "strength": 1.0}},
        "initial_phi": {"preset": "geometric", "ratio": 0.5},
        "time": {"t_max": 0.3, "dt": 0.002, "samples": [0.0, 0.3], "fluctuation_dt": 0.03},
        "scan": {"n_values": [2, 3, 4]},
        "fock": {"m_max": "auto", "eps_trunc": 1e-10},
        "coefficients": {"n_values": [1, 2], "remainder_n_values": [2]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_cli_hartree(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["hartree", "--config", str(tiny_config), "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().strip().splitlines()
    assert lines[0] == "t,site,re_phi,im_phi,mass,energy"
    assert len(lines) == 1 + 2 * 2  # 2 samples x 2 sites


def test_cli_product_scan(tiny_config, tmp_path):
    out = tmp_path / "out"
    assert main(["product-scan", "--config", str(tiny_config), "--out", str(out)]) == 0
    lines = (out / "product_rate.csv").read_text().strip().splitlines()
    assert lines[0] == "N,t,trace_distance,hs_distance,fitted_slope,truncation_loss"
    assert len(lines) == 1 + 6


def test_cli_coherent_scan(tiny_config, tmp_path):
    out = tmp_path / "out"
    assert main(["coherent-scan", "--config", str(tiny_config), "--out", str(out)]) == 0
    assert (out / "coherent_rate.csv").exists()


def test_cli_fluctuation_suite(tiny_config, tmp_path):
    out = tmp_path / "out"
    assert main(["fluctuation-suite", "--config", str(tiny_config), "--out", str(out)]) == 0
    for name in ("moments.csv", "gaps.csv", "parity.csv", "conjugation.csv", "limiting.csv"):
        assert (out / name).exists()


def test_cli_coeff_suite(tiny_config, tmp_path):
    out = tmp_path / "out"
    assert main(["coeff-suite", "--config", str(tiny_config), "--out", str(out)]) == 0
    for name in ("coefficients.csv", "parseval.csv", "reconstruction.csv", "remainder.csv"):
        assert (out / name).exists()


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": {"d": 2}, "mistyped_key": 1}))
    assert main(["hartree", "--config", str(bad), "--out", str(tmp_path)]) == 1
    assert main(["hartree", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize(
    "group, key",
    [("tolerances", "propagation"), ("fock", "eps_trunc"), ("tolerances", "truncation_loss")],
)
@pytest.mark.parametrize("value", [0.0, -1e-10])
def test_cli_rejects_non_positive_tolerances(tiny_config, tmp_path, capsys, group, key, value):
    # a tolerance must be positive; zero or less is a config error (exit 1),
    # not a traceback, a cutoff search that runs out, or every row flagged
    cfg = json.loads(tiny_config.read_text())
    cfg.setdefault(group, {})[key] = value
    tiny_config.write_text(json.dumps(cfg))
    assert main(["fluctuation-suite", "--config", str(tiny_config), "--out", str(tmp_path / "out")]) == 1
    assert f"config error: {group}.{key} must be positive" in capsys.readouterr().err


BAD_VALUES = {
    "d-1": (("model", "d"), 1),
    "d-x": (("model", "d"), "x"),
    "a0-negative": (("model", "potential"), {"kind": "soft-coulomb-1d", "a0": -1}),
    "strength-nan": (("model", "potential", "strength"), float("nan")),
    "width-zero": (("model", "potential"), {"kind": "gaussian-profile", "width": 0}),
    "contact-width": (("model", "potential"), {"kind": "contact", "width": 2.0}),
    "gaussian-a0": (("model", "potential"), {"kind": "gaussian-profile", "a0": 1.0}),
    "zero-a0": (("model", "potential"), {"kind": "zero", "a0": 1.0}),
    "samples-ab": (("time", "samples"), "ab"),
    "n_values-x": (("scan", "n_values"), ["x"]),
    "dt-nan": (("time", "dt"), float("nan")),
    "phi-nan": (("initial_phi",), [[float("nan"), 0.0], [1.0, 0.0]]),
    "phi-true": (("initial_phi",), [[True, False], [0.5, 0]]),
    "model-list": (("model",), []),
    "d-fraction": (("model", "d"), 3.7),
    "m_max-fraction": (("fock", "m_max"), 12.9),
    "n_values-fraction": (("scan", "n_values"), [2.7]),
    "threads-fraction": (("parallelism", "threads"), 1.9),
    "threads-true": (("parallelism", "threads"), True),
    "uniform-ratio": (("initial_phi",), {"preset": "uniform", "ratio": 0.5}),
    "delta-ratio": (("initial_phi",), {"preset": "delta", "ratio": 0.5}),
    "dt-true": (("time", "dt"), True),
    "samples-true": (("time", "samples"), [True]),
    "samples-false": (("time", "samples"), [False]),  # [true] also exceeds t_max
    "eps_trunc-string": (("fock", "eps_trunc"), "1e-10"),
    "strength-true": (("model", "potential", "strength"), True),
    "propagation-string": (("tolerances", "propagation"), "1e-10"),
    # non-finite numbers: an infinite tolerance ran with wrong numbers, a NaN
    # sample or an infinite step ended in a traceback, as did an integer
    # beyond the float range
    "propagation-inf": (("tolerances", "propagation"), float("inf")),
    "samples-nan": (("time", "samples"), [float("nan")]),
    "dt-inf": (("time", "dt"), float("inf")),
    "t_max-inf": (("time", "t_max"), float("inf")),
    "propagation-401-digits": (("tolerances", "propagation"), 10**400),
    # N lists: a coefficient or remainder N below 1 ended in a traceback, as
    # did d=0
    "coeff-n_values-0": (("coefficients", "n_values"), [0, 2]),
    "remainder-0": (("coefficients", "remainder_n_values"), [0]),
    "remainder-negative": (("coefficients", "remainder_n_values"), [-1]),
    "d-0": (("model", "d"), 0),
    # a repeated N wrote its rows twice and entered the slope fit twice; a
    # capacity below 1 failed every basis later, at run time
    "n_values-repeat": (("scan", "n_values"), [2, 2, 3, 4]),
    "coeff-n_values-repeat": (("coefficients", "n_values"), [1, 2, 2]),
    "remainder-repeat": (("coefficients", "remainder_n_values"), [2, 2]),
    "capacity-negative": (("fock", "capacity"), -1),
    "capacity-0": (("fock", "capacity"), 0),
}


@pytest.mark.parametrize("case", [*BAD_VALUES, "directory", "non-utf8"])
def test_cli_reports_bad_config_inputs(tiny_config, tmp_path, capsys, case):
    # a value that does not convert or that the model rejects, a boolean or
    # fractional integer, a boolean or string where a number belongs (an
    # orbital's [re, im] pairs included), a
    # potential or orbital key its kind does not read,
    # a NaN time step or orbital, and a config path that cannot be read as
    # text are config errors (exit 1), not tracebacks, a silently truncated
    # value or a run that fails later; a bad value's message names its
    # group.key
    key = "config error:"
    if case == "directory":
        config = tmp_path / "dir"
        config.mkdir()
    elif case == "non-utf8":
        config = tmp_path / "latin1.json"
        config.write_bytes(b'{"model": {"d": 2}, "note": "\xe9"}')
    else:
        keys, value = BAD_VALUES[case]
        cfg = json.loads(tiny_config.read_text())
        node = cfg
        for group in keys[:-1]:
            node = node.setdefault(group, {})
        node[keys[-1]] = value
        tiny_config.write_text(json.dumps(cfg))
        config = tiny_config
        key = ".".join(keys[:2])
    assert main(["hartree", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err


@pytest.mark.parametrize("where", ["file", "under-a-file"])
def test_cli_reports_an_unusable_out_directory(tiny_config, tmp_path, capsys, where):
    # an --out that names a file, or a path below one, is one error line
    # (exit 1), not a FileExistsError or NotADirectoryError traceback
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken if where == "file" else taken / "out"
    assert main(["hartree", "--config", str(tiny_config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: --out {out} cannot be used as an output directory")
    assert len(err.splitlines()) == 1


def test_cli_fluctuation_csvs_identical_across_threads(tiny_config, tmp_path):
    # every trajectory grows its own sector window, and every coefficient
    # suite cell evolves its own states, so a thread pool changes nothing in
    # the written numbers
    outs = [tmp_path / f"out{threads}" for threads in (1, 2)]
    for threads, out in zip((1, 2), outs):
        args = ["--config", str(tiny_config), "--out", str(out), "--threads", str(threads)]
        assert main(["fluctuation-suite", *args]) == 0
        assert main(["coeff-suite", *args]) == 0
    for name in (
        "moments.csv", "gaps.csv", "parity.csv", "conjugation.csv", "limiting.csv",
        "coefficients.csv", "parseval.csv", "reconstruction.csv", "remainder.csv",
    ):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_cli_rejects_non_positive_threads(tiny_config, tmp_path, capsys, threads):
    # the flag follows the rule of parallelism.threads: a config error
    args = ["--config", str(tiny_config), "--out", str(tmp_path / "out"), "--threads", threads]
    assert main(["hartree", *args]) == 1
    assert f"config error: --threads must be >= 1, got {threads}" in capsys.readouterr().err


def _flagged_cells(err: str) -> set[str]:
    """The "probe cell" of each FLAG line on stderr."""
    return {line.split("[", 1)[1].split("]", 1)[0] for line in err.splitlines() if "FLAG [" in line}


def test_cli_remainder_cutoff_below_n_is_recorded(tiny_config, tmp_path, capsys):
    # eps_trunc 0.9 sizes every coeff-suite basis below its N: the remainder
    # basis for N=2 at m_max=0, and each reconstruction N's own at 0, 1 and 2
    # for N = 2, 3, 4.  Each of those cells records a TruncationError (an N
    # above its cutoff is not dropped without a trace), the coefficient
    # tables and every CSV are written, exit 3
    cfg = json.loads(tiny_config.read_text())
    cfg["fock"]["eps_trunc"] = 0.9
    tiny_config.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["coeff-suite", "--config", str(tiny_config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    failed = {"remainder N=2", "reconstruction N=2", "reconstruction N=3", "reconstruction N=4"}
    assert _flagged_cells(err) == failed
    for cell in failed:
        assert f"FLAG [{cell}]: TruncationError" in err
    for name in ("coefficients.csv", "parseval.csv", "reconstruction.csv", "remainder.csv"):
        assert (out / name).exists()
    assert len((out / "parseval.csv").read_text().strip().splitlines()) == 1 + 2
    assert (out / "remainder.csv").read_text().strip() == "N,t,site,abs_value,total_square"
    assert (out / "reconstruction.csv").read_text().strip() == "N,K,error"


def test_cli_reconstruction_n_within_its_cutoff_keeps_its_row(tiny_config, tmp_path, capsys):
    # eps_trunc 0.58 gives N = 2, 3, 4 the cutoffs 2, 2 and 3: N=2 writes its
    # row with K = 2 + 1 and the remainder N=2 its rows, while N=3 and N=4
    # lie above their own cutoffs and record a TruncationError each
    cfg = json.loads(tiny_config.read_text())
    cfg["fock"]["eps_trunc"] = 0.58
    tiny_config.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["coeff-suite", "--config", str(tiny_config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert _flagged_cells(err) == {"reconstruction N=3", "reconstruction N=4"}
    for cell in ("reconstruction N=3", "reconstruction N=4"):
        assert f"FLAG [{cell}]: TruncationError" in err
    rows = [row.split(",") for row in (out / "reconstruction.csv").read_text().strip().splitlines()[1:]]
    assert [row[:2] for row in rows] == [["2", "3"]]
    assert len((out / "remainder.csv").read_text().strip().splitlines()) == 1 + 2  # one row per site


def test_cli_coeff_suite_reconstruction_over_capacity_is_recorded(tiny_config, tmp_path, capsys):
    # each reconstruction N builds its own basis inside its cell: at d=2 they
    # hold 153, 210 and 276 states and the remainder basis 153, so under
    # fock.capacity 250 only reconstruction N=4 fails, as one recorded
    # failure, and every other table keeps its rows
    cfg = json.loads(tiny_config.read_text())
    cfg["fock"]["capacity"] = 250
    tiny_config.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["coeff-suite", "--config", str(tiny_config), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert _flagged_cells(captured.err) == {"reconstruction N=4"}
    assert "coeff-suite FLAG [reconstruction N=4]: CapacityError" in captured.err

    def rows(name):
        return [row.split(",") for row in (out / name).read_text().strip().splitlines()[1:]]

    assert {row[0] for row in rows("coefficients.csv")} == {"1", "2"}
    assert [row[0] for row in rows("parseval.csv")] == ["1", "2"]
    assert [row[:2] for row in rows("reconstruction.csv")] == [["2", "17"], ["3", "20"]]
    assert [row[0] for row in rows("remainder.csv")] == ["2", "2"]


def test_cli_coherent_scan_n_above_its_cutoff_is_recorded(tiny_config, tmp_path, capsys):
    # eps_trunc 0.9 sizes the coherent basis for N=2 at m_max=0, the vacuum
    # alone: the N records a TruncationError, the CSV is written, exit 3
    cfg = json.loads(tiny_config.read_text())
    cfg["fock"]["eps_trunc"] = 0.9
    tiny_config.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["coherent-scan", "--config", str(tiny_config), "--out", str(out)]) == 3
    assert "coherent-scan FLAG [coherent N=2]: TruncationError" in capsys.readouterr().err
    assert (out / "coherent_rate.csv").exists()


def test_cli_capacity_error_exit_code(tmp_path, capsys):
    # the fluctuation suite's trajectories share one basis, built outside
    # every cell: over fock.capacity it stops the run with exit 2
    cfg = {
        "model": {"d": 5, "potential": {"kind": "contact"}},
        "scan": {"n_values": [30]},
        "time": {"samples": [0.1], "t_max": 0.1},
        "fock": {"m_max": 30, "capacity": 100},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["fluctuation-suite", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("capacity error:")


def test_cli_rate_scan_cell_capacity_error_is_recorded(tmp_path, capsys):
    # each product-scan N builds its own basis inside its cell: N=30 at d=5
    # exceeds fock.capacity, is one recorded failure, and N=2 keeps its rows
    cfg = {
        "model": {"d": 5, "potential": {"kind": "contact"}},
        "scan": {"n_values": [2, 30]},
        "time": {"samples": [0.1], "t_max": 0.1},
        "fock": {"m_max": 30, "capacity": 100},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["product-scan", "--config", str(path), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "product-scan FLAG [product N=30]: CapacityError" in captured.err
    assert "product-scan: 1 rows, 1 failed cells" in captured.out
    rows = (out / "product_rate.csv").read_text().strip().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["2"]


def test_cli_all_records_a_failed_slope_fit(tmp_path, capsys):
    # at t=8e-7 only N=2 of the desk scan lies above the slope floor: the fit
    # of that time is one recorded failure with empty slopes, and every suite
    # still runs and writes its CSVs
    cfg = json.loads((Path(__file__).parents[1] / "configs" / "desk.json").read_text())
    cfg["time"]["samples"] = [8e-7, 0.25]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["all", "--config", str(path), "--out", str(out)]) == 3
    flags = [line for line in capsys.readouterr().err.splitlines() if "FLAG" in line]
    assert len(flags) == 1 and flags[0].startswith("coherent-scan FLAG [coherent t=8e-07]: FockLabError")
    assert len(list(out.glob("*.csv"))) == 12
    rows = [line.split(",") for line in (out / "coherent_rate.csv").read_text().splitlines()[1:]]
    assert {r[4] for r in rows if float(r[1]) == 8e-7} == {""}
    assert all(r[4] for r in rows if float(r[1]) == 0.25)


@pytest.mark.parametrize("suite", ["product-scan", "coherent-scan", "fluctuation-suite", "coeff-suite"])
def test_cli_hartree_blowup_stops_the_suite(tmp_path, capsys, suite):
    # RK4 at dt=0.9 leaves the unit sphere by the first node; the flow a
    # suite shares is outside every cell, so its blow-up is one error line
    # (exit 3), not one recorded failure per cell
    cfg = {
        "model": {"d": 3, "potential": {"kind": "contact", "strength": 1.0}},
        "time": {"t_max": 1.0, "dt": 0.9, "samples": [1.0]},
        "scan": {"n_values": [2, 3, 4]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([suite, "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: mass drift") and len(err.splitlines()) == 1


def test_cli_tolerance_violation_exit_code(tmp_path, capsys):
    # a cutoff too small for the requested horizon: failures recorded, exit 3
    cfg = {
        "model": {"d": 3, "potential": {"kind": "contact", "strength": 2.5}},
        "scan": {"n_values": [2, 8]},
        "time": {"t_max": 2.0, "samples": [2.0], "fluctuation_dt": 0.05},
        "fock": {"m_max": 8},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["fluctuation-suite", "--config", str(path), "--out", str(tmp_path)]) == 3
    assert "FLAG" in capsys.readouterr().err
