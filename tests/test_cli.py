import json

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
    "model-list": (("model",), []),
}


@pytest.mark.parametrize("case", [*BAD_VALUES, "directory", "non-utf8"])
def test_cli_reports_bad_config_inputs(tiny_config, tmp_path, capsys, case):
    # a value that does not convert or that the model rejects, a potential
    # key its kind does not read, a NaN time step or orbital, and a config
    # path that cannot be read as text are config errors (exit 1), not
    # tracebacks or a run that fails later
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
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        tiny_config.write_text(json.dumps(cfg))
        config = tiny_config
    assert main(["hartree", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert "config error:" in capsys.readouterr().err


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


def test_cli_remainder_cutoff_below_n_is_recorded(tiny_config, tmp_path, capsys):
    # eps_trunc 0.9 sizes the remainder basis for N=2 at m_max=0, below N:
    # the cell records a TruncationError, the CSVs are written, exit 3
    cfg = json.loads(tiny_config.read_text())
    cfg["fock"]["eps_trunc"] = 0.9
    tiny_config.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["coeff-suite", "--config", str(tiny_config), "--out", str(out)]) == 3
    assert "FLAG [remainder N=2]: TruncationError" in capsys.readouterr().err
    for name in ("coefficients.csv", "parseval.csv", "reconstruction.csv", "remainder.csv"):
        assert (out / name).exists()
    assert (out / "remainder.csv").read_text().strip() == "N,t,site,abs_value,total_square"


def test_cli_capacity_error_exit_code(tmp_path):
    cfg = {
        "model": {"d": 5, "potential": {"kind": "contact"}},
        "scan": {"n_values": [30]},
        "time": {"samples": [0.1], "t_max": 0.1},
        "fock": {"m_max": 30, "capacity": 100},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["product-scan", "--config", str(path), "--out", str(tmp_path)]) == 2


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
