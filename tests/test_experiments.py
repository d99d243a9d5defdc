import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dstevd

import focklab as fl
import focklab.experiments as experiments
import focklab.propagate as propagate
from focklab.cli import main
from focklab.config import ExperimentConfig, config_from_dict, load_config
from focklab.experiments import (
    RateScanRow,
    fit_loglog_slope,
    run_coefficient_suite,
    run_coherent_rate_scan,
    run_fluctuation_suite,
    run_product_rate_scan,
    write_csv,
)
from focklab.fluctuations import GENERATOR_KINDS
from focklab.model import LatticeModel, Potential
from focklab.weyl import displacement_floor, minimal_cutoff, poisson_tail
from oracles import fluctuation_probe_rows, rate_rows_from_zero


def _config(**overrides):
    base = dict(
        model=LatticeModel(3, Potential.contact(3, 1.0)),
        phi0=np.array([1.0, 0.6, 0.36], complex) / np.linalg.norm([1.0, 0.6, 0.36]),
        t_samples=[0.0, 0.3],
        n_values=[2, 3, 4],
        m_max=12,
        fluctuation_dt=0.02,
        coeff_n_values=[1, 2, 4],
        remainder_n_values=[2],
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_slope_fit_exact_power_laws():
    ns = [2, 3, 4, 6, 8, 12]
    fit = fit_loglog_slope([(n, 3.7 / n) for n in ns])
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    fit = fit_loglog_slope([(n, 0.5 / np.sqrt(n)) for n in ns])
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    fit = fit_loglog_slope([(n, 2.2) for n in ns])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    slope=st.floats(min_value=-2.0, max_value=0.5),
    scale=st.floats(min_value=1e-6, max_value=1e3),
)
def test_slope_fit_recovers_power_laws(slope, scale):
    pts = [(n, scale * n**slope) for n in (2, 3, 5, 8, 13)]
    fit = fit_loglog_slope(pts)
    assert fit.slope == pytest.approx(slope, abs=1e-9)
    assert fit.residual < 1e-9


def test_slope_fit_floor_and_errors():
    assert fit_loglog_slope([(2, 0.0), (4, 1e-15), (8, 0.0)]).exact
    with pytest.raises(fl.FockLabError):
        fit_loglog_slope([(2, 1.0), (4, 0.5)])
    fit = fit_loglog_slope([(2, 1.0), (4, 0.5), (8, 0.25), (16, 1e-15)])
    assert fit.points_used == 3
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)


def test_product_scan_zero_cases():
    # free evolution keeps factorization exactly; what remains is integrator
    # noise, which sits at the slope floor and fits to a flat line
    cfg = _config(model=LatticeModel(3, Potential.zero(3)))
    rows = run_product_rate_scan(cfg)
    assert all(r.trace_distance < 1e-10 for r in rows)
    assert all(r.fitted_slope is None or abs(r.fitted_slope) < 0.1 for r in rows)
    assert all(r.truncation_loss == 0.0 for r in rows)


def test_product_scan_t0_is_zero_and_slopes_attach():
    cfg = _config(t_samples=[0.0, 0.4])
    rows = run_product_rate_scan(cfg)
    at0 = [r for r in rows if r.t == 0.0]
    assert all(r.trace_distance < 1e-12 for r in at0)
    at_t = [r for r in rows if r.t == 0.4]
    assert all(r.fitted_slope is not None for r in at_t)
    assert at_t[0].fitted_slope < -0.5


def test_coherent_scan_reports_truncation_loss():
    cfg = _config(n_values=[2, 3, 4], m_max="auto", t_samples=[0.0, 0.3])
    rows = run_coherent_rate_scan(cfg)
    at0 = [r for r in rows if r.t == 0.0]
    assert all(r.trace_distance < 1e-8 for r in at0)
    assert all(0.0 <= r.truncation_loss < 1e-10 for r in rows)
    assert not any(r.flagged for r in rows)
    # under "auto" each N runs on its own cutoff, and its tail there is the loss
    for r in rows:
        assert r.truncation_loss == poisson_tail(float(r.n), minimal_cutoff(float(r.n), cfg.eps_trunc))


def test_auto_coherent_scan_matches_single_cutoff_oracle():
    # The scan runs each N on m = minimal_cutoff(N, eps) and walks it through
    # the sorted samples; the oracle runs every N on M = minimal_cutoff(max N,
    # eps) and evolves each sample from t = 0.  H conserves number and its
    # sector blocks do not depend on the cutoff, so exact evolution gives the
    # oracle's state as the scan's plus the sectors m < k <= M.  With
    # gamma = G / <N>, G_xy = <a*_y a_x>, those sectors move gamma by at most
    # 2 <N>_top / <N>_M in trace norm (and so in HS norm), where
    # <N>_top <= N tail(N, m - 1) and <N>_M = N (1 - tail(N, M - 1)).  As
    # tail(m - 1) = p_m + tail(m), p_m <= (m + 1) / N tail(m) and
    # tail(M) <= tail(m) < eps, tail(m - 1) < (1 + (m + 1) / N) eps, and
    # likewise at M.
    # Propagation: the scan's state at the j-th distinct time carries j
    # segments of at most tol each, the oracle's one.  A state error delta
    # moves the columns a_x psi by at most sqrt(M) |delta| in HS norm, so
    # ||dG||_1 <= sqrt(M) |delta| (sqrt<N> + sqrt<N'>) and gamma moves by
    # at most 2 ||dG||_1 / <N> ~ 4 sqrt(M / N) |delta|; 1.01 covers <N>
    # below N and rounding
    cfg = _config(n_values=[2, 3, 4, 6], m_max="auto", t_samples=[0.0, 0.3, 0.6])
    eps, tol = cfg.eps_trunc, cfg.propagation_tol
    top = minimal_cutoff(6.0, eps)
    rows = run_coherent_rate_scan(cfg)
    ref = rate_rows_from_zero(dataclasses.replace(cfg, m_max=top), "coherent")
    assert [(r.n, r.t) for r in rows] == [row[:2] for row in ref]
    assert not any(r.flagged for r in rows)
    for r, row in zip(rows, ref):
        m = minimal_cutoff(float(r.n), eps)
        assert m <= top
        tail_m = (1 + (m + 1) / r.n) * eps
        tail_top = (1 + (top + 1) / r.n) * eps
        truncation = 2 * tail_m / (1 - tail_top)
        segments = sorted(set(cfg.t_samples)).index(r.t)
        propagation = 4 * np.sqrt(top / r.n) * (segments + 1) * tol
        bound = 1.01 * (truncation + propagation)
        assert abs(r.trace_distance - row[2]) < bound
        assert abs(r.hs_distance - row[3]) < bound


def test_coherent_rate_scan_zero_cases():
    # a coherent state's marginal is the projector onto its orbital at t = 0,
    # and without interaction it follows the Hartree orbital at every t
    rng = np.random.default_rng(0)
    phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    phi /= np.linalg.norm(phi)
    for potential, t in ((Potential.contact(3, 1.0), 0.0), (Potential.zero(3), 0.7)):
        cfg = ExperimentConfig(
            model=LatticeModel(3, potential), phi0=phi, t_samples=[t], n_values=[3], propagation_tol=1e-10
        )
        [row] = run_coherent_rate_scan(cfg)
        assert row.trace_distance < 1e-9 and not row.flagged


def test_coherent_scan_flags_instead_of_aborting(tmp_path):
    # with an integer cutoff every N's state is built and the rows whose
    # Poisson tail reaches tolerances.truncation_loss (1e-6) are flagged: at
    # m_max=16 the tails are 5.6e-11, 2.2e-8 and 1.13e-6 for N=2, 3, 4, the
    # last two beyond eps_trunc (1e-10)
    rows = run_coherent_rate_scan(_config(m_max=16))
    assert [(r.n, r.t) for r in rows] == [(n, t) for n in (2, 3, 4) for t in (0.0, 0.3)]
    for r in rows:
        assert r.truncation_loss == poisson_tail(float(r.n), 16)
        assert r.flagged == (r.n == 4)
    cfg = {
        "model": {"d": 3, "potential": {"kind": "contact", "strength": 1.0}},
        "initial_phi": {"preset": "geometric", "ratio": 0.6},
        "time": {"t_max": 0.3, "samples": [0.0, 0.3]},
        "scan": {"n_values": [2, 3, 4]},
        "fock": {"m_max": 16},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["coherent-scan", "--config", str(path), "--out", str(out)]) == 3
    assert len((out / "coherent_rate.csv").read_text().splitlines()) == 1 + 6


@pytest.mark.parametrize(
    "kind, tol, eps_trunc",
    [
        pytest.param("product", 1e-12, 1e-5, id="product-1e-12"),
        pytest.param("coherent", 1e-9, 1e-5, id="coherent-1e-09"),
        pytest.param("coherent", 1e-9, 1e-10, id="coherent-eps_trunc-1e-10"),
    ],
)
def test_rate_scans_match_per_sample_evolutions(kind, tol, eps_trunc):
    # each N walks once through the sorted sample times; the oracle evolves
    # every sample from t = 0.  The coherent space (dimension 969) takes the
    # Krylov route; scan and oracle build every N's state whatever its
    # Poisson tail, and eps_trunc does not enter: only N=4, whose tail at
    # m_max=16 (1.1e-6) reaches tolerances.truncation_loss, is flagged, also
    # where eps_trunc (1e-10) is below the tails of N=3 and 4.  The product
    # sectors take the dense route
    cfg = _config(t_samples=[0.4, 0.0, 0.2, 0.4], m_max=16, eps_trunc=eps_trunc)
    scan = run_product_rate_scan if kind == "product" else run_coherent_rate_scan
    rows = scan(cfg)
    ref = rate_rows_from_zero(cfg, kind)
    assert [(r.n, r.t) for r in rows] == [row[:2] for row in ref]
    assert [(r.truncation_loss, r.flagged) for r in rows] == [row[4:] for row in ref]
    assert {r.n for r in rows if r.flagged} == ({4} if kind == "coherent" else set())
    for r, row in zip(rows, ref):
        assert abs(r.trace_distance - row[2]) < tol
        assert abs(r.hs_distance - row[3]) < tol


def test_fluctuation_suite_records_failures_and_continues():
    strong = LatticeModel(3, Potential.contact(3, 2.5))
    cfg = _config(model=strong, m_max=8, n_values=[2, 8], t_samples=[2.0], fluctuation_dt=0.05)
    result = run_fluctuation_suite(cfg)
    assert result.failures  # cutoff 8 cannot hold the growth at t=2
    assert not result.ok
    probes = {p for p, _, _ in result.failures}
    assert probes <= {"moments", "gaps", "parity", "conjugation", "limiting"}
    # surviving cells still produced rows
    assert any(result.tables.values())


def test_tridiagonal_solver_failure_is_a_recorded_cell(monkeypatch):
    # a nonzero info from LAPACK's dstevd is a ConvergenceError, which the
    # suite records as failed cells, not numpy's LinAlgError, which ended
    # the CLI in a traceback
    def failing(alpha, beta):
        w, u, _ = dstevd(alpha, beta)
        return w, u, 1

    monkeypatch.setattr(propagate, "dstevd", failing)
    cfg = _config(n_values=[2], t_samples=[0.25], m_max=8)
    result = run_fluctuation_suite(cfg)
    assert not result.ok
    assert {p for p, _, _ in result.failures} == {"moments", "gaps", "parity", "limiting", "conjugation"}
    assert all(msg.startswith("ConvergenceError: tridiagonal") for _, _, msg in result.failures)
    assert not any(result.tables.values())


def test_fluctuation_suite_clean_run():
    cfg = _config(n_values=[2, 3], t_samples=[0.25], m_max=14)
    result = run_fluctuation_suite(cfg)
    assert result.ok
    assert len(result.tables["moments"]) == 2
    assert len(result.tables["limiting"]) == 2
    gaps = {n: g for (_, n, _, _, g) in result.tables["limiting"]}
    assert gaps[3] < gaps[2]


def test_fluctuation_suite_evolves_every_generator_kind(monkeypatch):
    # every kind the package offers feeds some output of the suite; a kind
    # reachable only through the Python API fails here
    kinds = set()
    trajectory = experiments.fluctuation_trajectory

    def recording(ops, kind, *args):
        kinds.add(kind)
        return trajectory(ops, kind, *args)

    monkeypatch.setattr(experiments, "fluctuation_trajectory", recording)
    result = run_fluctuation_suite(_config(n_values=[2], t_samples=[0.1], m_max=8))
    assert result.ok
    assert kinds == set(GENERATOR_KINDS)


def test_fluctuation_suite_free_model_all_probes_vanish():
    cfg = _config(
        model=LatticeModel(3, Potential.zero(3)),
        n_values=[2, 4],
        t_samples=[0.5],
        m_max=10,
    )
    result = run_fluctuation_suite(cfg)
    assert result.ok
    assert all(row[-1] < 1e-12 for row in result.tables["moments"])
    assert all(row[-1] < 1e-12 for row in result.tables["gaps"])
    assert all(row[-1] < 1e-12 for row in result.tables["parity"])
    assert all(row[-1] < 1e-12 for row in result.tables["limiting"])
    # the conjugation probe still displaces states, so it sits at the
    # truncation floor of its per-N cutoff rather than at zero
    assert all(row[4] < 1e-4 for row in result.tables["conjugation"])
    for _, n, _, _, _, floor in result.tables["conjugation"]:
        assert floor == displacement_floor(n, minimal_cutoff(float(n), cfg.eps_trunc))


@pytest.mark.parametrize("threads", [1, 2])
def test_fluctuation_suite_matches_per_probe_evolutions(threads):
    # the suite evolves each (kind, N) trajectory once; the oracle evolves
    # every probe's own, as the suite did before.  Moments and gaps take the
    # same steps in the same order; parity and the limiting gap compare
    # against single-segment evolutions, whose midpoints differ by rounding
    cfg = _config(n_values=[2, 3], t_samples=[0.4, 0.0, 0.2], m_max=12, threads=threads)
    result = run_fluctuation_suite(cfg)
    assert result.ok
    ref = fluctuation_probe_rows(cfg)
    assert result.tables["moments"] == ref["moments"]
    assert result.tables["gaps"] == ref["gaps"]
    for table in ("parity", "limiting"):
        got, want = result.tables[table], ref[table]
        assert [row[:4] for row in got] == [row[:4] for row in want]
        assert max(abs(a[4] - b[4]) for a, b in zip(got, want)) < 1e-13


def test_coefficient_suite_tables():
    cfg = _config(
        coeff_n_values=[1, 2, 4], remainder_n_values=[2], t_samples=[0.2], n_values=[2, 3], m_max="auto"
    )
    result = run_coefficient_suite(cfg)
    assert result.ok
    parseval_rows = {n: rel for (n, _, rel, _, conv) in result.tables["parseval"]}
    assert parseval_rows[1] < 1e-8 and parseval_rows[2] < 1e-8
    recon = {n: err for (n, _, err) in result.tables["reconstruction"]}
    assert all(err < 1e-10 for err in recon.values())
    assert len(result.tables["remainder"]) == 3  # one row per site
    first = result.tables["coefficients"][0]
    assert first[0] == 1 and first[1] == 0 and first[2] == "1"


def test_threads_give_identical_results():
    cfg1 = _config(t_samples=[0.0, 0.3])
    cfg4 = _config(t_samples=[0.0, 0.3], threads=4)
    rows1 = run_product_rate_scan(cfg1)
    rows4 = run_product_rate_scan(cfg4)
    assert [(r.n, r.t, r.trace_distance) for r in rows1] == [
        (r.n, r.t, r.trace_distance) for r in rows4
    ]
    # under "auto" the coherent scan builds every N's basis inside its pool cell
    def coherent(threads):
        cfg = _config(n_values=[2, 3, 4, 6], m_max="auto", t_samples=[0.0, 0.3], threads=threads)
        return [(r.n, r.t, r.trace_distance, r.hs_distance, r.truncation_loss) for r in run_coherent_rate_scan(cfg)]

    assert coherent(1) == coherent(4)


def test_write_csv_formats_17_digits(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, ["a", "b", "c", "d"], [(1, 1.0 / 3.0, None, True)])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "a,b,c,d"
    assert lines[1] == "1,0.33333333333333331,,true"


def test_config_unknown_keys_rejected():
    with pytest.raises(fl.ConfigError, match="unknown key"):
        config_from_dict({"modle": {}})
    with pytest.raises(fl.ConfigError, match="unknown key"):
        config_from_dict({"model": {"d": 3, "potentail": {}}})
    with pytest.raises(fl.ConfigError, match="unknown key"):
        config_from_dict({"time": {"dtt": 0.1}})


def test_config_from_empty_dict_takes_dataclass_defaults():
    # each default is written once, on ExperimentConfig
    cfg = config_from_dict({})
    defaulted = [f for f in dataclasses.fields(ExperimentConfig) if f.init and (
        f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING)]
    assert len(defaulted) == 11
    for f in defaulted:
        want = f.default if f.default is not dataclasses.MISSING else f.default_factory()
        assert getattr(cfg, f.name) == want, f.name


def test_config_validation_rules():
    with pytest.raises(fl.ConfigError):
        config_from_dict({"scan": {"n_values": [4]}, "fock": {"m_max": 2}})
    with pytest.raises(fl.ConfigError):
        config_from_dict({"time": {"t_max": 0.5, "samples": [1.0]}})
    with pytest.raises(fl.ConfigError):
        config_from_dict({"initial_phi": {"preset": "nope"}})
    cfg = config_from_dict({})
    assert abs(np.linalg.norm(cfg.phi0) - 1.0) < 1e-12


def test_config_phi_forms():
    cfg = config_from_dict({"model": {"d": 2}, "initial_phi": [[3.0, 0.0], [0.0, 4.0]]})
    assert np.allclose(cfg.phi0, [0.6, 0.8j])
    cfg = config_from_dict({"model": {"d": 4}, "initial_phi": {"preset": "delta"}})
    assert cfg.phi0[0] == 1.0 and np.all(cfg.phi0[1:] == 0.0)


def test_load_config_errors(tmp_path):
    with pytest.raises(fl.ConfigError, match="does not exist"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(fl.ConfigError, match="valid JSON"):
        load_config(bad)


def test_shipped_config_loads():
    cfg = load_config("configs/desk.json")
    assert cfg.model.d == 3
    assert cfg.m_max == "auto"
