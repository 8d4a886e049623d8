import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from stochgeo.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    ConfigError,
    cmd_analyze,
    cmd_figure,
    main,
    parse_config,
)


def _write_config(tmp_path, **overrides):
    cfg = {
        "version": 1,
        "experiment": "moments_downlink",
        "params": {"alpha": 4.0, "density": 1.0},
        "theta_grid": {"kind": "db", "start": -10, "stop": 10, "num": 5},
        "sim": {"trials": 2000, "master_seed": 7},
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    cfg = {k: v for k, v in cfg.items() if v is not None}  # None drops a key
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_parse_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError):
        parse_config({"version": 1, "experiment": "x", "bogus": 3})
    with pytest.raises(ConfigError):
        parse_config({"version": 1, "experiment": "x", "sim": {"threads": 2}})
    with pytest.raises(ConfigError):
        parse_config({"version": 2, "experiment": "x"})


def test_parse_grid_kinds():
    base = {"version": 1, "experiment": "x"}
    g = parse_config({**base, "theta_grid": {"kind": "db", "values": [0.0]}})
    assert g["theta_grid"][0] == pytest.approx(1.0)
    g = parse_config({**base, "theta_grid": {"kind": "mh", "values": [0.5]}})
    assert g["theta_grid"][0] == pytest.approx(1.0)
    g = parse_config({**base, "theta_grid": {"kind": "linear", "values": [2.0]}})
    assert g["theta_grid"][0] == pytest.approx(2.0)


def test_analyze_produces_outputs(tmp_path):
    cfg = _write_config(tmp_path)
    assert cmd_analyze(str(cfg)) == EXIT_OK
    out = tmp_path / "out"
    csv = out / "moments_downlink.csv"
    assert csv.exists()
    header = csv.read_text().splitlines()[0]
    assert header == "theta_linear,theta_db,theta_mh,analytic,mc_mean,mc_stderr"
    assert (out / "moments_downlink.gp").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert "moments_downlink.csv" in manifest["outputs"]


def test_analyze_unknown_experiment_exit2(tmp_path):
    cfg = _write_config(tmp_path, experiment="nonsense")
    assert cmd_analyze(str(cfg)) == EXIT_CONFIG


@pytest.mark.parametrize(
    "overrides",
    [
        {"theta_grid": None},
        {"experiment": "moments_adhoc", "params": {"field": "nope", "r_t": 1.0}},
        {"experiment": "moments_adhoc", "params": {"field": "ppp"}},
        {"experiment": "interference_corr", "params": {"alpha": 2.0}},
        {"experiment": "harq", "params": {"alpha": "four"}},
    ],
    ids=["downlink_no_grid", "adhoc_unknown_field", "adhoc_no_r_t", "corr_alpha_2", "harq_alpha_text"],
)
def test_analyze_experiment_config_error_exit2(tmp_path, overrides):
    # an experiment that rejects its params is a config error, not a crash
    assert cmd_analyze(str(_write_config(tmp_path, **overrides))) == EXIT_CONFIG


@pytest.mark.parametrize("radius", [-5.0, 0.0, "abc", [5.0]])
def test_analyze_bad_window_radius_exit2(tmp_path, capsys, radius):
    # a radius the samplers cannot use is rejected where the config enters
    cfg = _write_config(
        tmp_path,
        experiment="moments_adhoc",
        params={"field": "ppp", "alpha": 3.5, "r_t": 1.0},
        sim={"trials": 200, "master_seed": 7, "window_radius": radius},
    )
    assert cmd_analyze(str(cfg)) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "params",
    [{"theta": -1.0}, {"x_grid": 0.5}, {"x_grid": []}, {"x_grid": [[0.5, 0.7]]}, {"x_grid": [0.5, 1.5]},
     {"x_grid": [0.2, 0.0]}, {"field": "mcp"}],
    ids=["negative_theta", "scalar_grid", "empty_grid", "2d_grid", "x_above_1", "x_at_0", "mcp_field"],
)
def test_analyze_meta_config_error_exit2(tmp_path, capsys, params):
    # rejected before any inversion or Monte Carlo work, with nothing written;
    # the cluster field has no analytic meta distribution
    cfg = _write_config(tmp_path, experiment="meta_distribution", params={"r_t": 1.0, **params},
                        theta_grid=None, sim={"trials": 200, "master_seed": 7})
    assert cmd_analyze(str(cfg)) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out" / "meta_distribution.csv").exists()


def test_analyze_meta_theta_zero_is_one(tmp_path):
    cfg = _write_config(tmp_path, experiment="meta_distribution", params={"r_t": 1.0, "theta": 0.0},
                        theta_grid=None, sim={"trials": 200, "master_seed": 7})
    assert cmd_analyze(str(cfg)) == EXIT_OK
    rows = (tmp_path / "out" / "meta_distribution.csv").read_text().splitlines()[1:]
    assert len(rows) == 9 and all(r.split(",")[1] == "1.0" and r.split(",")[2] == "1.0" for r in rows)


def test_analyze_bad_json_exit2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cmd_analyze(str(path)) == EXIT_CONFIG


def test_analyze_rerun_byte_identical(tmp_path):
    cfg = _write_config(tmp_path)
    assert cmd_analyze(str(cfg)) == EXIT_OK
    first = (tmp_path / "out" / "moments_downlink.csv").read_bytes()
    assert cmd_analyze(str(cfg)) == EXIT_OK
    second = (tmp_path / "out" / "moments_downlink.csv").read_bytes()
    assert first == second


def test_manifest_checksums_match(tmp_path):
    import hashlib

    cfg = _write_config(tmp_path)
    cmd_analyze(str(cfg))
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    for name, digest in manifest["outputs"].items():
        data = (out / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


def test_figure_registry_rejects_unknown(tmp_path):
    assert cmd_figure("fig999", 1, 100, str(tmp_path)) == EXIT_CONFIG


@pytest.mark.parametrize(
    "key",
    ["fig10", "fig17", "fig18", "fig21", "fig22", "fig23", "fig25", "fig27", "fig28", "fig29", "fig32", "fig33",
     "fig34"],
)
def test_analytic_figures_smoke(tmp_path, key):
    out = tmp_path / key
    assert cmd_figure(key, 3, 500, str(out)) == EXIT_OK
    files = os.listdir(out)
    assert any(f.endswith(".csv") for f in files)
    assert any(f.endswith(".gp") for f in files)
    assert "manifest.json" in files


def test_figure_registry_matches_catalog():
    from stochgeo.cli import FIGURES

    # the catalog keys the README lists
    catalog = {9, 10, 11, 12, 13, 14, 16, 17, 18, 21, 22, 23, 24, 25, 27, 28, 29, 31, 32, 33, 34, 35}
    assert set(FIGURES) == {f"fig{n}" for n in catalog}


@pytest.fixture(scope="module")
def fig24_run(tmp_path_factory):
    """One fig24 run shared by the tests that read its outputs."""
    out = tmp_path_factory.mktemp("fig24")
    return cmd_figure("fig24", 3, 500, str(out)), out


def test_figure_fig24_overlap(fig24_run):
    code, out = fig24_run
    assert code == EXIT_OK
    lines = (out / "queueing_bipolar.csv").read_text().splitlines()
    header = lines[0].split(",")
    i85 = header.index("analytic_xi0.85")
    i10 = header.index("analytic_xi1.0")
    last = lines[-1].split(",")  # 30 dB: saturated branch for both
    assert abs(float(last[i85]) - float(last[i10])) < 1e-9


def test_figure_fig35_ordering(tmp_path):
    out = tmp_path / "fig35"
    assert cmd_figure("fig35", 3, 500, str(out)) == EXIT_OK
    lines = (out / "harq.csv").read_text().splitlines()
    header = lines[0].split(",")
    t1 = header.index("type1_qsi")
    t2 = header.index("type2_qsi")
    for row in lines[1:]:
        vals = row.split(",")
        assert float(vals[t2]) >= float(vals[t1]) - 1e-9


def test_numerical_failure_exit3(tmp_path, monkeypatch):
    from stochgeo import cli
    from stochgeo.core import ToleranceError

    def boom(cfg):
        raise ToleranceError("synthetic tolerance failure")

    monkeypatch.setitem(cli._EXPERIMENTS, "moments_downlink", boom)
    cfg = _write_config(tmp_path)
    assert cmd_analyze(str(cfg)) == cli.EXIT_NUMERICAL


def test_figure_fig24_emits_sim_estimates(fig24_run):
    code, out = fig24_run
    assert code == EXIT_OK
    sim = out / "queueing_bipolar_sim.csv"
    assert sim.exists()
    header = sim.read_text().splitlines()[0]
    assert header == "param,mean,stderr,n,seed"


def test_validate_mutation_sanity(monkeypatch):
    # corrupting the retransmission constant (dropping one gamma factor) must
    # flip the corresponding validation check to FAIL
    import math

    from stochgeo import relay_retx, validate

    checks = dict(validate._checks(quick=True, seed=5))
    assert checks["retransmission_algebra_vs_mc"]()["pass"]

    exponent = relay_retx.ppp_link_exponent

    def corrupted(density, b, theta, alpha, r_t):
        # Gamma(1-delta) dropped
        return exponent(density, b, theta, alpha, r_t) / math.gamma(1.0 - 2.0 / alpha)

    monkeypatch.setattr(relay_retx, "ppp_link_exponent", corrupted)
    checks = dict(validate._checks(quick=True, seed=5))
    assert not checks["retransmission_algebra_vs_mc"]()["pass"]


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "stochgeo.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "analyze" in proc.stdout and "validate" in proc.stdout


def test_main_argv_dispatch(tmp_path):
    cfg = _write_config(tmp_path)
    assert main(["analyze", str(cfg)]) == EXIT_OK


def _hints_seen(monkeypatch):
    """The worker hint of every SimConfig handed to simengine.run_batches."""
    from stochgeo import simengine

    seen = []
    run = simengine.run_batches

    def spy(cfg, *args, **kwargs):
        seen.append(cfg.worker_hint)
        return run(cfg, *args, **kwargs)

    monkeypatch.setattr(simengine, "run_batches", spy)
    return seen


@pytest.mark.parametrize("key", ["fig11", "fig24"])  # a figure function, and fig24's queue-simulation config
def test_threads_variable_reaches_figures(tmp_path, monkeypatch, key):
    seen = _hints_seen(monkeypatch)
    monkeypatch.setenv("STOCHGEO_THREADS", "2")
    assert cmd_figure(key, 3, 500, str(tmp_path / key)) == EXIT_OK
    assert seen and set(seen) == {2}


def test_threads_variable_reaches_validate(tmp_path, monkeypatch):
    from stochgeo import cli, validate

    runs = []
    monkeypatch.setattr(cli._validate, "run", lambda **kw: runs.append(kw) or 0)
    monkeypatch.setenv("STOCHGEO_THREADS", "2")
    assert main(["validate", "--quick", "--out", str(tmp_path)]) == EXIT_OK
    assert runs[0]["worker_hint"] == 2
    seen = _hints_seen(monkeypatch)
    checks = dict(validate._checks(quick=True, seed=5, worker_hint=2))
    for name in ("misr_ppp_mc", "lsu_identities_and_mc", "queueing_downlink_vs_sim"):
        checks[name]()
    assert seen and set(seen) == {2}


@pytest.mark.parametrize("value", ["two", "0", "-1", "2.5"])
def test_bad_threads_variable_exits_2(tmp_path, monkeypatch, value):
    monkeypatch.setenv("STOCHGEO_THREADS", value)
    assert main(["validate", "--quick", "--out", str(tmp_path / "val")]) == EXIT_CONFIG
    assert not (tmp_path / "val" / "report.json").exists()
    for key in ("fig11", "fig13"):  # a figure function, and a figure given as a config
        assert main(["figure", key, "--trials", "100", "--out", str(tmp_path / key)]) == EXIT_CONFIG
    assert cmd_analyze(str(_write_config(tmp_path))) == EXIT_CONFIG


@pytest.mark.parametrize("hint", [-3, 0, "4", 2.5])
def test_config_worker_hint_must_be_a_positive_integer(tmp_path, hint):
    cfg = _write_config(tmp_path, sim={"trials": 2000, "master_seed": 7, "worker_hint": hint})
    assert cmd_analyze(str(cfg)) == EXIT_CONFIG


def test_cli_import_leaves_quadrature_and_pool_modules_unloaded():
    # concurrent.futures itself comes with numpy.testing, which scipy.special loads;
    # its process pool module and multiprocessing come only with the first pool
    import stochgeo

    code = (
        "import sys, stochgeo.cli\n"
        "print([m for m in ('scipy.integrate', 'multiprocessing', 'concurrent.futures.process')"
        " if m in sys.modules])\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(stochgeo.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _only_check(monkeypatch, name):
    """Let `validate` run the one check `name`."""
    from stochgeo import validate

    checks = validate._checks
    monkeypatch.setattr(validate, "_checks", lambda *args: [c for c in checks(*args) if c[0] == name])


@pytest.mark.parametrize("cpus", [1, 2])
def test_threads_default_to_the_usable_cpus(tmp_path, monkeypatch, cpus):
    from stochgeo import simengine

    monkeypatch.delenv("STOCHGEO_THREADS", raising=False)
    monkeypatch.setattr(simengine, "_usable_cpus", lambda: cpus)
    seen = _hints_seen(monkeypatch)
    assert main(["figure", "fig11", "--trials", "500", "--out", str(tmp_path / "fig11")]) == EXIT_OK
    assert json.loads((tmp_path / "fig11" / "manifest.json").read_text())["processes"] == cpus
    _only_check(monkeypatch, "misr_ppp_mc")
    assert main(["validate", "--quick", "--out", str(tmp_path / "val")]) == EXIT_OK
    assert seen and set(seen) == {cpus}


def test_manifest_records_processes_capped_by_the_usable_cpus(tmp_path, monkeypatch):
    from stochgeo import simengine

    monkeypatch.setattr(simengine, "_usable_cpus", lambda: 2)
    monkeypatch.setenv("STOCHGEO_THREADS", "8")
    assert main(["figure", "fig10", "--out", str(tmp_path / "fig10")]) == EXIT_OK
    assert json.loads((tmp_path / "fig10" / "manifest.json").read_text())["processes"] == 2
    cfg = _write_config(tmp_path, sim={"trials": 2000, "master_seed": 7, "worker_hint": 1})
    assert main(["analyze", str(cfg)]) == EXIT_OK  # the config's hint wins over the variable
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["processes"] == 1


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_main_leaves_no_pool_behind(tmp_path, monkeypatch):
    from stochgeo import simengine

    monkeypatch.setattr(simengine, "_usable_cpus", lambda: 2)
    monkeypatch.setenv("STOCHGEO_THREADS", "2")
    pools = []
    run = simengine.run_batches

    def spy(cfg, *args, **kwargs):
        out = run(cfg, *args, **kwargs)
        pools.append(simengine._POOL)
        return out

    monkeypatch.setattr(simengine, "run_batches", spy)
    assert main(["figure", "fig11", "--trials", "2500", "--out", str(tmp_path / "fig11")]) == EXIT_OK
    assert any(pool is not None for pool in pools)  # the figure ran on a pool ...
    assert simengine._POOL is None  # ... that main shut down
    _only_check(monkeypatch, "misr_ppp_mc")
    assert main(["validate", "--quick", "--out", str(tmp_path / "val")]) == EXIT_OK
    assert pools[-1] is not None and simengine._POOL is None


def test_serial_figure_never_imports_multiprocessing(tmp_path):
    import stochgeo

    code = (
        "import sys\n"
        "from stochgeo.cli import main\n"
        f"code = main(['figure', 'fig24', '--trials', '500', '--out', {str(tmp_path)!r}])\n"
        "print(code, 'multiprocessing' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(stochgeo.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
               STOCHGEO_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]
    assert json.loads((tmp_path / "manifest.json").read_text())["processes"] == 1
