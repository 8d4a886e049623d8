"""Experiment runner: analyze a JSON config, reproduce a catalog figure, or
run the full analytic-vs-Monte-Carlo validation suite.

Every experiment and figure returns named tables; one writer turns each into
a CSV file plus, where the table carries a plot spec, a gnuplot script (no
plotting dependency), and records a run manifest with per-output checksums.
Exit codes: 0 ok, 1 validation failure, 2 config error, 3 numerical failure.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from typing import NamedTuple

import numpy as np

from . import __version__
from . import location_users as lsu
from . import queueing, relay_retx, simengine, sir_analysis
from . import validate as _validate
from .core import ToleranceError, theta_db, theta_from_db, theta_from_mh, theta_mh
from .interference import PathLossSpec, corr_coefficient, interference_variance
from .mobility import MobilitySpec, handoff_prob_avg, mobility_report
from .pointprocess import GPP, MCP, PPP, NetworkModel, pcf_analytic, pcf_estimate, sample_batch
from .shadowing import BlockageModel, ShadowGrid, moments_shadowed
from .simengine import STREAMS, SimConfig, seed_stream

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

_SIM_KEYS = {"trials", "master_seed", "window_radius", "worker_hint"}
_GRID_KEYS = {"kind", "start", "stop", "num", "values"}
_TOP_KEYS = {"version", "experiment", "params", "theta_grid", "sim", "output_dir"}
_GRID_KINDS = {"db": theta_from_db, "mh": theta_from_mh, "linear": lambda vals: vals}


def _require_keys(obj, allowed, where):
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _env_worker_hint():
    """STOCHGEO_THREADS as a worker hint, the usable CPUs when unset; the one
    place the CLI reads it."""
    raw = os.environ.get("STOCHGEO_THREADS")
    if raw is None:
        return simengine._usable_cpus()
    try:
        return SimConfig(worker_hint=int(raw)).worker_hint
    except ValueError:
        raise ConfigError(f"STOCHGEO_THREADS must be an integer >= 1, not {raw!r}") from None


def parse_config(raw):
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(raw, _TOP_KEYS, "config")
    if raw.get("version") != 1:
        raise ConfigError("config version must be 1")
    if "experiment" not in raw:
        raise ConfigError("config needs an 'experiment' id")
    sim_raw = raw.get("sim", {})
    _require_keys(sim_raw, _SIM_KEYS, "sim")
    worker_hint = sim_raw.get("worker_hint")
    if worker_hint is None:
        worker_hint = _env_worker_hint()
    window_radius = sim_raw.get("window_radius")
    sim = SimConfig(
        trials=int(sim_raw.get("trials", 10000)),
        master_seed=int(sim_raw.get("master_seed", 2024)),
        window_radius=None if window_radius is None else float(window_radius),
        worker_hint=worker_hint,
    )
    grid = None
    if "theta_grid" in raw:
        g = raw["theta_grid"]
        _require_keys(g, _GRID_KEYS, "theta_grid")
        kind = g.get("kind", "db")
        if kind not in _GRID_KINDS:
            raise ConfigError("theta_grid.kind must be db, linear or mh")
        if "values" in g:
            vals = np.asarray(g["values"], dtype=float)
        else:
            try:
                vals = np.linspace(float(g["start"]), float(g["stop"]), int(g["num"]))
            except KeyError as e:
                raise ConfigError(f"theta_grid missing {e}")
        grid = _GRID_KINDS[kind](vals)
        if np.any(grid <= 0):
            raise ConfigError("theta grid must be positive")
    return {
        "experiment": raw["experiment"],
        "params": raw.get("params", {}),
        "theta_grid": grid,
        "sim": sim,
        "output_dir": raw.get("output_dir", "."),
        "echo": raw,
    }


# ---------------------------------------------------------------------------
# Tables and the writer
# ---------------------------------------------------------------------------


class Plot(NamedTuple):
    """Gnuplot spec: `series` of (column, title, style) plotted against column `x`."""

    x: str
    series: list
    xlabel: str
    ylabel: str
    title: str = ""


class Table(NamedTuple):
    """One output table, written as `<stem>.csv` and, with a plot, `<stem>.gp`."""

    stem: str
    header: list
    rows: list
    plot: Plot = None


def _curve(stem, grid, columns, title, series=None):
    """Theta-curve table: theta in linear, dB and MH plus the value columns,
    plotted against dB.  `series` lists the plotted (column, title) pairs;
    by default every value column under its own name."""
    header = ["theta_linear", "theta_db", "theta_mh", *columns]
    rows = [
        [float(t), float(theta_db(t)), float(theta_mh(t)), *(float(c[i]) for c in columns.values())]
        for i, t in enumerate(grid)
    ]
    series = series or [(name, name) for name in columns]
    plot = Plot("theta_db", [(c, t, "linespoints") for c, t in series],
                "SIR threshold (dB)", "probability", title)
    return Table(stem, header, rows, plot)


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def write_gnuplot(path, table):
    spec = table.plot
    column = {name: i + 1 for i, name in enumerate(table.header)}
    lines = ["set datafile separator ','"]
    if spec.title:
        lines.append(f"set title '{spec.title}'")
    lines += [f"set xlabel '{spec.xlabel}'", f"set ylabel '{spec.ylabel}'", "set key below", "set grid"]
    plots = [
        f"'{table.stem}.csv' using {column[spec.x]}:{column[c]} with {style} title '{title}'"
        for c, title, style in spec.series
    ]
    lines.append("plot " + ", \\\n     ".join(plots))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_manifest(out_dir, config_echo, outputs, sim, t_start):
    manifest = {
        "tool": "stochgeo",
        "version": __version__,
        "config": config_echo,
        "master_seed": sim.master_seed,
        # how the run went, outside the determinism contract
        "wall_clock_s": round(time.time() - t_start, 3),
        "processes": min(sim.worker_hint, simengine._usable_cpus()),
        "outputs": {os.path.basename(p): _sha256(p) for p in outputs},
    }
    tmp = os.path.join(out_dir, "manifest.json.tmp")
    final = os.path.join(out_dir, "manifest.json")
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, final)
    return final


def _publish(produce, out_dir, config_echo, t_start):
    """Run `produce` for the run's SimConfig and its tables, write them and the
    manifest, print the output paths, and return the exit code."""
    os.makedirs(out_dir, exist_ok=True)
    try:
        sim, tables = produce()
    except ValueError as e:  # ConfigError, or a model rejecting its parameters
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ToleranceError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    outputs = []
    for table in tables:
        path = os.path.join(out_dir, f"{table.stem}.csv")
        write_csv(path, table.header, table.rows)
        outputs.append(path)
        if table.plot is not None:
            path = os.path.join(out_dir, f"{table.stem}.gp")
            write_gnuplot(path, table)
            outputs.append(path)
    write_manifest(out_dir, config_echo, outputs, sim, t_start)
    for p in outputs:
        print(p)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Experiments: each takes a parsed config and returns its tables
# ---------------------------------------------------------------------------


def _grid(cfg):
    if cfg["theta_grid"] is None:
        raise ConfigError(f"{cfg['experiment']} needs a theta_grid")
    return cfg["theta_grid"]


def _floats(params, **defaults):
    """The params named in `defaults`, in that order, as floats."""
    return [float(params.get(name, value)) for name, value in defaults.items()]


def _model_from_params(params, require_link=False):
    kind = params.get("field", "ppp")
    alpha = float(params.get("alpha", 4.0))
    r_t = params.get("r_t")
    if kind == "ppp":
        field = PPP(float(params.get("density", 0.1)))
    elif kind == "mcp":
        field = MCP(*_floats(params, parent_density=0.02, mean_daughters=5.0, cluster_radius=1.0))
    elif kind == "gpp":
        field = GPP(*_floats(params, density=0.1, beta=1.0))
    else:
        raise ConfigError(f"unknown field kind: {kind}")
    if require_link and r_t is None:
        raise ConfigError("this experiment needs params.r_t")
    return NetworkModel(field, alpha=alpha, link_distance=r_t)


def _fields(alpha, link_distance=None):
    """The cluster, Poisson and Ginibre fields that the comparisons share."""
    return {
        "mcp": NetworkModel(MCP(0.02, 5.0, 1.0), alpha, link_distance),
        "ppp": NetworkModel(PPP(0.1), alpha, link_distance),
        "gpp": NetworkModel(GPP(0.1, 1.0), alpha, link_distance),
    }


def _field_series(columns):
    """Plot series for the cluster, Poisson and Ginibre `columns`, in that order."""
    return [(c, t, "lines") for c, t in zip(columns, ("cluster", "poisson", "ginibre"))]


def _exp_moments(cfg, geometry):
    grid = _grid(cfg)
    p = cfg["params"]
    b = float(p.get("b", 1.0))
    if geometry == "downlink":
        alpha, density = _floats(p, alpha=4.0, density=1.0)
        model = NetworkModel(PPP(density), alpha=alpha)
        analytic = lambda t: sir_analysis.moments_downlink_ppp(b, t, alpha)
    else:
        model = _model_from_params(p, require_link=True)
        analytic = lambda t: sir_analysis.moments_adhoc(model, b, t)
    est = simengine.estimate_moment(model, b, grid, geometry, cfg["sim"])
    cols = {
        "analytic": [analytic(float(t)) for t in grid],
        "mc_mean": [e.mean for e in est],
        "mc_stderr": [e.stderr for e in est],
    }
    title = "Downlink success probability" if geometry == "downlink" else "Ad hoc success probability"
    return [_curve(f"moments_{geometry}", grid, cols, title, [("analytic", "analytic"), ("mc_mean", "simulation")])]


_META_LABELS = ("target reliability x", "fraction of links")


def _exp_meta(cfg):
    p = cfg["params"]
    model = _model_from_params(p, require_link=True)
    theta = float(p.get("theta", 1.0))
    x_grid = np.asarray(p.get("x_grid", np.arange(0.1, 0.95, 0.1)), dtype=float)
    if x_grid.ndim != 1:
        raise ConfigError("params.x_grid must be a list of numbers")
    ana = sir_analysis.meta_distribution(model, theta, x_grid)
    emp = simengine.estimate_meta(model, theta, x_grid, cfg["sim"])
    rows = [[float(x), float(a), float(e), float(lo), float(hi)]
            for x, a, e, lo, hi in zip(x_grid, ana, emp.values, emp.ci_low, emp.ci_high)]
    plot = Plot("x", [("analytic", "analytic", "lines"), ("empirical", "empirical", "points")], *_META_LABELS)
    return [Table("meta_distribution", ["x", "analytic", "empirical", "ci_low", "ci_high"], rows, plot)]


def _queue_curve(stem, grid, xis, success, title):
    """Analytic success with queues, one column per arrival rate xi."""
    cols = {f"analytic_xi{xi}": [success(xi, float(t)).success for t in grid] for xi in xis}
    return _curve(stem, grid, cols, title, [(c, f"xi={xi}") for c, xi in zip(cols, xis)])


def _exp_queueing_bipolar(cfg):
    grid = _grid(cfg)
    p = cfg["params"]
    density, r_t, alpha = _floats(p, density=0.001, r_t=2.0, alpha=4.0)
    xis = [float(x) for x in p.get("xi", [0.5, 0.85, 1.0])]
    success = lambda xi, t: queueing.bipolar_success(xi, t, alpha, density, r_t)
    tables = [_queue_curve("queueing_bipolar", grid, xis, success, "Bipolar success probability with queues")]
    mc_trials = int(p.get("mc_trials", 0))
    if mc_trials > 0:
        # queue-simulation markers on a theta subset, in the estimate format, from one (xi, theta) sweep
        qcfg = SimConfig(trials=mc_trials, master_seed=cfg["sim"].master_seed, worker_hint=cfg["sim"].worker_hint)
        marks = [(xi, float(t)) for xi in xis for t in grid[:: max(len(grid) // 4, 1)]]
        ests = queueing.simulate_queues("bipolar", *zip(*marks), alpha, qcfg, density=density, r_t=r_t,
                                        slots=1000, warmup=250, n_target=100)
        rows = [[f"xi={xi},theta_db={float(theta_db(t)):.2f}", e.mean, e.stderr, e.n, e.seed]
                for (xi, t), e in zip(marks, ests)]
        tables.append(Table("queueing_bipolar_sim", ["param", "mean", "stderr", "n", "seed"], rows))
    return tables


def _exp_queueing_downlink(cfg):
    ratio, alpha = _floats(cfg["params"], ratio=5.0, alpha=4.0)
    xis = [float(x) for x in cfg["params"].get("xi", [0.01, 0.05])]
    success = lambda xi, t: queueing.downlink_success(xi, t, alpha, ratio)
    return [_queue_curve("queueing_downlink", _grid(cfg), xis, success, "Downlink success probability with queues")]


def _retx_columns(name, fn, ks, grid, alpha=4.0, density=0.1, r_t=1.0):
    """`fn(k, regime, theta, alpha, density, r_t)` for each k and both regimes."""
    return {f"{name}_{regime}_k{k}": [fn(k, regime, float(t), alpha, density, r_t) for t in grid]
            for k in ks for regime in ("qsi", "fvi")}


def _exp_retx(cfg):
    grid = _grid(cfg)
    density, r_t, alpha = _floats(cfg["params"], density=0.1, r_t=1.0, alpha=4.0)
    ks = [int(k) for k in cfg["params"].get("k", [2, 3, 4])]
    cols = _retx_columns("jsp", relay_retx.jsp_retx, ks, grid, alpha, density, r_t)
    return [_curve("retx_jsp", grid, cols, "Joint success probability of repeated transmissions")]


def _exp_harq(cfg):
    grid = _grid(cfg)
    density, r_t, alpha = _floats(cfg["params"], density=0.1, r_t=1.0, alpha=4.0)
    harq = ((1, relay_retx.harq_type1), (2, relay_retx.harq_type2_cc))
    cols = {f"type{n}_{regime}": [fn(float(t), alpha, density, r_t, regime) for t in grid]
            for regime in ("qsi", "fvi") for n, fn in harq}
    return [_curve("harq", grid, cols, "HARQ success probabilities")]


def _exp_relay(cfg):
    grid = _grid(cfg)
    density, alpha, hop_len = _floats(cfg["params"], density=0.1, alpha=4.0, hop_length=1.0)
    cols = {}
    for m in [int(m) for m in cfg["params"].get("hops", [1, 2, 4])]:
        route = relay_retx.linear_route(m, hop_len)
        for regime in ("qsi", "fvi"):
            cols[f"{regime}_M{m}"] = [relay_retx.relay_moments(1.0, route, float(t), alpha, density, regime)
                                      for t in grid]
    return [_curve("relay", grid, cols, "End-to-end relaying success probability")]


def _exp_interference_corr(cfg):
    p = cfg["params"]
    alpha, eps = _floats(p, alpha=4.0, epsilon=1.0)
    pl = PathLossSpec(alpha=alpha, epsilon=eps)
    u_grid = np.asarray(p.get("u_grid", np.linspace(0.0, 5.0, 11)), dtype=float)
    models = _fields(alpha).values()
    rows = [[float(u), *(corr_coefficient(m, float(u), pl) for m in models)] for u in u_grid]
    header = ["u", "zeta_mcp", "zeta_ppp", "zeta_gpp"]
    plot = Plot("u", _field_series(header[1:]), "displacement u", "correlation coefficient")
    return [Table("interference_corr", header, rows, plot)]


def _exp_mobility(cfg):
    p = cfg["params"]
    density, alpha, theta = _floats(p, density=0.001, alpha=4.0, theta=10 ** (-0.1))
    model = p.get("model", "downlink_mobile_user")
    link = p.get("link_distance", 8.0 if model == "bipolar_mobile_interferers" else None)
    rows = []
    for v in [float(v) for v in p.get("speeds", [0, 1, 2, 5, 10, 20, 50])]:
        rep = mobility_report(MobilitySpec(v, model=model, link_distance=link), density, theta, alpha, cfg["sim"])
        handoff = handoff_prob_avg(density, v) if model == "downlink_mobile_user" else ""
        rows.append([v, rep["csp"].mean, rep["csp"].stderr, rep["p2"].mean, rep["p2"].stderr, handoff])
    header = ["speed", "csp", "csp_stderr", "baseline", "baseline_stderr", "handoff_analytic"]
    plot = Plot("speed", [("csp", "conditional", "linespoints"), ("baseline", "baseline", "lines")],
                "speed", "probability")
    return [Table("mobility_csp", header, rows, plot)]


def _exp_shadowing(cfg):
    radius, cell, kappa, blockage, density, alpha, r_t = _floats(
        cfg["params"], window_radius=8.0, cell_size=1.0, kappa=0.5, blockage_density=1.0,
        density=1.0, alpha=4.0, r_t=1.0,
    )
    grid, sg, blk = _grid(cfg), ShadowGrid(radius, cell), BlockageModel(kappa, blockage)
    cols = {mode: [moments_shadowed(1.0, float(t), r_t, sg, blk, density, alpha, mode) for t in grid]
            for mode in ("correlated", "independent")}
    return [_curve("shadowing", grid, cols, "Success probability under cell shadowing")]


_EXPERIMENTS = {
    "moments_downlink": lambda cfg: _exp_moments(cfg, "downlink"),
    "moments_adhoc": lambda cfg: _exp_moments(cfg, "adhoc"),
    "meta_distribution": _exp_meta,
    "interference_corr": _exp_interference_corr,
    "queueing_bipolar": _exp_queueing_bipolar,
    "queueing_downlink": _exp_queueing_downlink,
    "retx_jsp": _exp_retx,
    "harq": _exp_harq,
    "relay": _exp_relay,
    "mobility_csp": _exp_mobility,
    "shadowing": _exp_shadowing,
}


def cmd_analyze(config_path):
    t0 = time.time()
    try:
        with open(config_path) as fh:
            cfg = parse_config(json.load(fh))
        fn = _EXPERIMENTS.get(cfg["experiment"])
        if fn is None:
            raise ConfigError(f"unknown experiment id: {cfg['experiment']!r}; known: {sorted(_EXPERIMENTS)}")
    except (OSError, json.JSONDecodeError, ConfigError, ValueError, TypeError) as e:  # TypeError: a list for a number
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    return _publish(lambda: (cfg["sim"], fn(cfg)), cfg["output_dir"], cfg["echo"], t0)


# ---------------------------------------------------------------------------
# Figures: each takes the run's SimConfig and returns its tables
# ---------------------------------------------------------------------------

_THETA_9 = theta_from_db(np.linspace(-10, 10, 9))
_THETA_11 = theta_from_db(np.linspace(-10, 15, 11))


def _temporal_csp(moment):
    """M2 / M1 of `moment(b)`: success given success in the previous slot."""
    return moment(2.0) / moment(1.0)


def _fig_pcf(sim):
    r_grid = np.linspace(0.05, 3.0, 30)
    mcp = MCP(0.2, 5.0, 1.0)
    substream, n = STREAMS["pcf_figure"]
    rng = seed_stream(sim.master_seed, 0, substream)
    est_p, est_m = (pcf_estimate(sample_batch(f, 10.0, rng, n, planar=True), 10.0, r_grid, bin_width=0.1)
                    for f in (PPP(1.0), mcp))
    rows = [[float(r), float(pcf_analytic(mcp, r)), 1.0, float(pcf_analytic(GPP(1.0, 0.5), r)),
             float(est_m.values[i]), float(est_p.values[i])] for i, r in enumerate(r_grid)]
    header = ["r", "mcp_analytic", "ppp_analytic", "gpp_analytic", "mcp_estimate", "ppp_estimate"]
    series = _field_series(header[1:4]) + [("mcp_estimate", "cluster est", "points"),
                                           ("ppp_estimate", "poisson est", "points")]
    return [Table("fig9_pcf", header, rows, Plot("r", series, "r", "g(r)"))]


def _variance_row(alpha):
    pl = PathLossSpec(alpha=alpha, epsilon=1.0)
    fields = (MCP(0.2, 5.0, 1.0), PPP(1.0), GPP(1.0, 1.0))
    return [alpha, *(interference_variance(NetworkModel(f, alpha), pl) for f in fields)]


def _fig_variance(sim):
    # one _DisplacedCross table per row: the rows share nothing, so they share the workers
    rows = simengine.run_points(sim, _variance_row, [float(a) for a in np.linspace(2.5, 6.0, 8)])
    header = ["alpha", "var_mcp", "var_ppp", "var_gpp"]
    return [Table("fig10_variance", header, rows, Plot("alpha", _field_series(header[1:]), "alpha", "variance"))]


def _fig_adhoc(sim):
    cols = {}
    for name, m in _fields(4.0, 1.0).items():
        cols[f"{name}_analytic"] = [sir_analysis.moments_adhoc(m, 1.0, float(t)) for t in _THETA_11]
        cols[f"{name}_mc"] = [e.mean for e in simengine.estimate_success(m, _THETA_11, "adhoc", sim)]
    return [_curve("fig11_adhoc", _THETA_11, cols, "Ad hoc fields")]


def _fig_adhoc_csp(sim):
    cols = {name: [_temporal_csp(lambda b: sir_analysis.moments_adhoc(m, b, float(t))) for t in _THETA_11]
            for name, m in _fields(4.0, 1.0).items()}
    return [_curve("fig12_temporal_csp", _THETA_11, cols, "Temporal conditional success")]


def _fig_asappp(sim):
    model = NetworkModel(GPP(0.1, 1.0), 4.0)
    g0 = sir_analysis.sir_gain_g0(model, 4.0)
    cols = {
        "asappp_shifted": [sir_analysis.moments_downlink_ppp(1.0, float(t) / g0, 4.0) for t in _THETA_9],
        "gpp_mc": [e.mean for e in simengine.estimate_success(model, _THETA_9, "downlink", sim)],
    }
    return [_curve("fig14_asappp", _THETA_9, cols, "ASAPPP shift of the Ginibre downlink",
                   [("asappp_shifted", "shifted poisson"), ("gpp_mc", "ginibre simulation")])]


def _fig_asappp_meta(sim):
    xs = np.arange(0.1, 0.95, 0.1)
    ppp = NetworkModel(PPP(0.1), 4.0)
    gpp = NetworkModel(GPP(0.1, 1.0), 4.0)
    g0 = sir_analysis.sir_gain_g0(gpp, 4.0)
    shifted = sir_analysis.meta_distribution(ppp, 1.0 / g0, xs, geometry="downlink")
    emp = simengine.estimate_meta(gpp, 1.0, xs, sim, geometry="downlink")
    rows = [[float(x), float(s), float(e)] for x, s, e in zip(xs, shifted, emp.values)]
    plot = Plot("x", [("asappp_shifted", "shifted poisson", "linespoints"),
                      ("gpp_empirical", "ginibre empirical", "linespoints")], *_META_LABELS)
    return [Table("fig16_asappp_meta", ["x", "asappp_shifted", "gpp_empirical"], rows, plot)]


def _fig_lsu(sim):
    classes = {"general": ("general", None), "center_rho0.5": ("cell_center", 0.5),
               "boundary_rho0.5": ("cell_boundary", 0.5), "edge": ("edge", None), "vertex": ("vertex", None)}
    cols = {name: [lsu.lsu_moments(cls, 1.0, float(t), 4.0, rho=rho) for t in _THETA_11]
            for name, (cls, rho) in classes.items()}
    return [_curve("fig17_lsu", _THETA_11, cols, "Location-specific success probability")]


def _fig_lsu_csp(sim):
    rows = [[float(rho), *(_temporal_csp(lambda b: lsu.lsu_moments(cls, b, 1.0, 4.0, rho=float(rho)))
                           for cls in ("cell_center", "cell_boundary"))]
            for rho in np.linspace(0.05, 0.95, 10)]
    plot = Plot("rho", [("center_csp", "center", "lines"), ("boundary_csp", "boundary", "lines")],
                "rho", "conditional success")
    return [Table("fig18_lsu_csp", ["rho", "center_csp", "boundary_csp"], rows, plot)]


def _fig_shadow_csp(sim):
    blk = BlockageModel(0.5, 1.0)
    rows = []
    for cell in (0.5, 1.0, 2.0, 4.0):
        sg = ShadowGrid(8.0, cell)
        rows.append([cell, *(_temporal_csp(lambda b: moments_shadowed(b, 1.0, 1.0, sg, blk, 1.0, 4.0, mode))
                             for mode in ("correlated", "independent"))])
    series = [("correlated_csp", "correlated", "linespoints"), ("independent_csp", "independent", "linespoints")]
    plot = Plot("cell_size", series, "cell size L", "conditional success")
    return [Table("fig22_shadow_csp", ["cell_size", "correlated_csp", "independent_csp"], rows, plot)]


def _relay_qsi(b, hops, theta):
    return relay_retx.relay_moments(b, relay_retx.linear_route(hops, 1.0), theta, 4.0, 0.1, "qsi")


def _fig_relay_spatial_csp(sim):
    cols = {f"hop{m}_csp": [_relay_qsi(1.0, m, float(t)) / _relay_qsi(1.0, m - 1, float(t)) for t in _THETA_9]
            for m in (2, 3, 4)}
    return [_curve("fig28_relay_spatial_csp", _THETA_9, cols, "Per-hop conditional success")]


def _fig_relay_temporal_csp(sim):
    rows = [[m, _temporal_csp(lambda b: _relay_qsi(b, m, 1.0))] for m in (1, 2, 3, 4)]
    plot = Plot("hops", [("temporal_csp", "qsi", "linespoints")], "hops", "temporal conditional success")
    return [Table("fig29_relay_temporal_csp", ["hops", "temporal_csp"], rows, plot)]


def _fig_retx_csp(sim):
    cols = {f"csp_k{k}": [relay_retx.csp_retx(k, "qsi", float(t), 4.0, 0.1, 1.0) for t in _THETA_9]
            for k in (1, 2, 3, 4)}
    return [_curve("fig33_retx_csp", _THETA_9, cols, "Retransmission")]


def _fig_retx_p(sim):
    return [_curve("fig34_retx_p", _THETA_9, _retx_columns("p", relay_retx.p_retx, (1, 2, 4), _THETA_9),
                   "Retransmission")]


def _db(start, stop, num):
    return {"kind": "db", "start": start, "stop": stop, "num": num}


# Desk-scale parameterizations of the catalog figures: a function of the run's
# SimConfig, or an `analyze` config whose params left out take the experiment's
# defaults.
FIGURES = {
    "fig9": _fig_pcf,
    "fig10": _fig_variance,
    "fig11": _fig_adhoc,
    "fig12": _fig_adhoc_csp,
    "fig13": {"experiment": "meta_distribution", "params": {"r_t": 1.0}},
    "fig14": _fig_asappp,
    "fig16": _fig_asappp_meta,
    "fig17": _fig_lsu,
    "fig18": _fig_lsu_csp,
    "fig21": {"experiment": "shadowing", "theta_grid": _db(-10, 10, 9)},
    "fig22": _fig_shadow_csp,
    "fig23": {"experiment": "queueing_downlink", "params": {"xi": [0.01, 0.05, 0.1]},
              "theta_grid": _db(-10, 20, 13)},
    "fig24": {"experiment": "queueing_bipolar", "params": {"mc_trials": 24}, "theta_grid": _db(-10, 30, 17)},
    "fig25": {"experiment": "queueing_bipolar", "params": {"density": 0.01, "xi": [0.5]},
              "theta_grid": _db(-10, 30, 17)},
    "fig27": {"experiment": "relay", "theta_grid": _db(-10, 10, 9)},
    "fig28": _fig_relay_spatial_csp,
    "fig29": _fig_relay_temporal_csp,
    "fig31": {"experiment": "mobility_csp", "params": {"model": "bipolar_mobile_interferers"}},
    "fig32": {"experiment": "retx_jsp", "theta_grid": _db(-10, 10, 9)},
    "fig33": _fig_retx_csp,
    "fig34": _fig_retx_p,
    "fig35": {"experiment": "harq", "theta_grid": _db(-10, 10, 9)},
}


def cmd_figure(key, seed, trials, out_dir):
    t0 = time.time()

    def produce():
        entry = FIGURES.get(key)
        if entry is None:
            raise ConfigError(f"unknown figure key: {key}")
        if callable(entry):
            sim = SimConfig(trials=trials, master_seed=seed, worker_hint=_env_worker_hint())
            return sim, entry(sim)
        cfg = parse_config({"version": 1, "sim": {"trials": trials, "master_seed": seed}, **entry})
        return cfg["sim"], _EXPERIMENTS[cfg["experiment"]](cfg)

    return _publish(produce, out_dir, {"figure": key, "seed": seed, "trials": trials}, t0)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(prog="stochgeo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="run an experiment from a JSON config")
    p_an.add_argument("config")

    p_fig = sub.add_parser("figure", help="reproduce a catalog figure at desk scale")
    p_fig.add_argument("key")
    p_fig.add_argument("--seed", type=int, default=2024)
    p_fig.add_argument("--trials", type=int, default=20000)
    p_fig.add_argument("--out", default=".")

    p_val = sub.add_parser("validate", help="run the analytic-vs-MC cross-check suite")
    p_val.add_argument("--quick", action="store_true")
    p_val.add_argument("--seed", type=int, default=2024)
    p_val.add_argument("--out", default=".")

    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            return cmd_analyze(args.config)
        if args.command == "figure":
            return cmd_figure(args.key, args.seed, args.trials, args.out)
        try:
            hint = _env_worker_hint()
        except ConfigError as e:
            print(f"config error: {e}", file=sys.stderr)
            return EXIT_CONFIG
        return _validate.run(quick=args.quick, seed=args.seed, out_dir=args.out, worker_hint=hint)
    finally:
        # a pool forked for this command carries its module state: no later caller reuses it
        simengine._shutdown_pool()


if __name__ == "__main__":
    sys.exit(main())
