"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -s` to see them).

Tolerances are pinned here, from the criteria, not calibrated after the
fact.  Monte Carlo arms use the stated trial counts where the criterion
names one.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np

from stochgeo.core import theta_from_db
from stochgeo.interference import PathLossSpec, corr_coefficient
from stochgeo.location_users import lsu_gain, lsu_moments
from stochgeo.mobility import MobilitySpec, handoff_prob_avg, mobility_report
from stochgeo.pointprocess import GPP, MCP, PPP, NetworkModel
from stochgeo.queueing import bipolar_success, downlink_success, simulate_queues
from stochgeo.relay_retx import (
    corr_coeff_retx,
    estimate_harq_mrc,
    estimate_relay_jsp,
    harq_type1,
    harq_type2_cc,
    jsp_retx,
    linear_route,
    p_retx,
    relay_moments,
)
from stochgeo.shadowing import (
    BlockageModel,
    ShadowGrid,
    interference_variance_shadowed,
    laplace_interference,
    moments_shadowed,
    shadowed_mean_interference,
    simulate_shadowed,
)
from stochgeo.simengine import (
    SimConfig,
    estimate_jsp,
    estimate_meta,
    estimate_success,
)
from stochgeo import sir_analysis as sa

SEED = 20240915
PPP_ADHOC = NetworkModel(PPP(0.1), 4.0, 1.0)
MCP_ADHOC = NetworkModel(MCP(0.02, 5.0, 1.0), 4.0, 1.0)
GPP_ADHOC = NetworkModel(GPP(0.1, 1.0), 4.0, 1.0)


def _report(n, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def test_criterion_01_misr_constants(usable_cpus):
    ok = sa.misr_ppp(4.0) == 1.0
    ok = ok and abs(sa.sir_gain_g0(NetworkModel(GPP(1.0, 1.0), 4.0), 4.0) - 1.5) < 1e-12
    est = sa.misr_estimate(
        NetworkModel(PPP(1.0), 4.0), 4.0, SimConfig(trials=100000, master_seed=SEED, worker_hint=usable_cpus)
    )
    ok = ok and abs(est.mean - 1.0) < 0.02
    _report(1, ok, f"misr_ppp(4)=1, G0(beta=1)=1.5, MC misr={est.mean:.4f}")


def test_criterion_02_ppp_adhoc_success():
    cfg = SimConfig(trials=100000, master_seed=SEED)
    worst = 0.0
    ok = True
    thetas = [float(theta_from_db(db)) for db in (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)]
    for t, est in zip(thetas, estimate_success(PPP_ADHOC, thetas, "adhoc", cfg)):
        ana = math.exp(
            -0.1 * math.pi * t**0.5 * math.gamma(1.5) * math.gamma(0.5)
        )
        gap_se = abs(est.mean - ana) / max(est.stderr, 1e-12)
        worst = max(worst, gap_se)
        ok = ok and gap_se <= 3.0
    _report(2, ok, f"worst |gap| = {worst:.2f} s.e. across -10..20 dB")


def test_criterion_03_interference_correlation():
    ok = True
    for alpha in (3.0, 4.0, 6.0):
        z = corr_coefficient(
            NetworkModel(PPP(0.5), alpha), 0.0, PathLossSpec(alpha, 1.0)
        )
        ok = ok and abs(z - 0.5) <= 1e-4
    pl = PathLossSpec(4.0, 1.0)
    for u in np.linspace(0.0, 5.0, 6):
        zm = corr_coefficient(NetworkModel(MCP(0.02, 5.0, 1.0), 4.0), float(u), pl)
        zp = corr_coefficient(NetworkModel(PPP(0.1), 4.0), float(u), pl)
        zg = corr_coefficient(NetworkModel(GPP(0.1, 1.0), 4.0), float(u), pl)
        ok = ok and (zm > zp > zg)
    _report(3, ok, "zeta_PPP(0)=1/2 to 1e-4 at alpha in {3,4,6}; orderings on [0,5]")


def test_criterion_04_field_orderings(usable_cpus):
    cfg = SimConfig(trials=50000, master_seed=SEED, worker_hint=usable_cpus)
    ok = True
    thetas = [float(theta_from_db(db)) for db in (-10.0, -5.0, 0.0, 5.0, 10.0)]
    sweeps = [estimate_success(model, thetas, "adhoc", cfg) for model in (MCP_ADHOC, PPP_ADHOC, GPP_ADHOC)]
    for t, ests in zip(thetas, zip(*sweeps)):
        mm = sa.moments_adhoc(MCP_ADHOC, 1.0, t)
        mp = sa.moments_adhoc(PPP_ADHOC, 1.0, t)
        mg = sa.moments_adhoc(GPP_ADHOC, 1.0, t)
        ok = ok and (mm > mp > mg)
        for est, ana in zip(ests, (mm, mp, mg)):
            ok = ok and abs(est.mean - ana) <= 3.0 * est.stderr + 5e-4
    _report(4, ok, "M_MCP(1) > M_PPP(1) > M_GPP(1), analytic = MC within 3 s.e.")


def test_criterion_05_meta_distribution():
    cfg = SimConfig(trials=100000, master_seed=SEED)
    xg = np.arange(0.1, 0.95, 0.1)
    emp = estimate_meta(PPP_ADHOC, 1.0, xg, cfg)
    gaps = [
        abs(sa.meta_distribution(PPP_ADHOC, 1.0, float(x)) - float(v))
        for x, v in zip(xg, emp.values)
    ]
    ok = max(gaps) <= 0.01
    _report(5, ok, f"max |analytic - empirical| = {max(gaps):.4f} over x in 0.1..0.9")


def test_criterion_06_lsu_identities():
    ok = True
    for b in (1.0, 2.0, 3.0):
        for theta in (0.5, 1.0, 4.0):
            m = lsu_moments("general", b, theta, 4.0)
            for rho in (0.3, 0.7):
                mc = lsu_moments("cell_center", b, theta, 4.0, rho=rho)
                mb = lsu_moments("cell_boundary", b, theta, 4.0, rho=rho)
                ok = ok and abs(rho**2 * mc + (1 - rho**2) * mb - m) < 1e-10
            me = lsu_moments("edge", b, theta, 4.0)
            mv = lsu_moments("vertex", b, theta, 4.0)
            ok = ok and abs(me - m * m / (1 + theta) ** b) < 1e-10
            ok = ok and abs(mv - me / (1 + theta) ** b) < 1e-10
    ok = ok and abs(lsu_gain("edge", 4.0) - 1.0 / 3.0) < 1e-12
    ok = ok and abs(lsu_gain("vertex", 4.0) - 0.25) < 1e-12
    _report(6, ok, "mixture/edge/vertex identities to 1e-10; gains 1/3 and 1/4")


def test_criterion_07_shadowing():
    grid = ShadowGrid(8.0, 1.0)
    blk = BlockageModel(0.5, 1.0)
    ok = True
    for s in (0.2, 1.0, 5.0):
        ok = ok and laplace_interference(s, grid, blk, 1.0, 4.0, "correlated") > \
            laplace_interference(s, grid, blk, 1.0, 4.0, "independent")
    vc = interference_variance_shadowed(grid, blk, 1.0, 4.0, 1.0, "correlated")
    vi = interference_variance_shadowed(grid, blk, 1.0, 4.0, 1.0, "independent")
    ok = ok and vc >= vi
    mean = shadowed_mean_interference(grid, blk, 1.0, 4.0, 1.0)
    ok = ok and mean > 0  # single shared expression: modes identical exactly
    gap_l = None
    prev = None
    for cell in (2.0, 1.0, 0.5):  # halving cell size shrinks the gap
        g = ShadowGrid(8.0, cell)
        gap = moments_shadowed(1.0, 1.0, 1.0, g, blk, 1.0, 4.0, "correlated") - \
            moments_shadowed(1.0, 1.0, 1.0, g, blk, 1.0, 4.0, "independent")
        ok = ok and gap >= 0
        if prev is not None:
            ok = ok and gap <= prev
        prev = gap
        gap_l = gap
    cfg = SimConfig(trials=20000, master_seed=SEED)
    for mode in ("correlated", "independent"):
        ana = moments_shadowed(1.0, 1.0, 1.0, grid, blk, 1.0, 4.0, mode)
        est = simulate_shadowed(grid, blk, 1.0, 4.0, 1.0, 1.0, mode, cfg)
        ok = ok and abs(est.mean - ana) <= 3.0 * est.stderr + 5e-4
    _report(7, ok, "L_cor > L_ind, Var_cor >= Var_ind, gap shrinks with L, MC 3 s.e.")


def test_criterion_08_queueing():
    ok = True
    # bipolar vs discrete-time queues at the catalog setup
    qcfg = SimConfig(trials=64, master_seed=SEED)
    worst = 0.0
    points = ((0.5, 1.0), (0.85, 10.0), (0.85, 10.0**2.5), (1.0, 10.0**2.5))
    ests = simulate_queues(
        "bipolar", *zip(*points), 4.0, qcfg, density=0.001, r_t=2.0, slots=1000,
        warmup=250, n_target=100,
    )
    for (xi, t), est in zip(points, ests):
        ana = bipolar_success(xi, t, 4.0, 0.001, 2.0).success
        worst = max(worst, abs(est.mean - ana))
        ok = ok and abs(est.mean - ana) < 0.02
    # saturated coincidence of xi = 0.85 and 1.0 at large theta
    a85 = bipolar_success(0.85, 10.0**2.5, 4.0, 0.001, 2.0).success
    a10 = bipolar_success(1.0, 10.0**2.5, 4.0, 0.001, 2.0).success
    ok = ok and abs(a85 - a10) < 1e-12
    # downlink fixed point vs interacting queues (lightly loaded regime)
    dcfg = SimConfig(trials=12, master_seed=SEED)
    points = ((0.01, 1.0), (0.05, 0.1))
    ests = simulate_queues(
        "downlink", *zip(*points), 4.0, dcfg, ratio=5.0, slots=2500, warmup=500, n_target=100
    )
    for (xi, t), est in zip(points, ests):
        ana = downlink_success(xi, t, 4.0, 5.0).success
        ok = ok and abs(est.mean - ana) < 0.03
    # the theta gap at P_s = 0.8 between xi_u = 0.01 and 0.05
    def theta_at(target, xi):
        lo, hi = 1e-4, 1e5
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if downlink_success(xi, mid, 4.0, 5.0).success > target:
                lo = mid
            else:
                hi = mid
        return math.sqrt(lo * hi)

    gap_db = 10.0 * math.log10(theta_at(0.8, 0.01) / theta_at(0.8, 0.05))
    ok = ok and 8.0 <= gap_db <= 12.0
    _report(8, ok, f"bipolar worst gap {worst:.4f} (<0.02); 0.8-level gap {gap_db:.2f} dB")


def test_criterion_09_retransmission_algebra():
    from stochgeo.sir_analysis import ppp_link_exponent

    ok = True
    for d in (0.2, 0.5, 0.8):
        e1, e2 = (ppp_link_exponent(0.1, b, 1.0, 2.0 / d, 1.0) for b in (1.0, 2.0))
        ok = ok and abs(e2 / e1 - (1.0 + d)) < 1e-12
    ok = ok and abs(
        jsp_retx(1, "qsi", 1.0, 4.0, 0.1, 1.0) - jsp_retx(1, "fvi", 1.0, 4.0, 0.1, 1.0)
    ) < 1e-15
    j1 = jsp_retx(1, "fvi", 1.0, 4.0, 0.1, 1.0)
    for k in (2, 3, 4):
        ok = ok and jsp_retx(k, "qsi", 1.0, 4.0, 0.1, 1.0) > jsp_retx(k, "fvi", 1.0, 4.0, 0.1, 1.0)
        ok = ok and abs(p_retx(k, "fvi", 1.0, 4.0, 0.1, 1.0) - (1 - (1 - j1) ** k)) <= 1e-12
    for alpha in (3.0, 4.0, 6.0):
        z = corr_coeff_retx(1e-6, alpha, 1e-4, 1.0)
        ok = ok and abs(z - (1.0 - 2.0 / alpha)) < 1e-3
    cfg = SimConfig(trials=50000, master_seed=SEED)
    model = PPP_ADHOC
    for k in (2, 3):
        for regime in ("qsi", "fvi"):
            ana = jsp_retx(k, regime, 1.0, 4.0, 0.1, 1.0)
            est = estimate_jsp(model, k, regime, 1.0, cfg)
            ok = ok and abs(est.mean - ana) <= 3.0 * est.stderr + 5e-4
    _report(9, ok, "D2 = 1+delta; FVI algebra to 1e-12; all JSPs match MC in 3 s.e.")


def test_criterion_10_harq(usable_cpus):
    ok = True
    for regime in ("qsi", "fvi"):
        for t in (0.2, 1.0, 5.0):
            ok = ok and harq_type2_cc(t, 4.0, 0.1, 1.0, regime) >= \
                harq_type1(t, 4.0, 0.1, 1.0, regime) - 1e-9
    cfg = SimConfig(trials=100000, master_seed=SEED, worker_hint=usable_cpus)
    gaps = []
    for regime in ("qsi", "fvi"):
        ana = harq_type2_cc(1.0, 4.0, 0.1, 1.0, regime)
        est = estimate_harq_mrc(1.0, 4.0, 0.1, 1.0, regime, cfg)
        gaps.append(abs(est.mean - ana) / max(est.stderr, 1e-12))
        ok = ok and gaps[-1] <= 3.0
    _report(10, ok, f"Type-II >= Type-I; MRC sim gaps {gaps[0]:.2f}, {gaps[1]:.2f} s.e.")


def test_criterion_11_relaying(usable_cpus):
    ok = True
    one = linear_route(1, 1.0)
    ok = ok and abs(
        relay_moments(1.0, one, 1.0, 4.0, 0.1, "qsi") - relay_moments(1.0, one, 1.0, 4.0, 0.1, "fvi")
    ) < 1e-9
    m1 = relay_moments(1.0, one, 1.0, 4.0, 0.1, "fvi")
    for m in (2, 3, 4):
        route = linear_route(m, 1.0)
        ok = ok and abs(relay_moments(1.0, route, 1.0, 4.0, 0.1, "fvi") - m1**m) < 1e-8
        ok = ok and relay_moments(1.0, route, 1.0, 4.0, 0.1, "qsi") > \
            relay_moments(1.0, route, 1.0, 4.0, 0.1, "fvi")
    cfg = SimConfig(trials=50000, master_seed=SEED, worker_hint=usable_cpus)
    for m in (2, 3):
        route = linear_route(m, 1.0)
        for regime in ("qsi", "fvi"):
            ana = relay_moments(1.0, route, 1.0, 4.0, 0.1, regime)
            est = estimate_relay_jsp(route, 1.0, 4.0, 0.1, regime, cfg)
            ok = ok and abs(est.mean - ana) <= 3.0 * est.stderr + 5e-4
    _report(11, ok, "M=1 equality; FVI product identity; QSI > FVI; MC 3 s.e.")


def test_criterion_12_mobility(usable_cpus):
    cfg = SimConfig(trials=30000, master_seed=SEED, worker_hint=usable_cpus)
    theta = 10 ** (-0.1)
    reports = {}
    for v in (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0):
        spec = MobilitySpec(v, model="bipolar_mobile_interferers", link_distance=8.0)
        reports[v] = mobility_report(spec, 0.001, theta, 4.0, cfg)
    base0 = reports[0.0]["p2"]
    ok = True
    for v, rep in reports.items():
        # baseline success is speed independent
        ok = ok and abs(rep["p2"].mean - base0.mean) <= 2.0 * (rep["p2"].stderr + base0.stderr)
        # conditional success sits above the baseline
        gap = rep["csp"].mean - rep["p2"].mean
        ok = ok and gap >= -2.0 * (rep["csp"].stderr + rep["p2"].stderr)
    g50 = reports[50.0]["csp"].mean - reports[50.0]["p2"].mean
    ok = ok and g50 <= 2.0 * (reports[50.0]["csp"].stderr + reports[50.0]["p2"].stderr)
    hcfg = SimConfig(trials=20000, master_seed=SEED, worker_hint=usable_cpus)
    for v in (5.0, 10.0):
        rep = mobility_report(MobilitySpec(v), 0.001, theta, 4.0, hcfg)
        ana = handoff_prob_avg(0.001, v)
        ok = ok and abs(rep["handoff"].mean - ana) <= 3.0 * rep["handoff"].stderr + 1e-3
    _report(12, ok, f"baseline flat; CSP >= baseline; v=50 gap {g50:+.4f}; handoff matches")


def test_criterion_13_determinism(tmp_path):
    env = dict(os.environ)
    outs = []
    for run in (1, 2):
        out = tmp_path / f"val{run}"
        proc = subprocess.run(
            [sys.executable, "-m", "stochgeo.cli", "validate", "--quick",
             "--seed", "11", "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append((out / "report.json").read_bytes())
        timing = json.loads((out / "report_timing.json").read_text())
        # each check's runtime and this process's memory high-water mark after it
        assert timing["maxrss_mb"].keys() == timing["runtimes_s"].keys()
        assert all(mb > 0 for mb in timing["maxrss_mb"].values())
    ok = outs[0] == outs[1]
    # worker hint independence
    base = None
    for hint in (1, 4, 16):
        cfg = SimConfig(trials=3000, master_seed=SEED, worker_hint=hint)
        est = estimate_success(PPP_ADHOC, 1.0, "adhoc", cfg)
        if base is None:
            base = est.mean
        ok = ok and est.mean == base
    _report(13, ok, "byte-identical validate reports; worker_hint never matters")
