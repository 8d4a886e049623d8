"""The analytic-vs-Monte-Carlo cross-check suite behind `stochgeo validate`.

Every check pits a closed form (or an independent oracle) against the
simulation engine at a fixed seed.  The result table is written to
report.json (deterministic for a given seed: identical reruns are
byte-identical) and per-check runtimes go to report_timing.json, which is
excluded from the determinism contract.  Beside the runtimes it records
each check's `maxrss_mb`: this process's peak resident memory (ru_maxrss)
when the check ends, a high-water mark that leaves the pool workers out, so
the check under which it jumps is the one that set it.
"""

import json
import math
import os
import time

import numpy as np

EXIT_OK = 0
EXIT_VALIDATION = 1


def _checks(quick, seed, worker_hint=1):
    from .core import theta_from_db
    from .interference import PathLossSpec, corr_coefficient, interference_variance, mean_interference
    from .location_users import lsu_gain, lsu_mc_estimate, lsu_moments
    from .mobility import MobilitySpec, handoff_prob_avg, mobility_report
    from .pointprocess import GPP, MCP, PPP, NetworkModel
    from .queueing import bipolar_success, downlink_success, simulate_queues
    from .relay_retx import (
        estimate_harq_mrc,
        estimate_relay_jsp,
        harq_type1,
        harq_type2_cc,
        jsp_retx,
        linear_route,
        p_retx,
        relay_moments,
    )
    from .shadowing import BlockageModel, ShadowGrid, moments_shadowed, simulate_shadowed
    from .simengine import SimConfig, estimate_meta, estimate_success
    from . import sir_analysis as sa

    n = 4000 if quick else 40000
    nq = 4 if quick else 24

    def sim(trials, **kw):
        return SimConfig(trials=trials, master_seed=seed, worker_hint=worker_hint, **kw)

    cfg = sim(n)
    ppp = NetworkModel(PPP(0.1), 4.0, 1.0)
    mcp = NetworkModel(MCP(0.02, 5.0, 1.0), 4.0, 1.0)
    gpp = NetworkModel(GPP(0.1, 1.0), 4.0, 1.0)
    pl = PathLossSpec(4.0, 1.0)

    def tol(base, stderr):
        # quick mode has far fewer trials: widen by the statistical band
        return base + (3.0 * stderr if quick else 0.0)

    def check_misr():
        a = sa.misr_ppp(4.0)
        est = sa.misr_estimate(NetworkModel(PPP(1.0), 4.0), 4.0, cfg)
        return {"analytic": a, "mc": est.mean, "pass": abs(est.mean - a) < tol(0.02 * a, est.stderr)}

    def check_ppp_adhoc():
        worst = 0.0
        ok = True
        thetas = theta_from_db(np.array([-10.0, 0.0, 10.0, 20.0]))
        for a, e in zip(sa.moments_adhoc(ppp, 1.0, thetas), estimate_success(ppp, thetas, "adhoc", cfg)):
            gap = abs(e.mean - a)
            worst = max(worst, gap)
            ok = ok and gap <= 3 * e.stderr + 1e-4
        return {"worst_gap": worst, "pass": ok}

    def check_corr_half():
        vals = [corr_coefficient(NetworkModel(PPP(0.5), a), 0.0, PathLossSpec(a, 1.0)) for a in (3.0, 4.0, 6.0)]
        return {"values": vals, "pass": all(abs(v - 0.5) < 1e-4 for v in vals)}

    def check_corr_orderings():
        ok = True
        for u in (0.0, 2.5, 5.0):
            zm = corr_coefficient(NetworkModel(MCP(0.02, 5.0, 1.0), 4.0), u, pl)
            zp = corr_coefficient(NetworkModel(PPP(0.1), 4.0), u, pl)
            zg = corr_coefficient(NetworkModel(GPP(0.1, 1.0), 4.0), u, pl)
            ok = ok and (zm > zp > zg)
        return {"pass": ok}

    def check_fig11_ordering():
        ok = True
        thetas = theta_from_db(np.array([-5.0, 0.0, 5.0]))
        ems = estimate_success(mcp, thetas, "adhoc", cfg)
        egs = estimate_success(gpp, thetas, "adhoc", cfg)
        analytic = (sa.moments_adhoc(m, 1.0, thetas) for m in (mcp, ppp, gpp))
        for mm, mp, mg, em, eg in zip(*analytic, ems, egs):
            ok = ok and (mm > mp > mg)
            ok = ok and abs(em.mean - mm) < 3 * em.stderr + 2e-3
            ok = ok and abs(eg.mean - mg) < 3 * eg.stderr + 2e-3
        return {"pass": ok}

    def check_meta():
        xg = np.arange(0.1, 0.95, 0.2 if quick else 0.1)
        emp = estimate_meta(ppp, 1.0, xg, cfg)
        gap = float(np.max(np.abs(sa.meta_distribution(ppp, 1.0, xg) - emp.values)))
        return {"max_gap": gap, "pass": gap <= tol(0.012, math.sqrt(0.25 / n))}

    def check_lsu():
        ok = abs(lsu_gain("edge", 4.0) - 1.0 / 3.0) < 1e-12
        ok = ok and abs(lsu_gain("vertex", 4.0) - 0.25) < 1e-12
        m = lsu_moments("general", 2.0, 1.0, 4.0)
        mc_ = lsu_moments("cell_center", 2.0, 1.0, 4.0, rho=0.6)
        mb = lsu_moments("cell_boundary", 2.0, 1.0, 4.0, rho=0.6)
        ok = ok and abs(0.36 * mc_ + 0.64 * mb - m) < 1e-10
        me = lsu_moments("edge", 2.0, 1.0, 4.0)
        ok = ok and abs(me - m * m / 4.0) < 1e-10
        est = lsu_mc_estimate("vertex", 1.0, 1.0, 4.0, 1.0, sim(n // 2))
        ana = lsu_moments("vertex", 1.0, 1.0, 4.0)
        ok = ok and est.within(ana, atol=2e-3)
        return {"pass": bool(ok)}

    def check_shadowing():
        sg = ShadowGrid(8.0, 1.0)
        blk = BlockageModel(0.5, 1.0)
        mc_ = moments_shadowed(1.0, 1.0, 1.0, sg, blk, 1.0, 4.0, "correlated")
        mi = moments_shadowed(1.0, 1.0, 1.0, sg, blk, 1.0, 4.0, "independent")
        est = simulate_shadowed(sg, blk, 1.0, 4.0, 1.0, 1.0, "correlated", sim(n // 10))
        ok = mc_ >= mi and est.within(mc_, atol=3e-3)
        half = moments_shadowed(1.0, 1.0, 1.0, ShadowGrid(8.0, 0.5), blk, 1.0, 4.0, "correlated") - moments_shadowed(
            1.0, 1.0, 1.0, ShadowGrid(8.0, 0.5), blk, 1.0, 4.0, "independent"
        )
        ok = ok and half <= (mc_ - mi)
        return {"gap": mc_ - mi, "pass": bool(ok)}

    def check_queue_bipolar():
        qcfg = sim(nq)
        ok = True
        gaps = {}
        points = ((0.5, 1.0), (0.85, 10.0))
        ests = simulate_queues("bipolar", *zip(*points), 4.0, qcfg, density=0.001, r_t=2.0,
                               slots=600 if quick else 1200, warmup=200, n_target=100)
        for (xi, t), est in zip(points, ests):
            ana = bipolar_success(xi, t, 4.0, 0.001, 2.0).success
            gaps[f"xi{xi}_t{t}"] = est.mean - ana
            ok = ok and abs(est.mean - ana) < tol(0.02, est.stderr)
        # large-theta overlap of the saturated branch
        t_hi = 10.0**2.5
        a = bipolar_success(0.85, t_hi, 4.0, 0.001, 2.0).success
        b = bipolar_success(1.0, t_hi, 4.0, 0.001, 2.0).success
        ok = ok and abs(a - b) < 1e-9
        return {"gaps": gaps, "pass": ok}

    def check_queue_downlink():
        qcfg = sim(max(nq // 2, 3))
        ok = True
        report = {}
        points = ((0.01, 1.0), (0.05, 0.1))
        ests = simulate_queues("downlink", *zip(*points), 4.0, qcfg, ratio=5.0,
                               slots=1200 if quick else 2500, warmup=300, n_target=64)
        for (xi, t), est in zip(points, ests):
            ana = downlink_success(xi, t, 4.0, 5.0).success
            report[f"xi{xi}_t{t}"] = est.mean - ana
            ok = ok and abs(est.mean - ana) < tol(0.03, est.stderr)
        # documented degradation at moderate load (reported, never asserted)
        est = simulate_queues("downlink", 0.05, 10.0, 4.0, qcfg, ratio=5.0,
                              slots=1200, warmup=300, n_target=64)
        report["degradation_xi0.05_t10"] = est.mean - downlink_success(0.05, 10.0, 4.0, 5.0).success
        return {"gaps": report, "pass": ok}

    def check_retx():
        ok = abs(jsp_retx(1, "qsi", 1.0, 4.0, 0.1, 1.0) - jsp_retx(1, "fvi", 1.0, 4.0, 0.1, 1.0)) < 1e-12
        j1 = jsp_retx(1, "fvi", 1.0, 4.0, 0.1, 1.0)
        for k in (2, 3, 4):
            ok = ok and jsp_retx(k, "qsi", 1.0, 4.0, 0.1, 1.0) > jsp_retx(k, "fvi", 1.0, 4.0, 0.1, 1.0)
            ok = ok and abs(p_retx(k, "fvi", 1.0, 4.0, 0.1, 1.0) - (1 - (1 - j1) ** k)) < 1e-12
        from .simengine import estimate_jsp

        est = estimate_jsp(ppp, 2, "qsi", 1.0, cfg)
        ok = ok and est.within(jsp_retx(2, "qsi", 1.0, 4.0, 0.1, 1.0), atol=2e-3)
        return {"pass": bool(ok)}

    def check_harq():
        ok = True
        for t in (0.2, 1.0):
            t2 = harq_type2_cc(t, 4.0, 0.1, 1.0, "qsi")
            t1 = harq_type1(t, 4.0, 0.1, 1.0, "qsi")
            ok = ok and t2 >= t1 - 1e-9
        est = estimate_harq_mrc(1.0, 4.0, 0.1, 1.0, "qsi", cfg)
        ok = ok and est.within(harq_type2_cc(1.0, 4.0, 0.1, 1.0, "qsi"), atol=2e-3)
        return {"pass": bool(ok)}

    def check_relay():
        r3 = linear_route(3, 1.0)
        ok = abs(
            relay_moments(1.0, linear_route(1, 1.0), 1.0, 4.0, 0.1, "qsi")
            - relay_moments(1.0, linear_route(1, 1.0), 1.0, 4.0, 0.1, "fvi")
        ) < 1e-9
        m1 = relay_moments(1.0, linear_route(1, 1.0), 1.0, 4.0, 0.1, "fvi")
        ok = ok and abs(relay_moments(1.0, r3, 1.0, 4.0, 0.1, "fvi") - m1**3) < 1e-9
        ok = ok and relay_moments(1.0, r3, 1.0, 4.0, 0.1, "qsi") > relay_moments(1.0, r3, 1.0, 4.0, 0.1, "fvi")
        est = estimate_relay_jsp(r3, 1.0, 4.0, 0.1, "qsi", cfg)
        ok = ok and est.within(relay_moments(1.0, r3, 1.0, 4.0, 0.1, "qsi"), atol=2e-3)
        return {"pass": bool(ok)}

    def check_mobility():
        mcfg = sim(n // 4)
        spec = MobilitySpec(5.0)
        rep = mobility_report(spec, 0.001, 10 ** (-0.1), 4.0, mcfg)
        ana = handoff_prob_avg(0.001, 5.0)
        ok = rep["handoff"].within(ana, atol=2e-3)
        ok = ok and rep["csp"].mean > rep["p2"].mean - 2 * rep["csp"].stderr
        return {"handoff_gap": rep["handoff"].mean - ana, "pass": bool(ok)}

    def check_interference_mc():
        from .simengine import estimate_interference_moments

        icfg = sim(n // 2, window_radius=25.0)
        m = NetworkModel(PPP(1.0), 4.0)
        est = estimate_interference_moments(m, pl, 0.0, icfg)
        a_mean = mean_interference(m, pl)
        a_second = interference_variance(m, pl) + a_mean**2
        ok = abs(est["mean"].mean - a_mean) < 3 * est["mean"].stderr + 0.02 * a_mean
        ok = ok and abs(est["second_moment"].mean - a_second) < 3 * est["second_moment"].stderr + 0.03 * a_second
        return {"pass": bool(ok)}

    return [
        ("misr_ppp_mc", check_misr),
        ("ppp_adhoc_success_vs_mc", check_ppp_adhoc),
        ("corr_coefficient_half", check_corr_half),
        ("corr_orderings", check_corr_orderings),
        ("adhoc_field_orderings_vs_mc", check_fig11_ordering),
        ("meta_distribution_vs_empirical", check_meta),
        ("lsu_identities_and_mc", check_lsu),
        ("shadowing_orderings_and_mc", check_shadowing),
        ("queueing_bipolar_vs_sim", check_queue_bipolar),
        ("queueing_downlink_vs_sim", check_queue_downlink),
        ("retransmission_algebra_vs_mc", check_retx),
        ("harq_vs_mrc_sim", check_harq),
        ("relay_vs_mc", check_relay),
        ("mobility_handoff_and_csp", check_mobility),
        ("interference_moments_vs_mc", check_interference_mc),
    ]


def _round_floats(obj, digits=12):
    if isinstance(obj, float):
        return round(obj, digits)
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, digits) for v in obj]
    if isinstance(obj, (np.floating,)):
        return round(float(obj), digits)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def run(quick=False, seed=2024, out_dir=".", worker_hint=1):
    import resource

    os.makedirs(out_dir, exist_ok=True)
    results = {}
    timings = {}
    maxrss = {}
    all_pass = True
    for name, fn in _checks(quick, seed, worker_hint):
        t0 = time.time()
        try:
            res = fn()
        except Exception as e:  # a crashed check is a failed check
            res = {"pass": False, "error": f"{type(e).__name__}: {e}"}
        timings[name] = round(time.time() - t0, 3)
        maxrss[name] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)  # KiB on Linux
        res["pass"] = bool(res.get("pass", False))
        results[name] = _round_floats(res)
        all_pass = all_pass and res["pass"]
        print(f"[{'PASS' if res['pass'] else 'FAIL'}] {name} ({timings[name]}s)")
    report = {
        "seed": seed,
        "quick": quick,
        "all_pass": all_pass,
        "checks": results,
    }
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out_dir, "report_timing.json"), "w") as fh:
        json.dump({"runtimes_s": timings, "maxrss_mb": maxrss}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("report.json written; overall:", "PASS" if all_pass else "FAIL")
    return EXIT_OK if all_pass else EXIT_VALIDATION
