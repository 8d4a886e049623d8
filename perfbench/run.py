"""stochgeo benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare OLD NEW

Workloads (perfbench/items.py lists their items):
  mc_estimators      Monte Carlo estimators only, one in-process pass per
                     fresh interpreter, passes repeated while they fit in S.
  spectral_numerics  analytic quadratures and Gil-Pelaez inversions only;
                     run by hand, BENCHMARK.json does not list it.
  cli_cold           `python3 -m stochgeo.cli` processes: `validate --quick`
                     and a fixed set of figure keys, one pass per run.

Load is a closed loop with one client: one process runs at a time and each
item starts when the previous one ended.  The seed is the `master_seed` of
every SimConfig and the `--seed` of every command line.  BLAS and OpenMP
pools are pinned to one thread.

--trace 0 reports the end-to-end metrics (medians over the run's passes);
--trace 1 runs one pass with spans and counters around every stochgeo module
and one pass without, and reports the per-layer metrics and the difference.
The last stdout line is the JSON result; the full record, with every item's
value and the run's environment, goes to .perfbench_results/.  --compare
prints per workload the median and quartiles of each metric on both sides,
their ratio, and every item whose value moved beyond its tolerance.
"""

import argparse
import glob
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, ".perfbench_results")
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import items  # noqa: E402

RUN_LIMIT_S = 170.0  # a run ends within 180 s even if a child hangs
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_ALL = "import " + ", ".join(f"stochgeo.{m}" for m in items.MODULES)

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
VALIDATE_CHECKS = (
    "misr_ppp_mc", "ppp_adhoc_success_vs_mc", "corr_coefficient_half", "corr_orderings",
    "adhoc_field_orderings_vs_mc", "meta_distribution_vs_empirical", "lsu_identities_and_mc",
    "shadowing_orderings_and_mc", "queueing_bipolar_vs_sim", "queueing_downlink_vs_sim",
    "retransmission_algebra_vs_mc", "harq_vs_mrc_sim", "relay_vs_mc", "mobility_handoff_and_csp",
    "interference_moments_vs_mc",
)
MC_MODULES = ("relay_retx", "mobility", "shadowing", "location_users", "queueing")
PER_LAYER = (
    *[(f"{m}.{k}", u) for m in items.MODULES
      for k, u in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"), ("errors", "count"))],
    ("numerics.quad_calls", "count"), ("numerics.nonconverged", "count"), ("numerics.gp_calls", "count"),
    ("numerics.gp_busy_s", "s"), ("numerics.gp_cap_hits", "count"), ("numerics.fixed_point_iters", "count"),
    ("simengine.batches", "count"), ("simengine.trials", "count"), ("simengine.trials_per_s", "1/s"),
    ("pointprocess.points_sampled", "count"),
    *[(f"{m}.mc_busy_s", "s") for m in MC_MODULES],
    ("queueing.sim_slots", "count"),
    ("interference.cross_builds", "count"), ("interference.cross_build_s", "s"),
    ("interference.cross_hits", "count"),
    ("sir_analysis.meta_busy_s", "s"), ("sir_analysis.moment_busy_s", "s"),
    ("sir_analysis.dl_cache_hits", "count"), ("sir_analysis.dl_cache_misses", "count"),
    ("sir_analysis.dl_cache_entries", "count"),
    ("cli.write_busy_s", "s"), ("cli.files_written", "count"), ("cli.bytes_written", "bytes"),
    *[(f"validate.check_s.{c}", "s") for c in VALIDATE_CHECKS],
    ("max_item_s", "s"), ("mc_s_to_se1e-3", "s"), ("failed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"), ("trace.traced_wall_s", "s"), ("trace.untraced_wall_s", "s"),
    ("trace.self_sum_s", "s"), ("trace.spans", "count"), ("trace.spans_dropped", "count"),
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def run_process(argv, deadline, log_prefix):
    """Run argv to completion; (exit code, wall seconds, peak RSS in MB)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"run budget of {RUN_LIMIT_S:.0f} s exhausted before {argv[2:4]}")
    with open(log_prefix + ".out", "w") as out, open(log_prefix + ".err", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def tail(path, n=600):
    with open(path) as fh:
        return fh.read()[-n:]


def setup_probe(deadline, prefix):
    """Seconds from a fresh interpreter to every stochgeo module imported."""
    code, wall, _ = run_process([sys.executable, "-c", IMPORT_ALL], deadline, prefix)
    if code != 0:
        raise BenchError("importing stochgeo failed:\n" + tail(prefix + ".err"))
    return wall


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def api_pass(workload, seed, trace, deadline, work, tag):
    out = os.path.join(work, f"{tag}.json")
    spans = os.path.join(work, f"{tag}.spans.json")
    argv = [sys.executable, os.path.join(HERE, "child.py"), "api", workload, str(seed),
            str(os.cpu_count() or 1), "1" if trace else "0", out, spans]
    code, _, rss = run_process(argv, deadline, os.path.join(work, tag))
    if code != 0:
        raise BenchError(f"{workload} pass exited with {code}:\n" + tail(os.path.join(work, tag + ".err")))
    with open(out) as fh:
        res = json.load(fh)
    return {
        "wall_s": res["wall_s"],
        "peak_rss_mb": rss,
        "items": res["items"],
        "traces": [res["trace"]] if trace else [],
        "spans": [spans] if trace else [],
    }


def cli_pass(seed, trace, deadline, work, tag, fit=None, between=None):
    """One process per item, `between()` called between two items.  With `fit`
    (item id -> seconds it took before), items that would not end before the
    deadline are left out."""
    results, traces, spans, rss, wall = [], [], [], [], 0.0
    for i, item in enumerate(items.CLI_ITEMS):
        if i and between is not None:
            between()
        if fit is not None and time.monotonic() + 1.2 * fit[item.id] > deadline:
            continue
        name = item.id.split(".", 1)[1]
        out = os.path.join(work, tag, name)
        os.makedirs(out)
        argv = items.cli_argv(item, seed, out)
        prefix = os.path.join(work, f"{tag}.{name}")
        if trace:
            cmd = [sys.executable, os.path.join(HERE, "child.py"), "cli", prefix + ".trace.json",
                   prefix + ".spans.json", "--", *argv]
        else:
            cmd = [sys.executable, "-m", "stochgeo.cli", *argv]
        code, seconds, peak = run_process(cmd, deadline, prefix)
        wall += seconds
        rss.append(peak)
        results.append({"id": item.id, "seconds": seconds, "exit_code": code, "out": out,
                        "stderr": tail(prefix + ".err", 2000)})
        if trace:
            with open(prefix + ".trace.json") as fh:
                traces.append(json.load(fh)["trace"])
            spans.append(prefix + ".spans.json")
    return {"wall_s": wall, "peak_rss_mb": max(rss), "items": results,
            "traces": traces, "spans": spans}


def run_pass(workload, seed, trace, deadline, work, tag, fit=None, between=None):
    if workload == "cli_cold":
        return cli_pass(seed, trace, deadline, work, tag, fit, between)
    return api_pass(workload, seed, trace, deadline, work, tag)


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def _close(value, ref, tol):
    if isinstance(ref, list):
        return isinstance(value, list) and len(value) == len(ref) and all(
            _close(v, r, tol) for v, r in zip(value, ref))
    return abs(value - ref) <= tol.get("atol", 0.0) + tol.get("rtol", 0.0) * abs(ref)


def _mc_ok(est, ref, tol, key=None):
    """|mean - ref| <= Z_SE SE + atol for every estimate of a Monte Carlo item."""
    z = items.Z_SE
    if isinstance(ref, dict):
        if "upper" in ref:  # no analytic value: Markov bounds from M1 and M2
            return all(lo - z * e["se"] - tol["atol"] <= e["mean"] <= hi + z * e["se"] + tol["atol"]
                       for e, lo, hi in zip(est, ref["lower"], ref["upper"]))
        return all(_mc_ok(est[k], r, tol, k) for k, r in ref.items())
    if isinstance(ref, list):
        return len(est) == len(ref) and all(_mc_ok(e, r, tol, key) for e, r in zip(est, ref))
    rel = tol.get("atol_rel", 0.0)
    atol = tol.get("atol", 0.0) + abs(ref) * (rel[key] if isinstance(rel, dict) else rel)
    return abs(est["mean"] - ref) <= z * est["se"] + atol


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _cli_problems(item, res, ref):
    problems = []
    if item.id == "cli.validate":
        report = os.path.join(res["out"], "report.json")
        if not os.path.exists(report):
            return ["report.json missing"]
    else:
        manifest_path = os.path.join(res["out"], "manifest.json")
        if not os.path.exists(manifest_path):
            return ["manifest.json missing"]
        with open(manifest_path) as fh:
            outputs = json.load(fh)["outputs"]
        for name, digest in outputs.items():
            path = os.path.join(res["out"], name)
            if not os.path.exists(path) or _sha256(path) != digest:
                problems.append(f"{name} does not match its manifest checksum")
        values = items.cli_analytic_values(item, res["out"])
        res["value"] = values
        if ref is not None and not _close_tree(values, ref, item.tol):
            problems.append("analytic columns differ from the reference")
    return problems + items.cli_output_problems(item, res["out"])


def _close_tree(values, ref, tol):
    return all(_close(values[f][c], ref[f][c], tol) for f in ref for c in ref[f])


def check_items(workload, results, reference):
    """Mark each result passed / known failure / failed; True if none is unexpected."""
    table = {it.id: it for it in items.WORKLOADS[workload]}
    known = reference["known_failures"]
    values = reference["values"]
    all_expected = True
    for res in results:
        item = table[res["id"]]
        kf = known.get(item.id)
        if workload == "cli_cold":
            if res["exit_code"] != 0:
                error = f"exit {res['exit_code']}: {res['stderr'].strip()[-300:]}"
                problems = [error]
            else:
                error, problems = None, _cli_problems(item, res, values.get(item.id))
        else:
            error = res["error"]
            if error is not None:
                problems = [error]
            elif item.id not in values:
                problems = []  # a known failure that no longer fails has no reference
            elif item.kind == "analytic":
                problems = [] if _close(res["value"], values[item.id], item.tol) else ["value differs from the reference"]
            else:
                problems = [] if _mc_ok(res["value"], values[item.id], item.tol) else ["estimate outside Z_SE SE + atol"]
        res["problems"] = problems
        if not problems:
            res["status"] = "pass"
        elif kf is not None and kf["message"] in "; ".join(problems) \
                and kf.get("exit_code", res.get("exit_code")) == res.get("exit_code"):
            res["status"] = "known_failure"
        else:
            res["status"] = "fail"
            all_expected = False
            print(f"[FAIL] {item.id}: {'; '.join(problems)}", file=sys.stderr)
    return all_expected


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def mc_time_to_accuracy(results):
    """Sum over Monte Carlo items of item_s (SE / 1e-3)^2: the time each would
    need to reach a standard error of 1e-3 at its measured rate.  An item with
    several estimates uses its first one."""
    total = 0.0
    for res in results:
        est = res.get("value")
        while isinstance(est, (list, dict)) and "se" not in est:
            est = est[0] if isinstance(est, list) else next(iter(est.values()))
        if isinstance(est, dict):
            total += res["seconds"] * (est["se"] / 1e-3) ** 2
    return total


def max_item_s(passes):
    """The slowest item of a pass, median over passes."""
    return statistics.median(max(r["seconds"] for r in p["items"]) for p in passes)


def end_to_end(passes, setup_s):
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def _sum_traces(traces):
    stats = {m: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0} for m in items.MODULES}
    counts = {}
    for tr in traces:
        for m, st in tr["stats"].items():
            for k, v in st.items():
                stats[m][k] += v
        for k, v in tr["counts"].items():
            # cache entries are per process; the rest add up across processes
            counts[k] = max(counts.get(k, 0), v) if k.endswith("_entries") else counts.get(k, 0) + v
    return stats, counts


def per_layer(traced, plain, workload):
    stats, counts = _sum_traces(traced["traces"])
    out = {}
    for m, st in stats.items():
        for k, v in st.items():
            out[f"{m}.{k}"] = v
    for name, _ in PER_LAYER:
        if name not in out and name in counts:
            out[name] = counts[name]
    trials, mc_s = counts.get("simengine.trials", 0), counts.get("mc_call_s", 0.0)
    out["simengine.trials_per_s"] = trials / mc_s if mc_s else 0.0
    if workload == "cli_cold":
        files = [os.path.join(d, f) for r in traced["items"] for d, _, fs in os.walk(r["out"]) for f in fs]
        out["cli.files_written"] = len(files)
        out["cli.bytes_written"] = sum(os.path.getsize(f) for f in files)
        validate = [r["out"] for r in plain["items"] + traced["items"] if r["id"] == "cli.validate"]
        timing = os.path.join(validate[0], "report_timing.json")
        if os.path.exists(timing):
            with open(timing) as fh:
                for check, secs in json.load(fh)["runtimes_s"].items():
                    out[f"validate.check_s.{check}"] = secs
    attempted = len(plain["items"])
    out["max_item_s"] = max_item_s([plain])
    out["mc_s_to_se1e-3"] = mc_time_to_accuracy(plain["items"]) if workload == "mc_estimators" else 0.0
    out["failed_frac"] = sum(r["status"] != "pass" for r in plain["items"]) / attempted
    ran = {r["id"] for r in plain["items"]}
    traced_s = sum(r["seconds"] for r in traced["items"] if r["id"] in ran)
    plain_s = sum(r["seconds"] for r in plain["items"])
    out["trace.traced_wall_s"] = traced["wall_s"]
    out["trace.untraced_wall_s"] = plain["wall_s"]
    out["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    out["trace.self_sum_s"] = sum(st["self_s"] for st in stats.values())
    out["trace.spans"] = sum(t["spans"] for t in traced["traces"])
    out["trace.spans_dropped"] = sum(t["dropped"] for t in traced["traces"])
    return {name: out.get(name, 0) for name, _ in PER_LAYER}


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------


def environment():
    """What a result depends on besides the workload: code, versions, machine."""

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "stochgeo", "*.py"))):
        src.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            src.update(fh.read())
    cpu = None
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "blas_threads": dict.fromkeys(THREAD_VARS, "1"),
    }


def load_reference():
    path = os.path.join(HERE, "reference.json")
    if not os.path.exists(path):
        raise BenchError("perfbench/reference.json is missing")
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def measure(args):
    if not os.path.exists(os.path.join(SRC, "stochgeo", "__init__.py")):
        raise BenchError(f"no stochgeo sources under {SRC}")
    reference = load_reference()
    deadline = time.monotonic() + RUN_LIMIT_S
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(RESULTS, exist_ok=True)
    try:
        if args.trace:
            traced = run_pass(args.workload, args.seed, True, deadline, work, "traced")
            # on a slow machine the untraced cli_cold pass may not fit whole;
            # the overhead is then measured on the items both passes ran
            plain = run_pass(args.workload, args.seed, False, deadline, work, "plain",
                             fit={r["id"]: r["seconds"] for r in traced["items"]})
            passes = [traced, plain]
        else:
            # set-up is probed before, between and after the passes (and
            # between a cli_cold pass's processes), so that its median is
            # taken over the same stretch of time as the passes'
            setup = []

            def probe():
                setup.append(setup_probe(deadline, os.path.join(work, f"setup{len(setup)}")))

            probe()
            probe()
            passes, t0 = [], time.perf_counter()
            while True:
                passes.append(run_pass(args.workload, args.seed, False, deadline, work, f"pass{len(passes)}",
                                       between=probe))
                probe()
                elapsed = time.perf_counter() - t0
                if elapsed + elapsed / len(passes) > args.seconds:
                    break
            setup_s = statistics.median(setup)
        ok = all([check_items(args.workload, p["items"], reference) for p in passes])
        if args.trace:
            metrics = per_layer(traced, plain, args.workload)
            # spans nest, so their self times cannot cover more than the pass
            ok = ok and metrics["trace.self_sum_s"] <= traced["wall_s"] * 1.001
            units = dict(PER_LAYER)
            spans_out = os.path.join(RESULTS, f"spans-{args.workload}-seed{args.seed}.json")
            merge_spans(traced["spans"], spans_out)
        else:
            metrics = end_to_end(passes, setup_s)
            units = dict(END_TO_END)
        attempted = sum(len(p["items"]) for p in passes)
        failed = sum(r["status"] != "pass" for p in passes for r in p["items"])
        record = {
            "record": {**environment(), "workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace},
            "passes": len(passes),
            "items": [{k: r.get(k) for k in ("id", "status", "seconds", "value", "problems")}
                      for r in passes[-1]["items"]],
            "pass_walls_s": [p["wall_s"] for p in passes],
            "correct": ok,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        if not args.trace:
            record["setup_probes_s"] = setup
            record["max_item_s"] = max_item_s(passes)
            record["mc_s_to_se1e-3"] = statistics.median(mc_time_to_accuracy(p["items"]) for p in passes)
        stamp = time.strftime("%Y%m%dT%H%M%S")
        with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"),
                  "w") as fh:
            json.dump(record, fh, indent=1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print_summary(record)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))


def merge_spans(paths, out):
    merged = []
    for path in paths:
        with open(path) as fh:
            merged.append({"process": os.path.basename(path), **json.load(fh)})
    with open(out, "w") as fh:
        json.dump(merged, fh)


def print_summary(record):
    rec = record["record"]
    print(f"workload={rec['workload']} seed={rec['seed']} trace={rec['trace']} passes={record['passes']} "
          f"correct={record['correct']}")
    for name, m in record["metrics"].items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
    if not rec["trace"]:
        print(f"  {'max_item_s':44s} {record['max_item_s']:14.6g} s")
        if rec["workload"] == "mc_estimators":
            print(f"  {'mc_s_to_se1e-3':44s} {record['mc_s_to_se1e-3']:14.6g} s")
        print(f"  {'failed_frac':44s} {record['failed'] / record['attempted']:14.6g} ratio "
              f"({record['failed']}/{record['attempted']})")
    for it in record["items"]:
        if it["status"] != "pass":
            print(f"  {it['status']}: {it['id']}: {'; '.join(it['problems'])[:200]}")


# ---------------------------------------------------------------------------
# compare mode
# ---------------------------------------------------------------------------


def _records(path):
    paths = sorted(glob.glob(os.path.join(path, "*-trace*.json"))) if os.path.isdir(path) else [path]
    out = []
    for p in paths:
        with open(p) as fh:
            out.append(json.load(fh))
    return out


def _quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def _moved(old, new, item):
    """True if an item's value moved beyond the tolerance it is checked to."""
    if old is None or new is None:
        return old is not new
    if isinstance(old, dict) and "se" in old:
        atol = item.tol.get("atol", 0.0) if isinstance(item, items.Item) else 0.0
        return abs(old["mean"] - new["mean"]) > items.Z_SE * math.hypot(old["se"], new["se"]) + atol
    if isinstance(old, dict):
        return old.keys() != new.keys() or any(_moved(old[k], new[k], item) for k in old)
    if isinstance(old, list):
        return len(old) != len(new) or any(_moved(o, n, item) for o, n in zip(old, new))
    return not _close(new, old, item.tol)


def compare(old_path, new_path):
    old, new = _records(old_path), _records(new_path)
    if not old or not new:
        raise BenchError("compare needs result records on both sides")
    table = {it.id: it for its in items.WORKLOADS.values() for it in its}
    for wl in sorted({r["record"]["workload"] for r in old + new}):
        for trace in (0, 1):
            a = [r for r in old if r["record"]["workload"] == wl and r["record"]["trace"] == trace]
            b = [r for r in new if r["record"]["workload"] == wl and r["record"]["trace"] == trace]
            if not a or not b:
                continue
            print(f"{wl} (trace {trace}): {len(a)} old runs, {len(b)} new runs")
            print(f"  {'metric':40s} {'old q1':>10s} {'old med':>10s} {'old q3':>10s} "
                  f"{'new q1':>10s} {'new med':>10s} {'new q3':>10s} {'new/old':>8s}")
            for name, m in a[0]["metrics"].items():
                va = _quartiles([r["metrics"][name]["value"] for r in a])
                vb = _quartiles([r["metrics"][name]["value"] for r in b if name in r["metrics"]] or [math.nan])
                ratio = vb[1] / va[1] if va[1] else math.nan
                print(f"  {name:40s} {va[0]:10.4g} {va[1]:10.4g} {va[2]:10.4g} "
                      f"{vb[0]:10.4g} {vb[1]:10.4g} {vb[2]:10.4g} {ratio:8.3f} {m['unit']}")
            by_seed = {r["record"]["seed"]: r for r in b}
            for ra in a:
                rb = by_seed.get(ra["record"]["seed"])
                if rb is None:
                    continue
                new_items = {it["id"]: it for it in rb["items"]}
                for it in ra["items"]:
                    other = new_items.get(it["id"])
                    if other is None or it["status"] != other["status"]:
                        print(f"  item {it['id']} seed {ra['record']['seed']}: status "
                              f"{it['status']} -> {other and other['status']}")
                    elif it["id"] in table and _moved(it["value"], other["value"], table[it["id"]]):
                        print(f"  item {it['id']} seed {ra['record']['seed']}: value moved beyond tolerance")


# ---------------------------------------------------------------------------


def _terminate(signum, frame):
    sys.exit(128 + signum)  # unwinds through run_process, which stops the child


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(items.WORKLOADS))
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = p.parse_args(argv)
    try:
        if args.compare:
            compare(*args.compare)
            return 0
        if args.workload is None or args.seed is None or args.seed < 0:
            p.error("--workload and a nonnegative --seed are required")
        measure(args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
