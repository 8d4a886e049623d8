"""The benchmark's own tests, at smoke scale (about a minute on two cores).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import items  # noqa: E402
import run  # noqa: E402


def _bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_every_metric_the_runner_emits():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    # spectral_numerics is run by hand only (perfbench/README.md says why)
    assert sorted(w["name"] for w in spec["workloads"]) + ["spectral_numerics"] == sorted(items.WORKLOADS)


@pytest.mark.parametrize("trace, names", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_every_metric_is_emitted_with_its_unit(trace, names):
    out = _bench("--workload", "mc_estimators", "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert out["correct"] and out["attempted"] >= len(items.MC_ITEMS)
    assert {k: v["unit"] for k, v in out["metrics"].items()} == dict(names)
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())


def _spectral_results(ids):
    ns = items.namespace()
    table = {it.id: it for it in items.SPECTRAL_ITEMS}
    out = []
    for item_id in ids:
        try:
            value, error = table[item_id].call(ns, items.Run(seed=0)), None
        except Exception as e:
            value, error = None, f"{type(e).__name__}: {e}"
        out.append({"id": item_id, "seconds": 0.0, "value": value, "error": error})
    return out


def test_wrong_reference_raises_failed_frac():
    reference = run.load_reference()
    ids = ["sp.retx.jsp", "sp.lsu.moments", "sp.moments.mcp.b2"]
    results = _spectral_results(ids)
    assert run.check_items("spectral_numerics", results, reference)
    assert [r["status"] for r in results] == ["pass", "pass", "known_failure"]
    baseline = sum(r["status"] != "pass" for r in results) / len(results)

    wrong = copy.deepcopy(reference)
    wrong["values"]["sp.retx.jsp"][0] *= 1.01
    results = _spectral_results(ids)
    assert not run.check_items("spectral_numerics", results, wrong)
    assert results[0]["status"] == "fail"
    assert sum(r["status"] != "pass" for r in results) / len(results) > baseline


def test_traced_run_has_a_span_for_every_module_and_changes_no_result(tmp_path):
    env = run.child_env()
    modules = set()
    for trace in (True, False):
        out = tmp_path / ("traced" if trace else "plain")
        argv = ["validate", "--quick", "--seed", "5", "--out", str(out)]
        cmd = ([sys.executable, os.path.join(HERE, "child.py"), "cli", str(tmp_path / "t.json"),
                str(tmp_path / "s.json"), "--", *argv] if trace else [sys.executable, "-m", "stochgeo.cli", *argv])
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True, timeout=200)
        if trace:
            with open(tmp_path / "s.json") as fh:
                modules |= {s[0].split(".")[0] for s in json.load(fh)["spans"]}
            with open(tmp_path / "t.json") as fh:
                traced = json.load(fh)
            assert sum(st["self_s"] for st in traced["trace"]["stats"].values()) <= traced["wall_s"]
    # tracing wraps every call, the Gil-Pelaez cap flag included, without changing a result
    assert (tmp_path / "traced" / "report.json").read_bytes() == (tmp_path / "plain" / "report.json").read_bytes()

    subprocess.run([sys.executable, os.path.join(HERE, "child.py"), "api", "mc_estimators", "5", "1", "1",
                    str(tmp_path / "api.json"), str(tmp_path / "api_spans.json")],
                   cwd=ROOT, env=env, check=True, capture_output=True, timeout=200)
    with open(tmp_path / "api_spans.json") as fh:
        modules |= {s[0].split(".")[0] for s in json.load(fh)["spans"]}
    assert modules >= set(items.MODULES)


def test_directory_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli_cold", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout


def test_compare_flags_an_item_that_moved(tmp_path, capsys):
    def record(value, wall):
        return {
            "record": {"workload": "spectral_numerics", "trace": 0, "seed": 1},
            "items": [{"id": "sp.retx.jsp", "status": "pass", "value": value}],
            "metrics": {"wall_s": {"value": wall, "unit": "s"}},
        }

    ref = run.load_reference()["values"]["sp.retx.jsp"]
    for side, value, wall in (("old", ref, 10.0), ("new", [v * 1.001 for v in ref], 8.0)):
        (tmp_path / side).mkdir()
        with open(tmp_path / side / "spectral_numerics-seed1-trace0-x.json", "w") as fh:
            json.dump(record(value, wall), fh)
    run.compare(str(tmp_path / "old"), str(tmp_path / "new"))
    out = capsys.readouterr().out
    assert "sp.retx.jsp seed 1: value moved beyond tolerance" in out
    assert "0.800" in out  # the wall_s ratio new / old
