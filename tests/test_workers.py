"""The process pool behind simengine.run_batches and run_points: every
estimator and every pooled figure gives the same value for every worker
hint, errors cross from the workers unchanged, and no worker outlives its
interpreter."""

import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

import stochgeo
from stochgeo import simengine
from stochgeo.core import ToleranceError
from stochgeo.interference import PathLossSpec
from stochgeo.location_users import lsu_mc_estimate
from stochgeo.mobility import MobilitySpec, jsp_mobility_mc_raw_fading, mobility_report
from stochgeo.pointprocess import GPP, MCP, PPP, NetworkModel
from stochgeo.queueing import simulate_queues
from stochgeo.relay_retx import estimate_harq_mrc, estimate_relay_jsp, linear_route
from stochgeo.shadowing import BlockageModel, ShadowGrid, simulate_shadowed, simulate_shadowed_interference
from stochgeo.simengine import (
    SimConfig,
    estimate_interference_moments,
    estimate_jsp,
    estimate_meta,
    estimate_moment,
    estimate_success,
    run_batches,
    run_points,
)
from stochgeo.sir_analysis import misr_estimate

ADHOC = {
    "ppp": NetworkModel(PPP(0.1), 4.0, 1.0),
    "mcp": NetworkModel(MCP(0.02, 5.0, 1.0), 4.0, 1.0),
    "gpp": NetworkModel(GPP(0.1, 1.0), 4.0, 1.0),
}
DOWNLINK = {"ppp": NetworkModel(PPP(1.0), 4.0), "gpp": NetworkModel(GPP(1.0, 1.0), 4.0)}
GRID, BLOCKAGE = ShadowGrid(8.0, 1.0), BlockageModel(0.5, 1.0)
PL = PathLossSpec(4.0, 1.0)
needs_a_worker = pytest.mark.skipif(simengine._usable_cpus() < 2, reason="a worker needs a second usable CPU")

# name -> (stream, trials, estimator of a SimConfig); the trial counts give
# each stream at least two batches and an uneven last one
ESTIMATORS = {
    **{f"success-adhoc-{k}": ("csp", 2500, lambda c, m=m: estimate_success(m, [0.1, 1.0, 10.0], "adhoc", c))
       for k, m in ADHOC.items()},
    **{f"success-downlink-{k}": ("csp", 2500, lambda c, m=m: estimate_success(m, [0.5, 2.0], "downlink", c))
       for k, m in DOWNLINK.items()},
    "moment2-adhoc-mcp": ("csp", 2100, lambda c: estimate_moment(ADHOC["mcp"], 2, 1.0, "adhoc", c)),
    "moment2-downlink-ppp": ("csp", 2100, lambda c: estimate_moment(DOWNLINK["ppp"], 2.0, 1.0, "downlink", c)),
    "meta-gpp": ("csp", 2500, lambda c: tuple(estimate_meta(ADHOC["gpp"], 1.0, [0.25, 0.5, 0.75], c).values)),
    "jsp-qsi": ("csp", 2100, lambda c: estimate_jsp(ADHOC["ppp"], 3, "qsi", 1.0, c)),
    "jsp-fvi": ("csp", 2100, lambda c: estimate_jsp(ADHOC["ppp"], 3, "fvi", 1.0, c)),
    "interference-u0": ("interference", 2100, lambda c: estimate_interference_moments(
        NetworkModel(PPP(0.1), 4.0), PL, 0.0, SimConfig(c.trials, c.master_seed, 20.0, c.worker_hint))),
    "interference-ppp-u2": ("interference", 2100, lambda c: estimate_interference_moments(  # five blocks a batch
        NetworkModel(PPP(1.0), 4.0), PL, 2.0, SimConfig(c.trials, c.master_seed, 10.0, c.worker_hint))),
    "interference-u2": ("interference", 2100, lambda c: estimate_interference_moments(
        NetworkModel(MCP(0.02, 5.0, 1.0), 4.0), PL, 2.0, SimConfig(c.trials, c.master_seed, 15.0, c.worker_hint))),
    "misr-mcp": ("misr", 2100, lambda c: misr_estimate(NetworkModel(MCP(0.2, 5.0, 1.0), 4.0), 4.0, c)),
    "shadowed-correlated": ("shadowed", 1100, lambda c: simulate_shadowed(
        GRID, BLOCKAGE, 1.0, 4.0, 1.0, 1.0, "correlated", c, b=2.0)),
    "shadowed-interference-independent": ("shadowed_interference", 1100, lambda c: simulate_shadowed_interference(
        GRID, BLOCKAGE, 1.0, 4.0, 1.0, "independent", c)),
    "relay-fvi": ("relay", 1100, lambda c: estimate_relay_jsp(linear_route(3, 1.0), 1.0, 4.0, 0.1, "fvi", c)),
    "harq-qsi": ("harq_mrc", 2100, lambda c: estimate_harq_mrc(1.0, 4.0, 0.1, 1.0, "qsi", c)),
    "lsu-cell-boundary": ("lsu", 2100, lambda c: lsu_mc_estimate("cell_boundary", 2.0, 1.0, 4.0, 1.0, c, rho=0.6)),
    "lsu-vertex": ("lsu_equidistant", 2100, lambda c: lsu_mc_estimate("vertex", 2.0, 1.0, 4.0, 1.0, c)),
    "mobility-downlink": ("mobility", 1100, lambda c: mobility_report(MobilitySpec(5.0), 0.01, 1.0, 4.0, c)),
    "mobility-raw-bipolar": ("mobility_raw", 1100, lambda c: jsp_mobility_mc_raw_fading(
        MobilitySpec(5.0, "bipolar_mobile_interferers", 1.0), 0.01, 1.0, 4.0, c)),
    "queue-bipolar": ("queue", 7, lambda c: simulate_queues(
        "bipolar", 0.5, 1.0, 4.0, c, density=0.001, r_t=2.0, slots=300, warmup=100, n_target=100)),
    "queue-downlink": ("queue", 5, lambda c: simulate_queues(
        "downlink", 0.05, 1.0, 4.0, c, ratio=3.0, slots=300, warmup=100, n_target=16)),
    "queue-bipolar-grid": ("queue", 7, lambda c: simulate_queues(
        "bipolar", [0.5, 1.0, 0.85], [1.0, 1.0, 100.0], 4.0, c, density=0.001, r_t=2.0, slots=300, warmup=100,
        n_target=100)),
    "queue-downlink-grid": ("queue", 5, lambda c: simulate_queues(
        "downlink", [0.05, 0.2], 1.0, 4.0, c, ratio=3.0, slots=300, warmup=100, n_target=16)),
}


@pytest.mark.parametrize("key", sorted(ESTIMATORS))
def test_estimator_is_the_same_at_hint_1_and_2(key):
    stream, trials, estimate = ESTIMATORS[key]
    assert trials > simengine.STREAMS[stream][1]  # at least two batches, so hint 2 uses the pool
    serial = estimate(SimConfig(trials=trials, master_seed=131))
    pooled = estimate(SimConfig(trials=trials, master_seed=131, worker_hint=2))
    assert pooled == serial


def test_every_chunk_function_is_covered():
    # a chunk function of src/ that no case above reaches would go untested
    covered = {"csp", "interference", "misr", "shadowed", "shadowed_interference", "relay", "harq_mrc", "lsu",
               "lsu_equidistant", "mobility", "mobility_raw", "queue"}
    assert {stream for stream, _, _ in ESTIMATORS.values()} == covered
    assert covered == set(simengine.STREAMS) - {"pcf_figure"}  # pcf_figure draws one batch, never pooled


@pytest.mark.parametrize("trials, per_batch_name, w", [(2048, "csp", 2), (2049, "csp", 2), (1100, "relay", 3),
                                                       (7, "queue", 2), (3, "queue", 3), (100000, "csp", 7)])
def test_chunk_bounds_are_contiguous_nonempty_and_balanced(trials, per_batch_name, w):
    cfg = SimConfig(trials=trials)
    bounds = simengine._chunk_bounds(cfg, per_batch_name, w)
    per_batch = simengine.STREAMS[per_batch_name][1]
    n = -(-trials // per_batch)
    assert len(bounds) == w and bounds[0][0] == 0 and bounds[-1][1] == n
    assert all(lo < hi for lo, hi in bounds) and all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
    sizes = [min(hi * per_batch, trials) - lo * per_batch for lo, hi in bounds]
    assert max(sizes) - min(sizes) <= per_batch


@simengine.batchwise
def _toy_kernel(rng, size, scale):
    # a column per trial, one per batch, and one whose length is not the batch's
    return rng.random(size) * scale, np.array([size]), np.arange(size % 5, dtype=float)


@pytest.mark.parametrize("hint", [1, 2])
def test_batchwise_kernel_joins_its_columns_in_batch_order(hint):
    cfg = SimConfig(trials=1100, master_seed=139, worker_hint=hint)  # batches of 512, 512 and 76
    parts = [(rng.random(size) * 3.0, np.array([size]), np.arange(size % 5, dtype=float))
             for rng, size in simengine.batches(cfg, "relay")]
    got = run_batches(cfg, "relay", _toy_kernel, 3.0)
    assert len(got) == 3 and all(np.array_equal(g, np.concatenate(col)) for g, col in zip(got, zip(*parts)))
    assert list(got[1]) == [512, 512, 76]


def _raise_in_worker(batch_iter, parent_pid):
    sizes = [size for _, size in batch_iter]
    if os.getpid() != parent_pid:
        raise ToleranceError("quadrature tolerance not met (value=1.0, err=0.5)")
    return (np.zeros(sum(sizes)),)


def _nested_call(batch_iter, model):
    sizes = [size for _, size in batch_iter]
    est = estimate_success(model, 1.0, "adhoc", SimConfig(trials=2500, master_seed=132, worker_hint=2))
    pool = simengine._POOL
    own_pool = pool is not None and pool[0] == os.getpid()
    return (np.full(sum(sizes), est.mean), np.array([own_pool]), np.array([len(multiprocessing.active_children())]))


@needs_a_worker
def test_worker_tolerance_error_reaches_the_caller_and_the_pool_goes_on():
    cfg = SimConfig(trials=2500, master_seed=133, worker_hint=2)
    with pytest.raises(ToleranceError, match=r"^quadrature tolerance not met \(value=1.0, err=0.5\)$"):
        run_batches(cfg, "csp", _raise_in_worker, os.getpid())
    pool = simengine._POOL
    assert estimate_success(ADHOC["ppp"], 1.0, "adhoc", cfg) == estimate_success(
        ADHOC["ppp"], 1.0, "adhoc", SimConfig(trials=2500, master_seed=133))
    assert simengine._POOL is pool  # the same pool served the next call


def test_worker_downlink_value_error_matches_the_serial_one():
    # a 1.5 window leaves a pattern with no point in batch 1 but none in batch 0
    serial = SimConfig(trials=2048, master_seed=8, window_radius=1.5)
    pooled = SimConfig(trials=2048, master_seed=8, window_radius=1.5, worker_hint=2)
    assert simengine._chunk_bounds(pooled, "csp", 2) == [(0, 1), (1, 2)]
    simengine._csp_chunk(simengine._batch_range(serial, "csp", 0, 0, 1), DOWNLINK["ppp"], [1.0], 1.5, "downlink")
    with pytest.raises(ValueError) as want:
        estimate_success(DOWNLINK["ppp"], 1.0, "downlink", serial)
    with pytest.raises(ValueError) as got:
        estimate_success(DOWNLINK["ppp"], 1.0, "downlink", pooled)
    assert str(got.value) == str(want.value) == "downlink pattern with no points; enlarge the window"
    cfg = SimConfig(trials=2500, master_seed=134, worker_hint=2)
    assert estimate_success(DOWNLINK["ppp"], 1.0, "downlink", cfg) == estimate_success(
        DOWNLINK["ppp"], 1.0, "downlink", SimConfig(trials=2500, master_seed=134))


@needs_a_worker
def test_call_inside_a_worker_runs_serially():
    cfg = SimConfig(trials=2048, master_seed=135, worker_hint=2)
    means, own_pools, children = run_batches(cfg, "csp", _nested_call, ADHOC["ppp"])
    serial = estimate_success(ADHOC["ppp"], 1.0, "adhoc", SimConfig(trials=2500, master_seed=132))
    assert np.all(means == serial.mean)
    # the parent's chunk ran a pooled nested call; the worker's made no pool and no child
    assert list(own_pools) == [True, False] and children[1] == 0


def test_pool_never_exceeds_the_usable_cpus():
    cpus = simengine._usable_cpus()
    cfg = SimConfig(trials=20000, master_seed=136, worker_hint=16)
    est = estimate_success(ADHOC["ppp"], 1.0, "adhoc", cfg)
    assert est == estimate_success(ADHOC["ppp"], 1.0, "adhoc", SimConfig(trials=20000, master_seed=136))
    if cpus > 1:
        assert simengine._POOL[1] == min(16, cpus) - 1  # this process runs the first chunk itself
    assert len(multiprocessing.active_children()) <= min(16, cpus) - 1


def test_one_usable_cpu_starts_no_pool(monkeypatch):
    def no_pool(size):
        raise AssertionError("a pool was requested")

    monkeypatch.setattr(simengine, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(simengine, "_pool", no_pool)
    cfg = SimConfig(trials=2500, master_seed=137, worker_hint=16)
    assert estimate_success(ADHOC["ppp"], 1.0, "adhoc", cfg) == estimate_success(
        ADHOC["ppp"], 1.0, "adhoc", SimConfig(trials=2500, master_seed=137))


def test_no_pool_is_forked_while_another_thread_runs():
    import threading

    simengine._shutdown_pool()
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        cfg = SimConfig(trials=2500, master_seed=138, worker_hint=2)
        est = estimate_success(ADHOC["ppp"], 1.0, "adhoc", cfg)
        assert simengine._POOL is None
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert est == estimate_success(ADHOC["ppp"], 1.0, "adhoc", SimConfig(trials=2500, master_seed=138))


def _run_script(code):
    src = os.path.dirname(os.path.dirname(os.path.abspath(stochgeo.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_no_worker_outlives_the_interpreter():
    code = (
        "import multiprocessing\n"
        "from stochgeo.pointprocess import PPP, NetworkModel\n"
        "from stochgeo.simengine import SimConfig, estimate_success\n"
        "estimate_success(NetworkModel(PPP(0.1), 4.0, 1.0), 1.0, 'adhoc', SimConfig(2500, 1, worker_hint=2))\n"
        "print(' '.join(str(p.pid) for p in multiprocessing.active_children()))\n"
    )
    pids = [int(p) for p in _run_script(code)]
    assert len(pids) == min(2, simengine._usable_cpus()) - 1
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_fig10_rows_are_the_same_at_hint_1_and_2():
    from stochgeo.cli import _fig_variance
    from stochgeo.interference import _DisplacedCross

    _DisplacedCross._cache.clear()  # each run builds its own tables
    (serial,) = _fig_variance(SimConfig(trials=1))
    _DisplacedCross._cache.clear()
    (pooled,) = _fig_variance(SimConfig(trials=1, worker_hint=2))
    assert len(serial.rows) == 8 and pooled.rows == serial.rows


def _pid_or_raise(point, parent_pid):
    if os.getpid() != parent_pid:
        raise ToleranceError(f"quadrature tolerance not met (value={point}, err=0.5)")
    return point


@needs_a_worker
def test_run_points_worker_error_reaches_the_caller():
    cfg = SimConfig(worker_hint=2)
    with pytest.raises(ToleranceError, match=r"^quadrature tolerance not met \(value=3, err=0.5\)$"):
        run_points(cfg, _pid_or_raise, range(6), os.getpid())
    assert run_points(SimConfig(), _pid_or_raise, range(6), os.getpid()) == list(range(6))


def test_run_points_at_hint_1_imports_no_multiprocessing():
    code = (
        "import sys\n"
        "from stochgeo.simengine import SimConfig, run_points\n"
        "def square(p, k):\n"
        "    return k * p * p\n"
        "print(run_points(SimConfig(), square, [1, 2, 3], 2) == [2, 8, 18], 'multiprocessing' in sys.modules)\n"
    )
    assert _run_script(code) == ["True", "False"]


@needs_a_worker
def test_run_points_finds_a_function_of_main_in_the_workers():
    # a script run as `python -m stochgeo.cli` or `python -c` is the module __main__
    code = (
        "import os\n"
        "from stochgeo.simengine import SimConfig, run_points\n"
        "def tag(p):\n"
        "    return (p, os.getpid())\n"
        "out = run_points(SimConfig(worker_hint=2), tag, range(5))\n"
        "print([p for p, _ in out] == list(range(5)), len({pid for _, pid in out}))\n"
    )
    assert _run_script(code) == ["True", "2"]


@pytest.mark.parametrize("hint", [0, -3, "4", 2.5, True, None])
def test_worker_hint_must_be_a_positive_integer(hint):
    with pytest.raises(ValueError, match="worker_hint must be an integer >= 1"):
        SimConfig(worker_hint=hint)
