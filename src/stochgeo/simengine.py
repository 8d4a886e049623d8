"""Monte Carlo engine: patterns in, fading-averaged success statistics out.

Fading is never sampled where it can be integrated out analytically: given a
pattern, the Rayleigh-faded success probability of a link is an explicit
product over interferers, so every trial contributes a smooth value in (0, 1]
instead of a Bernoulli draw.  Fading is drawn only where the quantity is not
of product form: the aggregate interference moments here and in `shadowing`,
and the Bernoulli oracles of `relay_retx._harq_chunk` (HARQ maximal-ratio
combining) and `mobility._raw_fading_chunk`.  Every field pattern on a disk
window comes from `pointprocess.sample_batch`, one batch sampler per field.

Randomness is counter based (Philox) and keyed by (master_seed, batch index,
substream).  Every Monte Carlo estimator maps a chunk function over the
batches of a stream named in `STREAMS` through `run_batches`; the stream
fixes its substream id and trials per batch, so results are a pure function
of (trials, master_seed, model parameters) and never of scheduling or of the
worker hint, which only sets how many processes share the batches.  Each
chunk function is a per-batch kernel(rng, size, *args) made one by
`batchwise`, save two that keep state across batches: `_csp_chunk` reuses
its scratch array, and the queue chunk stacks trials.

A batch works in place on its points-sized arrays, so its memory is a small
multiple of its points: the samplers overwrite their own draws, and
`_segment_sums` consumes its input, whose running sum overwrites a float
array.  A CSP batch at one theta or an interference batch at u = 0 holds at
most two such arrays beside its outputs; a theta grid adds one scratch
array, and a displaced observer (u != 0) one more array.  Every draw and
every value is the one the out-of-place arithmetic gives, bit for bit.
"""

import atexit
import functools
import importlib
import math
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy import special as _sps

from .core import Curve, Estimate
from .pointprocess import GPP, require_alpha, require_base_stations, sample_batch

__all__ = [
    "SimConfig",
    "STREAMS",
    "FVI_EVENTS",
    "seed_stream",
    "batches",
    "run_batches",
    "batchwise",
    "run_points",
    "confidence",
    "default_window",
    "estimate_success",
    "estimate_moment",
    "estimate_meta",
    "estimate_jsp",
]

# name -> (substream id, trials per batch).  Both are part of the determinism
# contract: changing either changes every draw of that estimator.  Ids 1 to
# FVI_EVENTS are held free for estimate_jsp, whose FVI event j draws from the
# "csp" id plus j.
STREAMS = {
    "csp": (0, 1024),
    "misr": (7, 1024),
    "interference": (11, 1024),
    "lsu": (13, 1024),
    "lsu_equidistant": (14, 1024),
    "shadowed": (17, 512),
    "shadowed_interference": (18, 512),
    "queue": (19, 1),
    "relay": (23, 512),
    "harq_mrc": (29, 1024),
    "mobility": (31, 512),
    "mobility_raw": (37, 512),
    "pcf_figure": (41, 100),  # one batch: 100 patterns per field
}
FVI_EVENTS = 6


@dataclass(frozen=True)
class SimConfig:
    trials: int = 10000
    master_seed: int = 2024
    window_radius: float | None = None
    worker_hint: int = 1  # processes that may share the batches; results never depend on it

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        r = self.window_radius
        if r is not None and not (isinstance(r, (int, float, np.integer, np.floating)) and math.isfinite(r) and r > 0):
            raise ValueError(f"window_radius must be None or a finite number > 0, not {r!r}")
        hint = self.worker_hint
        if isinstance(hint, bool) or not isinstance(hint, (int, np.integer)) or hint < 1:
            raise ValueError(f"worker_hint must be an integer >= 1, not {hint!r}")


def seed_stream(master_seed, trial_index, substream=0):
    """Counter-based RNG stream, identical for identical arguments.

    Streams for distinct (trial_index, substream) pairs are statistically
    independent Philox streams under the same master key.
    """
    if not (0 <= substream < 1 << 20):
        raise ValueError("substream must fit in 20 bits")
    key = np.array(
        [np.uint64(master_seed & (2**64 - 1)), (np.uint64(trial_index) << np.uint64(20)) | np.uint64(substream)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def _n_batches(cfg, name):
    return -(-cfg.trials // STREAMS[name][1])


def _batch_range(cfg, name, event, lo, hi):
    substream, per_batch = STREAMS[name]
    for i in range(lo, hi):
        yield seed_stream(cfg.master_seed, i, substream + event), min(per_batch, cfg.trials - i * per_batch)


def batches(cfg, name, event=0):
    """Yield (rng, size) for each batch of the cfg.trials trials of stream `name`.

    Batch i draws from seed_stream(cfg.master_seed, i, id + event), so each
    batch depends only on (master_seed, i, stream).  `event` > 0 is used only
    by the FVI events of estimate_jsp.
    """
    return _batch_range(cfg, name, event, 0, _n_batches(cfg, name))


# ---------------------------------------------------------------------------
# run_batches and its process pool
# ---------------------------------------------------------------------------

_POOL = None  # (pid, size, executor): this process's pool, made on first use
_IN_WORKER = False


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _enter_worker():
    global _IN_WORKER
    _IN_WORKER = True


def _shutdown_pool():
    global _POOL
    if _POOL is not None and _POOL[0] == os.getpid():  # a forked child leaves its parent's pool alone
        _POOL[2].shutdown()
    _POOL = None


atexit.register(_shutdown_pool)


def _pool(size):
    """This process's pool of `size` workers, or None where fork is missing
    or another thread runs.

    Forked rather than spawned: a worker inherits the imported modules
    instead of importing them again.  The workers start before the pool's
    own threads do (the previous pool's are joined first); a fork while
    another thread runs could copy a lock that thread holds.
    """
    global _POOL
    if _POOL is not None and _POOL[:2] == (os.getpid(), size):
        return _POOL[2]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    _shutdown_pool()
    if "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
        return None
    executor = ProcessPoolExecutor(size, mp_context=multiprocessing.get_context("fork"), initializer=_enter_worker)
    _POOL = (os.getpid(), size, executor)
    return executor


def _chunk_bounds(cfg, name, w):
    """w contiguous, non-empty batch ranges (lo, hi) of near-equal trial count."""
    per_batch, n = STREAMS[name][1], _n_batches(cfg, name)
    bounds = [0]
    for k in range(1, w):
        cut = round(k * cfg.trials / (w * per_batch))
        bounds.append(min(max(cut, bounds[-1] + 1), n - (w - k)))
    bounds.append(n)
    return list(zip(bounds, bounds[1:]))


def _procs(cfg):
    """Processes a call may use: min(cfg.worker_hint, usable CPUs), or 1
    inside a worker."""
    return 1 if _IN_WORKER else min(cfg.worker_hint, _usable_cpus())


def _run_chunk(fn_name, call, lo, hi, args):
    module, qualname = fn_name
    return call(getattr(importlib.import_module(module), qualname), lo, hi, *args)


def _map_chunks(procs, bounds, fn, call, *args):
    """[call(fn, lo, hi, *args) for (lo, hi) in bounds], in chunk order: this
    process runs the first chunk and its pool of procs - 1 forked workers the
    rest.  None for a single chunk or where no pool can be had; the caller
    then runs serially.

    A worker finds fn by (module, qualname), so fn must be module level; a
    module run as a script is `__main__` in the worker too, which fork
    copies.  An exception in any chunk reaches the caller, after every
    chunk has ended.
    """
    pool = _pool(procs - 1) if len(bounds) > 1 else None
    if pool is None:
        return None
    from concurrent.futures import BrokenExecutor

    first, *rest = bounds
    fn_name = (fn.__module__, fn.__qualname__)
    futures = [pool.submit(_run_chunk, fn_name, call, lo, hi, args) for lo, hi in rest]
    try:
        parts = [call(fn, *first, *args)]
    finally:
        for f in futures:  # no chunk outlives the call, even when the first one raises
            f.exception()
    try:
        return parts + [f.result() for f in futures]
    except BrokenExecutor:  # a worker died: the next call starts a new pool
        _shutdown_pool()
        raise


def _batch_chunk(fn, lo, hi, cfg, name, event, args):
    return fn(_batch_range(cfg, name, event, lo, hi), *args)


def _point_chunk(fn, lo, hi, points, args):
    return [fn(p, *args) for p in points[lo:hi]]


def run_batches(cfg, name, fn, *args, event=0):
    """fn(batch iterator, *args) over every batch of stream `name`, as one call.

    fn is a module-level function that returns a tuple of 1-D arrays, one
    entry per batch trial it keeps.  With p = min(cfg.worker_hint, usable
    CPUs) and w = min(p, batches) > 1 the batches are cut into w contiguous
    chunks of near-equal trial count: this process runs the first, and its
    pool of p - 1 forked workers the rest, each worker rebuilding its
    chunk's generators from the seeds; the arrays are joined in batch order.
    Each batch's draws depend only on its seed, so the result is the serial
    one for every hint.  A call made inside a worker runs serially.
    """
    procs = _procs(cfg)
    w = min(procs, _n_batches(cfg, name))
    parts = _map_chunks(procs, _chunk_bounds(cfg, name, w), fn, _batch_chunk, cfg, name, event, args)
    if parts is None:
        return fn(batches(cfg, name, event), *args)
    return tuple(np.concatenate(col) for col in zip(*parts))


def batchwise(kernel):
    """The chunk function run_batches takes, from a per-batch kernel.

    kernel(rng, size, *args) draws one batch of `size` trials from rng and
    returns a tuple of 1-D arrays, one entry per trial it keeps; the chunk
    joins each column in batch order.  It keeps the kernel's module and
    qualified name, by which a worker finds a kernel decorated at module
    level."""

    @functools.wraps(kernel)
    def chunk(batch_iter, *args):
        parts = [kernel(rng, size, *args) for rng, size in batch_iter]
        return tuple(np.concatenate(col) for col in zip(*parts))

    return chunk


def run_points(cfg, fn, points, *args):
    """[fn(p, *args) for p in points], as one call.

    For independent deterministic work, such as one table row per point.
    With w = min(p, len(points)) > 1 (p as in run_batches) the points are
    cut into w contiguous chunks of near-equal length: this process runs the
    first and the pool of run_batches the rest, and the results come back
    in point order.  fn is a module-level function; each result is the
    serial one for every hint.  A call made inside a worker runs serially.
    """
    points = list(points)
    procs = _procs(cfg)
    w = min(procs, len(points))
    bounds = [(len(points) * k // w, len(points) * (k + 1) // w) for k in range(w)]
    parts = _map_chunks(procs, bounds, fn, _point_chunk, points, args)
    if parts is None:
        return [fn(p, *args) for p in points]
    return [r for part in parts for r in part]


def confidence(samples, seed):
    """Sample mean and standard error as an Estimate."""
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n == 0:
        raise ValueError("no samples")
    mean = float(samples.mean())
    stderr = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return Estimate(mean=mean, stderr=stderr, n=n, seed=seed)


def default_window(intensity):
    """Default observation radius: about twenty mean nearest distances of a
    field of the given intensity (an empty field takes unit intensity's)."""
    return 20.0 / math.sqrt(math.pi * (intensity or 1.0))


# ---------------------------------------------------------------------------
# Batched conditional-success sampling
# ---------------------------------------------------------------------------


def _segment_sums(values, counts):
    """Per-segment sums of a flat array split into len(counts) segments.

    Consumes `values`: a float array is overwritten by its running sum (any
    other dtype, such as a bool mask, is summed in a float copy)."""
    csum = np.cumsum(values, out=values) if values.dtype == np.float64 else np.cumsum(values, dtype=float)
    bounds = np.cumsum(counts)
    # the running sum before each segment boundary: 0 before the first point
    at = np.zeros(bounds.size + 1)
    nonempty = bounds > 0
    at[1:][nonempty] = csum[bounds[nonempty] - 1]
    return at[1:] - at[:-1]


def _segment_mins(values, counts):
    """Per-segment minima of a flat array; every count must be positive."""
    return np.minimum.reduceat(values, np.cumsum(counts) - counts)


def _serving_split(d, counts):
    """(per-segment nearest distance, d with each segment's nearest entry set
    to inf): the serving distance, and the interferers' distances with the
    serving point dropping out of sums of d**-alpha."""
    r1 = _segment_mins(d, counts)
    return r1, np.where(d == np.repeat(r1, counts), np.inf, d)


def _far_field_log_corr(model, theta, b, radius, r_t):
    """log of the mean product over interferers beyond the window.

    Exact for the Poisson field; used as the leading correction for MCP/GPP
    whose second-order structure is short ranged compared to the window.
    The integral int_R^inf (1-(1+c r^-a)^-b) r dr takes its closed form, by
    parts in y = c r^-a, with x = c R^-a and d = 2/a:
    (c^d/a) [-x^-d/d (1-(1+x)^-b) + (b/d) x^(1-d)/(1-d) 2F1(b+1, 1-d; 2-d; -x)].
    It holds its relative accuracy down to the x ~ 1e-5 of the default
    windows and below; theta = 0 (x = 0) gives 0.
    """
    alpha = model.alpha
    c = theta * r_t**alpha
    x = c * radius**-alpha
    if x == 0.0:
        return 0.0
    d = 2.0 / alpha
    val = (c**d / alpha) * (
        -(x**-d) / d * -math.expm1(-b * math.log1p(x))
        + (b / d) * x ** (1.0 - d) / (1.0 - d) * _sps.hyp2f1(b + 1.0, 1.0 - d, 2.0 - d, -x)
    )
    return -2.0 * math.pi * model.intensity * val


def _downlink_csp(r1, rest, counts, theta, alpha):
    """Rayleigh-faded success probability of each segment's downlink: serving
    distance r1, interferers at the segment's distances `rest` (an inf entry,
    such as the serving point's own, drops out)."""
    logf = np.log1p(theta * np.repeat(r1**alpha, counts) * rest**-alpha)
    return np.exp(-_segment_sums(logf, counts))


def _downlink_far_field(r1, b, theta, alpha, density, radius):
    """Leading-order far-field factor of the downlink CSP^b at serving
    distances r1: the exponent, linear in b, of the Poisson points of the
    given density beyond the window radius."""
    coef = 2.0 * math.pi * density * b * theta / (alpha - 2.0)
    return np.exp(-coef * r1**alpha * radius ** (2.0 - alpha))


def _link_distance(model):
    if model.link_distance is None:
        raise ValueError("ad hoc geometry requires a link distance")
    return model.link_distance


def _scalar_theta(theta, what):
    if np.ndim(theta) != 0:
        raise ValueError(f"theta must be a scalar: {what} takes one theta per call")


def _theta_grid(theta):
    """theta as a list of floats: a scalar is a grid of one.  Every theta
    must be nonnegative."""
    if np.ndim(theta) > 1:
        raise ValueError("theta must be a scalar or a 1-D grid")
    thetas = [float(t) for t in np.atleast_1d(theta)]
    if any(t < 0 for t in thetas):
        raise ValueError("theta must be nonnegative")
    return thetas


def _csp_chunk(batch_iter, model, thetas, radius, geometry):
    """Per-pattern log-sums S = sum log1p(theta r_t^a r^-a) over the windowed
    pattern, one array per theta of `thetas`; for the downlink, where r_t is
    each pattern's serving distance, the serving distances follow as a last
    array.  The CSP is exp(-S) (ad hoc) or (1 + theta) exp(-S) (downlink,
    whose sum includes the serving point); each batch draws its patterns
    once for the whole grid.
    """
    alpha = model.alpha
    out = [[] for _ in thetas]
    r_serving = []
    buf = np.empty(0)  # scratch for every theta but the last, reused across batches
    for rng, size in batch_iter:
        ra, counts = sample_batch(model.field, radius, rng, size)
        n = ra.size
        if len(thetas) > 1 and n > buf.size:  # a fresh points-sized array per batch costs page faults
            buf = np.empty(n)
        if geometry == "downlink":
            if np.any(counts == 0):
                raise ValueError("downlink pattern with no points; enlarge the window")
            r_serving.append(_segment_mins(ra, counts))
            r1a = np.repeat(r_serving[-1] ** alpha, counts)
        np.power(ra, -alpha, out=ra)  # the radii become r^-alpha
        for i, (theta, sums) in enumerate(zip(thetas, out)):
            last = i == len(thetas) - 1  # the last theta overwrites the batch's own arrays
            if geometry == "adhoc":
                logf = np.multiply(ra, theta * model.link_distance**alpha, out=ra if last else buf[:n])
            else:
                logf = np.multiply(r1a, theta, out=r1a if last else buf[:n])
                logf *= ra
            sums.append(_segment_sums(np.log1p(logf, out=logf), counts))
        ra = r1a = logf = None  # freed before the next batch draws
    if geometry == "downlink":
        out.append(r_serving)
    return tuple(np.concatenate(s) for s in out)


# (model, geometry, theta, window radius, trials, master_seed, event) -> the
# read-only arrays _csp_chunk returned for theta: (S,) ad hoc, (S, serving
# distances) downlink.  These depend on nothing else; worker_hint never
# changes them.  The least recently used entries go once the cache holds more
# than _CSP_CACHE_FLOATS floats, and a larger entry is never stored.
_CSP_CACHE = OrderedDict()
_CSP_CACHE_FLOATS = 1 << 20  # 8 MB
_CSP_LOCK = threading.Lock()


def _cache_put(key, arrays):
    """_CSP_CACHE[key] = arrays, made read-only; the caller holds _CSP_LOCK."""
    size = sum(a.size for a in arrays)
    if size > _CSP_CACHE_FLOATS:
        return
    for a in arrays:
        a.flags.writeable = False
    _CSP_CACHE[key] = arrays
    size = sum(a.size for value in _CSP_CACHE.values() for a in value)
    while size > _CSP_CACHE_FLOATS:
        _, old = _CSP_CACHE.popitem(last=False)
        size -= sum(a.size for a in old)


def _log_sums(model, thetas, geometry, radius, cfg, event):
    """The arrays of _csp_chunk per theta of `thetas`, from _CSP_CACHE where
    it holds them; one run over the batches draws the patterns for every
    theta it does not."""
    keys = {t: (model, geometry, t, radius, cfg.trials, cfg.master_seed, event) for t in thetas}
    with _CSP_LOCK:
        found = {t: _CSP_CACHE[key] for t, key in keys.items() if key in _CSP_CACHE}
        for t in found:
            _CSP_CACHE.move_to_end(keys[t])
    missing = [t for t in keys if t not in found]
    if missing:
        cols = run_batches(cfg, "csp", _csp_chunk, model, missing, radius, geometry, event=event)
        with _CSP_LOCK:
            for t, sums in zip(missing, cols):
                found[t] = (sums, *cols[len(missing):])
                _cache_put(keys[t], found[t])
    return [found[t] for t in thetas]


def _collect_csp(model, thetas, geometry, cfg, b=1.0, event=0):
    """Far-field completed samples of CSP^b, one array per theta of `thetas`."""
    radius = cfg.window_radius or default_window(model.intensity)
    if geometry == "adhoc":
        r_t = _link_distance(model)
    elif geometry == "downlink":
        require_base_stations(model)
    else:
        raise ValueError(f"unknown geometry: {geometry}")
    out = []
    for theta, cols in zip(thetas, _log_sums(model, thetas, geometry, radius, cfg, event)):
        if geometry == "adhoc":
            out.append(np.exp(-cols[0]) ** b * math.exp(_far_field_log_corr(model, theta, b, radius, r_t)))
            continue
        # product over all points includes the serving one: divide it out
        csp = np.exp(-cols[0]) * (1.0 + theta)
        out.append(csp**b * _downlink_far_field(cols[1], b, theta, model.alpha, model.intensity, radius))
    return out


def _estimates(model, b, theta, geometry, cfg):
    samples = _collect_csp(model, _theta_grid(theta), geometry, cfg, b=b)
    ests = [confidence(s, cfg.master_seed) for s in samples]
    return ests if np.ndim(theta) else ests[0]


def estimate_success(model, theta, geometry, cfg):
    """Mean success probability: average of the conditional success
    probability over fresh patterns (fading integrated analytically).

    theta is a scalar (one Estimate) or a 1-D grid (a list of Estimates, one
    per threshold, every threshold evaluated on the same patterns).  The
    per-pattern log-sums are shared with estimate_moment, estimate_meta and
    QSI estimate_jsp through _CSP_CACHE: a threshold that one of them has
    already run with the same (model, geometry, window, trials, seed) draws
    no pattern, and its value is the one a fresh pass gives.  A downlink
    over an empty field raises ValueError."""
    return _estimates(model, 1.0, theta, geometry, cfg)


def estimate_moment(model, b, theta, geometry, cfg):
    """b-th moment of the conditional success probability (real b); theta
    and the shared pattern pass as in estimate_success: the b-th power is
    applied to the cached log-sums, so every b reads one pass.  An ad hoc
    b <= -delta/2 raises ValueError before any draw: the samples' variance
    E[CSP^2b] is infinite there, so no standard error would hold."""
    b = float(b)
    if geometry == "adhoc" and b <= -model.delta / 2.0:
        raise ValueError(f"an ad hoc moment of order b = {b} <= -delta/2 has infinite sample variance")
    return _estimates(model, b, theta, geometry, cfg)


def estimate_meta(model, theta, x_grid, cfg, geometry="adhoc"):
    """Empirical meta distribution: CCDF of the per-pattern CSP on x_grid,
    at a scalar theta, from the pattern pass estimate_success shares."""
    _scalar_theta(theta, "the meta distribution")
    (samples,) = _collect_csp(model, _theta_grid(theta), geometry, cfg)
    x_grid = np.asarray(x_grid, dtype=float)
    n = samples.size
    ccdf = np.array([(samples > x).mean() for x in x_grid])
    se = np.sqrt(ccdf * (1.0 - ccdf) / n)
    return Curve(
        grid=x_grid,
        values=ccdf,
        ci_low=np.clip(ccdf - 3 * se, 0, 1),
        ci_high=np.clip(ccdf + 3 * se, 0, 1),
        meta={"theta": theta, "trials": n, "seed": cfg.master_seed, "kind": "meta-ccdf"},
    )


def estimate_interference_moments(model, pl, u, cfg):
    """Empirical mean, variance and displaced mean product of the aggregate
    interference under bounded path loss, with fresh unit-mean exponential
    fading per slot.

    The windowed mean is completed by the analytic far-field mean
    2 pi lam int_R^inf l_eps(r) r dr, in closed form (its variance
    contribution is negligible at the default window).  pl.alpha must be
    the model's alpha.  Returns Estimates
    keyed by 'mean', 'second_moment', 'mean_product'.  The Ginibre sampler
    is origin-centric, so a Ginibre field takes u = 0 only.  Draws from the
    "interference" stream, which no CSP estimator shares, so no pattern pass
    is shared with them either.
    """
    require_alpha(model, pl.alpha)
    if u != 0.0 and isinstance(model.field, GPP):
        raise ValueError("the Ginibre sampler is exact only at the origin: a displaced observer needs u = 0")
    radius = cfg.window_radius or default_window(model.intensity)
    tail_mean = 2.0 * math.pi * model.intensity * _tail_mean(pl, radius)
    means, seconds, products = run_batches(cfg, "interference", _interference_chunk, model, pl, u, radius, tail_mean)
    return {
        "mean": confidence(means, cfg.master_seed),
        "second_moment": confidence(seconds, cfg.master_seed),
        "mean_product": confidence(products, cfg.master_seed),
    }


def _tail_mean(pl, radius):
    """int_R^inf l_eps(r) r dr = R^(2-a)/(a-2) 2F1(1, 1-d; 2-d; -eps R^-a), d = 2/a."""
    alpha, d = pl.alpha, pl.delta
    return radius ** (2.0 - alpha) / (alpha - 2.0) * _sps.hyp2f1(1.0, 1.0 - d, 2.0 - d, -pl.epsilon * radius**-alpha)


def _ell(pl, r):
    """pl.ell(r), overwriting r."""
    np.power(r, pl.alpha, out=r)
    r += pl.epsilon
    return np.divide(1.0, r, out=r)


@batchwise
def _interference_chunk(rng, size, model, pl, u, radius, tail_mean):
    """(I(0), I(0)^2, I(0) I(u)) per trial.  The path losses overwrite the
    points and one fading buffer serves both slots."""
    if u == 0.0:
        radii, counts = sample_batch(model.field, radius, rng, size)
        ell = ell_u = _ell(pl, radii)
        h = np.empty_like(ell)
    else:  # the displaced observer needs planar points
        x, y, counts = sample_batch(model.field, radius, rng, size, planar=True)
        ell = _ell(pl, np.hypot(x, y))
        x -= u
        ell_u = _ell(pl, np.hypot(x, y, out=x))
        h = y
    rng.standard_exponential(out=h)
    h *= ell
    i1 = _segment_sums(h, counts) + tail_mean
    rng.standard_exponential(out=h)
    h *= ell_u
    i2 = _segment_sums(h, counts) + tail_mean
    return i1, i1 * i1, i1 * i2


def estimate_jsp(model, events, regime, theta, cfg, geometry="adhoc"):
    """Joint success probability of K repeated transmissions of one link.

    QSI shares a single pattern across the K events of a trial (the estimator
    is the K-th CSP power, from the pattern pass estimate_success shares);
    FVI draws a fresh pattern per event, event j from its own substream, so
    FVI takes at most FVI_EVENTS events.  `events` is the integer K; relay
    routes are handled in relay_retx.  theta is a scalar: a grid raises
    ValueError before any draw.
    """
    k = int(events)
    if k < 1:
        raise ValueError("K must be >= 1")
    _scalar_theta(theta, "the joint success probability")
    if regime == "qsi":
        (samples,) = _collect_csp(model, _theta_grid(theta), geometry, cfg, b=float(k))
        return confidence(samples, cfg.master_seed)
    if regime == "fvi":
        if k > FVI_EVENTS:
            raise ValueError(f"FVI takes at most {FVI_EVENTS} events, one substream each")
        per_event = [_collect_csp(model, _theta_grid(theta), geometry, cfg, event=j + 1)[0] for j in range(k)]
        samples = np.prod(per_event, axis=0)
        return confidence(samples, cfg.master_seed)
    raise ValueError("regime must be 'qsi' or 'fvi'")
