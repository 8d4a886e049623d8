"""Spans and counters recorded around the public functions of stochgeo.

`Tracer.install()` replaces each public module-level function of the traced
modules with a wrapper, in every stochgeo module that binds it: a
`from .numerics import integrate_1d` keeps its own reference, so patching
only the defining module would miss those callers.  A call opens a span
when it crosses into another module; calls inside one module run unwrapped
unless a counter needs them.  Callbacks that another module passes in (the
moment functions Gil-Pelaez inversion integrates) are charged to the module
that calls them.

Spans (name, start, end, parent, item) stay in memory and are written once
at the end; counters are summed per module and returned by `summary()`.
"""

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

SPAN_CAP = 200_000
WRITERS = ("write_csv", "write_curve_csv", "write_estimates_csv", "write_gnuplot", "write_manifest")
SAMPLERS = ("sample_ppp", "sample_mcp", "sample_gpp_distances", "sample_pattern")


class Tracer:
    def __init__(self, modules):
        """`modules`: traced module name -> imported stochgeo module."""
        self.modules = modules
        self.stack = []  # frames [module, span id, time covered by child spans]
        self.spans = []
        self.next_id = 0
        self.dropped = 0
        self.item = None
        self.origin = time.perf_counter()
        self.stats = {m: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0} for m in modules}
        self.depth = dict.fromkeys(modules, 0)
        self.counts = defaultdict(float)
        self.timing = set()  # counters an enclosing call is adding its time to
        self.mc_open = False
        self.sim_config = modules["simengine"].SimConfig

    # -- installation -----------------------------------------------------

    def install(self):
        hooks = self._hooks()
        originals = {}
        for mod_name, mod in self.modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                originals[id(obj)] = self._wrap(mod_name, name, obj, hooks.get(f"{mod_name}.{name}"))
        simengine = self.modules["simengine"]
        batch = getattr(simengine, "_radii_batch", None)  # the fields' batch samplers
        if batch is not None:
            originals[id(batch)] = self._wrap("simengine", "_radii_batch", batch, _count_batch_points)
        for mod in self._all_stochgeo_modules():
            for name, obj in list(vars(mod).items()):
                if id(obj) in originals:
                    setattr(mod, name, originals[id(obj)])
        self._patch_quad()
        self._patch_cross_table()

    def _all_stochgeo_modules(self):
        return [m for n, m in list(sys.modules.items()) if n == "stochgeo" or n.startswith("stochgeo.")]

    def _wrap(self, mod, name, fn, hook):
        tracer = self
        qual = f"{mod}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if hook is None and stack and stack[-1][0] == mod:
                return fn(*args, **kwargs)
            return tracer._call(mod, qual, fn, hook, args, kwargs)

        return wrapper

    def _patch_quad(self):
        from scipy import integrate

        quad = integrate.quad
        counts = self.counts

        @functools.wraps(quad)
        def counted_quad(*args, **kwargs):
            counts["numerics.quad_calls"] += 1
            return quad(*args, **kwargs)

        integrate.quad = counted_quad

    def _patch_cross_table(self):
        cls = getattr(self.modules["interference"], "_DisplacedCross", None)
        if cls is None:
            return
        init = cls.__init__
        counts = self.counts

        @functools.wraps(init)
        def counted_init(obj, *args, **kwargs):
            before = len(cls._cache)
            t0 = time.perf_counter()
            init(obj, *args, **kwargs)
            if len(cls._cache) > before:
                counts["interference.cross_builds"] += len(cls._cache) - before
                counts["interference.cross_build_s"] += time.perf_counter() - t0
            else:
                counts["interference.cross_hits"] += 1

        cls.__init__ = counted_init

    # -- spans --------------------------------------------------------------

    def _call(self, mod, qual, fn, hook, args, kwargs):
        cfg = None
        if not self.mc_open:
            cfg = next((a for a in (*args, *kwargs.values()) if isinstance(a, self.sim_config)), None)
            self.mc_open = cfg is not None
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1][1] if self.stack else -1
        frame = [mod, sid, 0.0]
        self.stack.append(frame)
        self.depth[mod] += 1
        t0 = time.perf_counter()
        try:
            return hook(self, fn, args, kwargs) if hook else fn(*args, **kwargs)
        except BaseException:
            self.stats[mod]["errors"] += 1
            raise
        finally:
            t1 = time.perf_counter()
            dur = t1 - t0
            self.stack.pop()
            self.depth[mod] -= 1
            st = self.stats[mod]
            st["calls"] += 1
            st["self_s"] += dur - frame[2]
            if self.depth[mod] == 0:
                st["busy_s"] += dur
            if self.stack:
                self.stack[-1][2] += dur
            if cfg is not None:
                # outermost call holding a SimConfig: one Monte Carlo run
                self.mc_open = False
                self.counts["simengine.trials"] += cfg.trials
                self.counts["mc_call_s"] += dur
                self.counts[f"{mod}.mc_busy_s"] += dur
            if len(self.spans) < SPAN_CAP:
                self.spans.append((qual, t0 - self.origin, t1 - self.origin, parent, self.item))
            else:
                self.dropped += 1

    # -- counters -------------------------------------------------------------

    def _hooks(self):
        hooks = {
            "numerics.gil_pelaez_ccdf": _gil_pelaez(self.modules["numerics"].gil_pelaez_ccdf),
            "numerics.integrate_1d": _count_nonconverged,
            "numerics.integrate_2d": _count_nonconverged,
            "numerics.fixed_point_solve": _count_fixed_point,
            "simengine.seed_stream": _count_batches,
            "queueing.simulate_queues": _count_slots(self.modules["queueing"].simulate_queues),
            "sir_analysis.meta_distribution": _meta(self.modules["sir_analysis"]),
            "sir_analysis.moments_adhoc": _timed("sir_analysis.moment_busy_s"),
            "sir_analysis.moments_downlink_ppp": _timed("sir_analysis.moment_busy_s"),
        }
        hooks.update({f"pointprocess.{n}": _count_points for n in SAMPLERS})
        hooks.update({f"cli.{n}": _timed("cli.write_busy_s") for n in WRITERS})
        return hooks

    def summary(self):
        dl = getattr(self.modules["sir_analysis"], "DownlinkImagMoments", None)
        counts = dict(self.counts)
        counts["sir_analysis.dl_cache_entries"] = len(dl._cache) if dl is not None else 0
        return {"stats": self.stats, "counts": counts, "spans": self.next_id, "dropped": self.dropped}

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "item"], "spans": self.spans}, fh)


def _timed(counter):
    """Add the call's duration to `counter` unless an enclosing call already
    adds to it."""

    def hook(tracer, fn, args, kwargs):
        outer = counter not in tracer.timing
        tracer.timing.add(counter)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            if outer:
                tracer.timing.discard(counter)
                tracer.counts[counter] += time.perf_counter() - t0

    return hook


def _gil_pelaez(original):
    sig = inspect.signature(original)

    def hook(tracer, fn, args, kwargs):
        bound = sig.bind(*args, **kwargs)
        want_flag = bound.arguments.get("full_output", False)
        bound.arguments["full_output"] = True
        t0 = time.perf_counter()
        try:
            value, converged = fn(*bound.args, **bound.kwargs)
        finally:
            tracer.counts["numerics.gp_calls"] += 1
            tracer.counts["numerics.gp_busy_s"] += time.perf_counter() - t0
        if not converged:
            tracer.counts["numerics.gp_cap_hits"] += 1
        return (value, converged) if want_flag else value

    return hook


def _count_nonconverged(tracer, fn, args, kwargs):
    res = fn(*args, **kwargs)
    if not res.converged:
        tracer.counts["numerics.nonconverged"] += 1
    return res


def _count_fixed_point(tracer, fn, args, kwargs):
    res = fn(*args, **kwargs)
    tracer.counts["numerics.fixed_point_iters"] += res.iterations
    if not res.converged:
        tracer.counts["numerics.nonconverged"] += 1
    return res


def _count_batches(tracer, fn, args, kwargs):
    tracer.counts["simengine.batches"] += 1
    return fn(*args, **kwargs)


def _count_points(tracer, fn, args, kwargs):
    pattern = fn(*args, **kwargs)
    if tracer.depth["pointprocess"] == 1:  # sample_pattern delegates to a sampler
        tracer.counts["pointprocess.points_sampled"] += pattern.n_points
    return pattern


def _count_batch_points(tracer, fn, args, kwargs):
    radii, counts = fn(*args, **kwargs)
    tracer.counts["pointprocess.points_sampled"] += len(radii)
    return radii, counts


def _count_slots(original):
    sig = inspect.signature(original)

    def hook(tracer, fn, args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        tracer.counts["queueing.sim_slots"] += bound.arguments["slots"] * bound.arguments["cfg"].trials
        return fn(*args, **kwargs)

    return hook


def _meta(sir_analysis):
    timed = _timed("sir_analysis.meta_busy_s")

    def hook(tracer, fn, args, kwargs):
        cache = getattr(getattr(sir_analysis, "DownlinkImagMoments", None), "_cache", None)
        before = len(cache) if cache is not None else 0
        try:
            return timed(tracer, fn, args, kwargs)
        finally:
            downlink = kwargs.get("geometry", args[3] if len(args) > 3 else "adhoc") == "downlink"
            if downlink and cache is not None:
                grew = len(cache) > before
                tracer.counts["sir_analysis.dl_cache_misses" if grew else "sir_analysis.dl_cache_hits"] += 1

    return hook
