"""Every top-level function, class and method in `src/stochgeo` is named by
other code in the package, or is kept on purpose with its reason below.
Every Gauss-Legendre rule is built by `numerics.gauss_legendre`, adaptive
quadrature (`numerics.integrate_1d`, the one user of `scipy.integrate`) serves
only the MCP moment of `sir_analysis`, the ad hoc CSP moments dispatch on the
field type in one place, and every Monte Carlo chunk function is a per-batch
kernel made by `simengine.batchwise`, save those that keep state across
batches, and no batch kernel loops over its trials.  The batch kernels take
the link log-sum from `simengine._link_log_sums`, and only a displaced or
pair geometry draws planar points.  Fading drawn for every point is drawn a
block at a time by `simengine._faded_sums`, save in the two kernels named in
`POINTS_SIZED_FADING` with their reasons, and the interference kernel takes
its points from `pointprocess.replay_batch`, a block at a time.

A name counts as reached when some other code in `src/stochgeo` loads it
(`f(...)`, `module.f`, a default argument, a decorator).  Being listed in
`__all__` or imported does not count, since neither runs the code.

The scan covers top-level definitions and the methods of classes, dunders
aside; a method counts as reached when code outside its own body names it.
Members that the benchmark's tracer (`perfbench/tracer.py`) hooks are kept
as well, though the scan does not see them: `gil_pelaez_ccdf(full_output=)`, whose flag is one bool for
a scalar x or a whole x-grid, the fourth positional argument (`geometry`)
of `meta_distribution`, and the two `_cache` LRUs (`_DisplacedCross`,
`DownlinkImagMoments`).  The tracer's hooks on
`simengine._radii_batch` and the per-pattern `sample_*` samplers find
nothing since `pointprocess.sample_batch` replaced them, and its hook on
`numerics.fixed_point_solve` finds nothing as both queue fixed points are
closed forms; it skips a name it does not find.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "stochgeo"

_ORACLE = "independent oracle that a test compares against"
_PINNED = "pinned by tests/test_acceptance.py"
_DISTANCE_LAW = "distance law the tutorial derives; wiring it into validate is open"

KEEP = {
    "jsp_mobility_mc_raw_fading": f"{_ORACLE} (test_factorized_vs_raw_fading_jsp)",
    "simulate_shadowed_interference": f"{_ORACLE} (test_simulated_interference_orderings)",
    "corr_coeff_retx": f"{_PINNED} (criterion 09)",
    "laplace_interference": f"{_PINNED} (criterion 07)",
    "interference_variance_shadowed": f"{_PINNED} (criterion 07)",
    "shadowed_mean_interference": f"{_PINNED} (criterion 07)",
    "mean_product": "reference value of the benchmark (perfbench/items.py)",
    "contact_cdf": _DISTANCE_LAW,
    "contact_pdf": _DISTANCE_LAW,
    "vertex_contact_pdf": _DISTANCE_LAW,
    "distance_ratio_cdf": _DISTANCE_LAW,
    "distance_ratio_pdf": _DISTANCE_LAW,
    "r2_conditional_cdf": _DISTANCE_LAW,
}


def _unreached():
    """(module file, name) of each top-level def or class, and each method but
    a dunder (as Class.method), that no other code names."""
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    used = {}  # name -> ids of the definitions (top-level, or a method) whose bodies name it
    for tree in trees.values():
        for top in tree.body:
            # a method's body counts as its own, the rest of a class as the class's
            parts = ast.iter_child_nodes(top) if isinstance(top, ast.ClassDef) else [top]
            for part in parts:
                owner = id(part) if isinstance(part, ast.FunctionDef) else id(top)
                for node in ast.walk(part):
                    if isinstance(node, ast.Name):
                        used.setdefault(node.id, set()).add(owner)
                    elif isinstance(node, ast.Attribute):
                        used.setdefault(node.attr, set()).add(owner)
    out = []
    for fname, tree in trees.items():
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(top.name, top)]
            if isinstance(top, ast.ClassDef):
                defs += [(f"{top.name}.{m.name}", m) for m in top.body
                         if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")]
            for label, node in defs:
                if not used.get(node.name, set()) - {id(node)}:
                    out.append((fname, label))
    return out


def test_every_definition_is_reached_or_kept():
    stray = [f"{f}: {name}" for f, name in _unreached() if name not in KEEP]
    assert not stray, "unreached by src/stochgeo; call, delete or list in KEEP: " + ", ".join(stray)


def test_gauss_legendre_rules_are_built_only_in_numerics():
    # one place builds quadrature rules: other modules call
    # numerics.gauss_legendre and numerics.gauss_jacobi, never numpy's
    # leggauss or a scipy.special.roots_* builder
    builders = sorted(p.name for p in SRC.glob("*.py")
                      if re.search(r"leggauss|\broots_\w+", p.read_text()) and p.name != "numerics.py")
    assert builders == []


def test_adaptive_quadrature_serves_only_the_mcp_moment():
    def imports(tree, module, name):
        return any(isinstance(n, ast.ImportFrom) and (n.module or "").endswith(module)
                   and any(a.name == name for a in n.names) for n in ast.walk(tree))

    trees = {p.name: (p.read_text(), ast.parse(p.read_text())) for p in sorted(SRC.glob("*.py"))}
    assert sorted(f for f, (_, tree) in trees.items() if imports(tree, "numerics", "integrate_1d")) == ["sir_analysis.py"]
    naming = sorted(f for f, (text, tree) in trees.items() if "scipy.integrate" in text or imports(tree, "scipy", "integrate"))
    assert naming == ["numerics.py"]


def test_fixed_rule_callers_never_import_quadrature():
    code = (
        "import sys\n"
        "from stochgeo.mobility import handoff_prob_avg\n"
        "from stochgeo.pointprocess import MCP, contact_cdf, contact_pdf\n"
        "from stochgeo.relay_retx import harq_type2_cc, linear_route, relay_moments\n"
        "for regime in ('qsi', 'fvi'):\n"
        "    harq_type2_cc(1.0, 4.0, 0.1, 1.0, regime)\n"
        "relay_moments(1.0, linear_route(3, 1.0), 1.0, 4.0, 0.1, 'qsi')\n"
        "handoff_prob_avg(0.01, 5.0)\n"
        "contact_cdf(MCP(0.1, 5.0, 1.0), 1.1)\n"
        "contact_pdf(MCP(0.1, 5.0, 1.0), 1.1)\n"
        "print('scipy.integrate' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _callers(name, paths):
    """Names of the top-level definitions in `paths` that call `name`."""
    return {getattr(top, "name", None) for p in paths for top in ast.parse(p.read_text()).body
            for node in ast.walk(top) if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name}


def test_one_field_dispatch_and_one_order_check_for_the_csp_moments():
    # the ad hoc moments branch on the field type in one place, and every
    # real-order moment function checks its orders through the one grid
    assert _callers("isinstance", [SRC / "sir_analysis.py"]) == {"_adhoc_moments", "sir_gain_g0"}
    assert _callers("_real_order", sorted(SRC.glob("*.py"))) == {"_moment_grid"}


# the one loop over a chunk's batches, and the chunk functions that keep state
# across batches: the CSP kernel reuses its buffers, the queue chunk stacks trials
BATCH_LOOPS = {
    ("simengine.py", "batchwise"),
    ("simengine.py", "_csp_chunk"),
    ("queueing.py", "_queue_chunk"),
}


def test_only_batchwise_and_the_stateful_chunks_iterate_batches():
    loops = set()
    for p in sorted(SRC.glob("*.py")):
        for top in ast.parse(p.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, (ast.For, ast.comprehension)) and getattr(node.iter, "id", None) == "batch_iter":
                    loops.add((p.name, getattr(top, "name", None)))
    assert loops == BATCH_LOOPS, "write a per-batch kernel and decorate it with simengine.batchwise"


def test_no_function_loops_over_a_batchs_trials():
    # a kernel draws and reduces its batch's `size` trials as arrays, never
    # one trial per Python iteration
    loops = set()
    for p in sorted(SRC.glob("*.py")):
        for top in ast.parse(p.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, (ast.For, ast.comprehension)) and isinstance(node.iter, ast.Call)
                        and getattr(node.iter.func, "id", None) == "range"
                        and any(getattr(arg, "id", None) == "size" for arg in node.iter.args)):
                    loops.add((p.name, getattr(top, "name", None)))
    assert loops == set(), "draw the batch's trials as arrays, as pointprocess.sample_batch does"


def test_batch_kernels_take_the_link_log_sum_from_simengine():
    # sum log1p(scale d^-alpha) is formed in simengine._link_log_sums alone
    kernels = [(p.name, top) for p in sorted(SRC.glob("*.py")) for top in ast.parse(p.read_text()).body
               if isinstance(top, ast.FunctionDef)
               and any(getattr(d, "id", getattr(d, "attr", None)) == "batchwise" for d in top.decorator_list)]
    assert len(kernels) >= 9
    calls = sorted(f"{f}: {top.name}" for f, top in kernels for node in ast.walk(top)
                   if isinstance(node, ast.Attribute) and node.attr == "log1p")
    assert calls == [], "take the log-sum from simengine._link_log_sums"


def test_planar_samples_serve_only_displaced_or_pair_geometry():
    # a radius and an i.i.d. uniform angle per point give every distance to a
    # moving point; planar points serve a pair correlation, the relay route's
    # offset receivers and a displaced interference observer (the Matern
    # points' angles are not i.i.d.), whether sampled or replayed
    callers = set()
    for p in sorted(SRC.glob("*.py")):
        for top in ast.parse(p.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("sample_batch", "replay_batch")
                        and any(k.arg == "planar" for k in node.keywords)):
                    callers.add((p.name, top.name))
    assert callers == {("cli.py", "_fig_pcf"), ("relay_retx.py", "_relay_chunk"),
                       ("simengine.py", "_interference_chunk")}


def test_the_interference_kernel_replays_its_points():
    # a Poisson interference batch is regenerated block by block, never held
    # whole: the kernel takes its points from pointprocess.replay_batch alone
    kernel = next(top for top in ast.parse((SRC / "simengine.py").read_text()).body
                  if getattr(top, "name", None) == "_interference_chunk")
    called = {getattr(node.func, "id", None) for node in ast.walk(kernel) if isinstance(node, ast.Call)}
    assert "replay_batch" in called and "sample_batch" not in called


# the kernels that draw fading for every point at once, with their reasons
POINTS_SIZED_FADING = {
    ("mobility.py", "_raw_fading_chunk"): "draws both slots' fading before it uses either",
    ("shadowing.py", "_shadowed_interference_chunk"): "forms (h t)/(eps + r^alpha), which the blocked "
                                                      "h gain would move by an ulp",
}


def test_fading_is_drawn_in_blocks():
    # a points-sized draw of fading (any argument but the batch's `size`) is
    # made in simengine._faded_sums, a block at a time, or by a kernel above
    draws = set()
    for p in sorted(SRC.glob("*.py")):
        for top in ast.parse(p.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "standard_exponential"
                        and [getattr(a, "id", None) for a in node.args] != ["size"]):
                    draws.add((p.name, top.name))
    assert draws == {("simengine.py", "_faded_sums"), *POINTS_SIZED_FADING}, "sum fading with simengine._faded_sums"


def test_keep_list_is_current():
    # an entry that code now reaches, or that no longer exists, comes off the list
    unreached = {name for _, name in _unreached()}
    assert sorted(set(KEEP) - unreached) == []
