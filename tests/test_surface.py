"""Every top-level function and class in `src/stochgeo` is named by other
code in the package, or is kept on purpose with its reason below.  And every
Gauss-Legendre rule is built by `numerics.gauss_legendre`.

A name counts as reached when some other code in `src/stochgeo` loads it
(`f(...)`, `module.f`, a default argument, a decorator).  Being listed in
`__all__` or imported does not count, since neither runs the code.

The scan covers top-level definitions only.  Members that the benchmark's
tracer (`perfbench/tracer.py`) hooks are kept as well, though the scan does
not see them: `gil_pelaez_ccdf(full_output=)`, whose flag is one bool for
a scalar x or a whole x-grid, the fourth positional argument (`geometry`)
of `meta_distribution`, and the two `_cache` LRUs (`_DisplacedCross`,
`DownlinkImagMoments`).  The tracer's hooks on
`simengine._radii_batch` and the per-pattern `sample_*` samplers find
nothing since `pointprocess.sample_batch` replaced them; it skips a name it
does not find.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "stochgeo"

_ORACLE = "independent oracle that a test compares against"
_PINNED = "pinned by tests/test_acceptance.py"
_DISTANCE_LAW = "distance law the tutorial derives; wiring it into validate is open"

KEEP = {
    "_cross_integral_gauss": f"{_ORACLE} (test_corr_displaced_kernel_consistency_at_zero)",
    "_cross_integral_lens": f"{_ORACLE} (test_corr_displaced_kernel_consistency_at_zero)",
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
    """(module file, name) of each top-level def or class no other code names."""
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    used = {}  # name -> ids of the top-level definitions whose bodies name it
    for tree in trees.values():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    used.setdefault(node.id, set()).add(id(top))
                elif isinstance(node, ast.Attribute):
                    used.setdefault(node.attr, set()).add(id(top))
    out = []
    for fname, tree in trees.items():
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not used.get(top.name, set()) - {id(top)}:
                out.append((fname, top.name))
    return out


def test_every_definition_is_reached_or_kept():
    stray = [f"{f}: {name}" for f, name in _unreached() if name not in KEEP]
    assert not stray, "unreached by src/stochgeo; call, delete or list in KEEP: " + ", ".join(stray)


def test_gauss_legendre_rules_are_built_only_in_numerics():
    # one rule builder: other modules call numerics.gauss_legendre
    builders = sorted(p.name for p in SRC.glob("*.py") if "leggauss" in p.read_text() and p.name != "numerics.py")
    assert builders == []


def test_keep_list_is_current():
    # an entry that code now reaches, or that no longer exists, comes off the list
    unreached = {name for _, name in _unreached()}
    assert sorted(set(KEEP) - unreached) == []
