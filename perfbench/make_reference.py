"""Regenerate perfbench/reference.json from the sources in this checkout.

    python3 perfbench/make_reference.py

The committed file was generated at the seed commit of the benchmark.
Regenerate it only when a change is meant to move a reference value, and say
so in the change: the benchmark checks every later commit against it.

An item that raises here is recorded under `known_failures` with its
message; the benchmark then expects that failure, counts it in `failed`, and
still reports the item as correct while the message matches.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import items  # noqa: E402
import run  # noqa: E402


def _markov_bounds(m1, m2):
    """Bounds on P[CSP > x] from the first two moments of a [0, 1] variable:
    Markov from above (M1 / x and M2 / x^2), reverse Markov from below."""
    return {
        "upper": [min(1.0, m1 / x, m2 / x**2) for x in items.META_X],
        "lower": [max(0.0, (m1 - x) / (1.0 - x)) for x in items.META_X],
    }


# Monte Carlo checks that fail at the seed commit for a reason the estimate's
# noise does not explain
MC_CHECK_FAILURES = {
    "mc.meta.gpp": "the analytic Ginibre meta distribution is 0.768 at x = 0.25; 40k-trial Monte Carlo "
                   "runs at seeds 1, 7 and 11 give 0.794 to 0.796 while the mean success matches",
}


def main():
    ns = items.namespace()
    values, known = {}, {}
    for item in items.MC_ITEMS:
        ref = items.mc_reference(ns, item.id)
        if ref is None:
            model = ns.FIELDS[item.id.rsplit(".", 1)[1]]
            ref = _markov_bounds(*(ns.sir_analysis.moments_adhoc(model, b, items.THETA) for b in (1.0, 2.0)))
        values[item.id] = ref
        print(item.id, "done", flush=True)
    for item_id, why in MC_CHECK_FAILURES.items():
        known[item_id] = {"message": "estimate outside Z_SE SE + atol", "why": why}
    run_ = items.Run(seed=0)
    for item in items.SPECTRAL_ITEMS:
        try:
            values[item.id] = item.call(ns, run_)
        except Exception as e:  # recorded as a known failure
            known[item.id] = {"message": str(e), "error": f"{type(e).__name__}: {e}"}
        print(item.id, "done", flush=True)
    env = run.child_env()
    with tempfile.TemporaryDirectory() as tmp:
        for item in items.CLI_ITEMS:
            out = os.path.join(tmp, item.id)
            os.makedirs(out)
            proc = subprocess.run([sys.executable, "-m", "stochgeo.cli", *items.cli_argv(item, 2024, out)],
                                  capture_output=True, text=True, env=env, cwd=ROOT)
            if proc.returncode != 0:
                lines = proc.stderr.strip().splitlines()
                known[item.id] = {"message": lines[-1].split(": ", 1)[-1] if lines else "",
                                  "exit_code": proc.returncode}
            elif item.analytic:
                values[item.id] = items.cli_analytic_values(item, out)
            print(item.id, "exit", proc.returncode, flush=True)
    env = run.environment()
    ref = {
        "generated_with": {k: env[k] for k in ("git_sha", "src_sha256", "python", "numpy", "scipy")},
        "known_failures": known,
        "values": values,
    }
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print("known failures:", json.dumps(known, indent=1))


if __name__ == "__main__":
    main()
