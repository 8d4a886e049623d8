"""One pass in a fresh interpreter.

    python3 perfbench/child.py api WORKLOAD SEED WORKERS TRACE OUT_JSON [SPANS_JSON]
        runs every item of an in-process workload and writes their values,
        errors and times to OUT_JSON.
    python3 perfbench/child.py cli OUT_JSON SPANS_JSON -- ARGS...
        installs the tracer, then runs `stochgeo.cli.main(ARGS)` as
        `python3 -m stochgeo.cli ARGS` would, and exits with its code.
"""

import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import items  # noqa: E402


def normalize(value):
    """Results as JSON: an Estimate becomes {"mean", "se"}."""
    if hasattr(value, "stderr") and hasattr(value, "mean"):
        return {"mean": float(value.mean), "se": float(value.stderr)}
    if isinstance(value, dict):
        return {k: normalize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [normalize(v) for v in value]
    return float(value)


def _tracer(ns):
    from tracer import Tracer

    tr = Tracer({m: getattr(ns, m) for m in items.MODULES})
    tr.install()
    return tr


def run_api(workload, seed, workers, trace, out_path, spans_path=None):
    t_import = time.perf_counter()
    ns = items.namespace()
    import_s = time.perf_counter() - t_import
    tr = _tracer(ns) if trace else None
    run = items.Run(seed=seed, workers=workers)
    results = []
    t_pass = time.perf_counter()
    for item in items.WORKLOADS[workload]:
        if tr:
            tr.item = item.id
        t0 = time.perf_counter()
        try:
            value, error = normalize(item.call(ns, run)), None
        except Exception as e:  # a raising item is a failed item, and the pass goes on
            value, error = None, f"{type(e).__name__}: {e}"
            traceback.print_exc()
        results.append({"id": item.id, "seconds": time.perf_counter() - t0, "value": value, "error": error})
    out = {
        "import_s": import_s,
        "wall_s": time.perf_counter() - t_pass,
        "items": results,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tr:
        out["trace"] = tr.summary()
        tr.write_spans(spans_path)
    with open(out_path, "w") as fh:
        json.dump(out, fh)


def run_cli(out_path, spans_path, argv):
    ns = items.namespace()
    tr = _tracer(ns)
    tr.item = " ".join(argv[:2])
    t0 = time.perf_counter()
    try:
        code = ns.cli.main(argv)
    finally:
        out = {"wall_s": time.perf_counter() - t0, "trace": tr.summary()}
        with open(out_path, "w") as fh:
            json.dump(out, fh)
        tr.write_spans(spans_path)
    return code


def main(argv):
    if argv[0] == "api":
        workload, seed, workers, trace, out_path = argv[1:6]
        run_api(workload, int(seed), int(workers), trace == "1", out_path, *argv[6:7])
        return 0
    if argv[0] == "cli" and argv[3] == "--":
        return run_cli(argv[1], argv[2], argv[4:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
