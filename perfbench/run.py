"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  The kernel backend is whatever
``thueplane.kernels`` picks on import; the benchmark records it and never
overrides it.

Standard output: a context line (machine, backend, seed, item counts, tail
percentile, digests), one line per metric with its unit, and last one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 1`` every span is also written to ``.perfbench_out/``.
Exit status 2, and no result line, when the package or the arguments are
unusable.
"""

import argparse
import json
import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def _load_package():
    """Import thueplane from this checkout's ``src/``; returns the harness
    module, or raises ImportError."""
    if not os.path.isfile(os.path.join(SRC, "thueplane", "__init__.py")):
        raise ImportError(f"no thueplane package under {SRC}")
    sys.path.insert(0, SRC)
    import thueplane

    if os.path.dirname(os.path.dirname(os.path.abspath(thueplane.__file__))) != SRC:
        raise ImportError(f"thueplane was imported from {thueplane.__file__}, not {SRC}")
    import harness

    return harness


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    t0 = time.perf_counter()
    try:
        harness = _load_package()
    except ImportError as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    if args.workload not in harness.workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(harness.workloads.WORKLOADS)}")

    result = harness.run_workload(
        args.workload,
        args.seed,
        args.seconds,
        trace=bool(args.trace),
        import_s=import_s,
        dump_dir=os.path.join(ROOT, ".perfbench_out"),
    )
    context = result.pop("context")
    print("context " + json.dumps(context, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_share = {context['failed_share']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} items)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
