"""Scaling benchmark: time the colouring pipelines over seeded corpora and
fit the runtime exponent."""

from __future__ import annotations

import math
import time

from thueplane import colour, gen, kernels


def _fit_exponent(points):
    """Least-squares slope of log(t) against log(n)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(max(t, 1e-9)) for _, t in points]
    k = len(xs)
    mx = sum(xs) / k
    my = sum(ys) / k
    var = sum((x - mx) ** 2 for x in xs)
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return cov / var if var > 0 else 0.0


#: generator kinds coloured by ``colour_plane``; every other kind is
#: outerplane and goes through ``colour_outerplane``
_PLANE_KINDS = ("plane", "nested")


def run_bench(sizes, kind="outerplane", seed=0, repeat=1):
    """Time colour+verify per size (best of ``repeat``); returns a report
    dict with per-size rows and the fitted exponent."""
    pipeline = colour.colour_plane if kind in _PLANE_KINDS else colour.colour_outerplane
    rows = []
    for n in sorted(sizes):
        spec = gen.GenSpec(kind, n, seed)
        t_gen0 = time.perf_counter()
        G = gen.generate(spec)
        t_gen = time.perf_counter() - t_gen0
        best = None
        colours_used = None
        for _ in range(max(1, repeat)):
            t0 = time.perf_counter()
            col = pipeline(G)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
            colours_used = col.distinct_colours()
        rows.append(
            {
                "n": n,
                "edges": len(G.edges),
                "gen_seconds": round(t_gen, 6),
                "colour_verify_seconds": round(best, 6),
                "colours_used": colours_used,
            }
        )

    return {
        "kind": kind,
        "seed": seed,
        "repeat": repeat,
        "kernel": kernels.BACKEND,
        "rows": rows,
        "fitted_exponent": round(
            _fit_exponent([(r["n"], r["colour_verify_seconds"]) for r in rows]), 4
        )
        if len(rows) >= 2
        else None,
    }
