"""Run one workload and compute its metrics.

The timed phase is a closed loop with one client: the next item starts when
the previous one returns.  It cycles over the workload's items until at
least ``seconds`` have passed and every item has run at least twice.  Times
are scaled to a reference speed by ``speed.SpeedProbe``.  Outputs are
checked afterwards, outside the timed region.

With ``trace=False`` the result holds the end-to-end metrics.  With
``trace=True`` the same untraced loop runs first, then one paired pass in
which each item runs untraced and then traced, and the result holds the
per-layer metrics; the traced outputs must equal the untraced ones.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import time

import checks
import speed
import workloads
from thueplane import colour, embed, kernels, verify
from tracer import Tracer
from workloads import PIPELINES, VerifyItem

SETUP_REPEATS = 3
#: least runs of every item in the timed phase
MIN_PASSES = 2
#: candidate tail percentiles, highest first
TAIL_LADDER = (99, 95, 90, 80, 50)
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "throughput_vps": "vertices/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "colours_used_mean": "colours",
    "setup_s": "s",
}


def process(item):
    """The work timed for one item.  Layer functions are looked up on their
    modules at call time, so a traced run reaches the wrapped ones."""
    if isinstance(item, VerifyItem):
        return verify.verify_facial_nonrepetitive(item.graph, item.colours)
    G = embed.loads_graph(item.doc)
    return getattr(colour, PIPELINES[item.pipeline][0])(G)


def _sample(idx, item):
    """(item index, seconds, output, exception, start time) of one item."""
    t = time.perf_counter()
    try:
        out, err = process(item), None
    except Exception as exc:  # a raising item is a failed item, not a crash
        out, err = None, exc
    return idx, time.perf_counter() - t, out, err, t


def closed_loop(items, seconds, probe):
    """Samples of the timed loop, with a speed probe at its start, at its
    end and between items whenever ``speed.INTERVAL_S`` has passed."""
    samples = []
    clock = time.perf_counter
    began = last_probe = clock()
    probe.measure()
    i = 0
    while i < MIN_PASSES * len(items) or clock() - began < seconds:
        samples.append(_sample(i % len(items), items[i % len(items)]))
        i += 1
        if clock() - last_probe >= speed.INTERVAL_S:
            probe.measure()
            last_probe = clock()
    probe.measure()
    return samples


def paired_pass(items, tracer):
    """One pass in which each item runs untraced and then traced, inside a
    ``bench.item`` span; returns (untraced samples, traced samples).  Pairing
    keeps the two runs of an item equally warm, for the overhead ratio."""
    plain, traced = [], []
    for idx, item in enumerate(items):
        plain.append(_sample(idx, item))
        with tracer, tracer.span("item"):
            traced.append(_sample(idx, item))
    return plain, traced


def item_problems(item, output):
    if isinstance(item, VerifyItem):
        return checks.verdict_problems(item, output)
    G = embed.loads_graph(item.doc)
    return checks.colouring_problems(G, output, PIPELINES[item.pipeline][1])


def check_samples(items, samples):
    """Check every sample.  Returns (failed flag per sample, first-output
    record per item, item index -> passed its check, problem messages).  A
    sample fails when it raised, when its item's first output fails its
    check, or when its output differs from that first output."""
    records = {}
    item_ok = {}
    failed = []
    problems = []
    for idx, _dt, out, err, _t in samples:
        if err is not None:
            failed.append(True)
            problems.append(f"item {idx} raised {type(err).__name__}: {err}")
            continue
        rec = checks.output_record(out)
        if idx not in item_ok:
            found = item_problems(items[idx], out)
            problems.extend(f"item {idx}: {p}" for p in found)
            item_ok[idx] = not found
            records[idx] = rec
        elif rec != records[idx]:
            problems.append(f"item {idx}: output differs from its earlier output")
        failed.append(not item_ok[idx] or rec != records[idx])
    return failed, records, item_ok, problems


def tail_percentile(pool):
    """The highest ladder percentile that leaves at least TAIL_BEYOND of
    ``pool`` samples above it, by nearest rank; 100 when none does.  It
    depends on the item count only, never on how many samples a run happened
    to take, so every run of a workload reports the same percentile, and
    runs take more than ``pool`` samples."""
    for q in TAIL_LADDER:
        if pool - -(-q * pool // 100) >= TAIL_BEYOND:
            return q
    return 100


def tail_latency(samples, times, q):
    """(tail time, samples above it).  Below percentile 100 this is the
    nearest-rank percentile of all ``times``.  At 100 it is the slowest
    item, each item taken at the median of its runs (at least MIN_PASSES),
    which damps the noise of any single run."""
    if q == 100:
        per_item = {}
        for s, t in zip(samples, times):
            per_item.setdefault(s[0], []).append(t)
        return max(statistics.median(ts) for ts in per_item.values()), 0
    xs = sorted(times)
    rank = max(1, -(-q * len(xs) // 100))
    return xs[rank - 1], len(xs) - rank


def colours_used_mean(items, records):
    if isinstance(items[0], VerifyItem):
        counts = [len(set(item.colours)) for item in items]
    else:
        counts = [len(set(records[i])) for i in range(len(items)) if records.get(i)]
    return statistics.fmean(counts) if counts else 0.0


def _context(workload, seed, seconds, trace, items):
    by_pipeline = {}
    for item in items:
        key = "verify" if isinstance(item, VerifyItem) else item.pipeline
        by_pipeline[key] = by_pipeline.get(key, 0) + 1
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "kernel_backend": kernels.BACKEND,
        "thueplane_kernel_env": os.environ.get("THUEPLANE_KERNEL"),
        "items": len(items),
        "items_by_pipeline": by_pipeline,
        "vertices_per_pass": sum(item.n for item in items),
        "latency_tail": {"percentile": tail_percentile(len(items))},
        "input_digest": workloads.input_digest(items),
    }


def _build(workload, seed, sizes, probe):
    """Build the inputs between two speed probes; returns the items, the
    build time and the build time in reference seconds."""
    probe.measure()
    t = time.perf_counter()
    items = workloads.build_inputs(workload, seed, sizes)
    dt = time.perf_counter() - t
    probe.measure()
    return items, dt, dt * probe.scale(t, t + dt)


def run_workload(workload, seed, seconds, trace=False, sizes=None, import_s=0.0, dump_dir=None):
    """Run ``workload`` and return ``{"correct", "attempted", "failed",
    "metrics", "context"}``; ``metrics`` maps a name to ``{"value", "unit"}``."""
    probe = speed.SpeedProbe()
    setup_raw, setup_ref = [], []
    setup_tracer = None
    for rep in range(SETUP_REPEATS if not trace else 2):
        if trace and rep == 1:
            setup_tracer = Tracer()
            with setup_tracer, setup_tracer.span("setup"):
                again, dt, ref = _build(workload, seed, sizes, probe)
            if workloads.input_digest(again) != workloads.input_digest(items):
                raise RuntimeError("the same seed built different inputs")
        else:
            items, dt, ref = _build(workload, seed, sizes, probe)
        setup_raw.append(dt)
        setup_ref.append(ref)
    context = _context(workload, seed, seconds, trace, items)
    # the import ran before any probe; the first probe stands for its speed
    import_ref_s = import_s * speed.REFERENCE_S / probe.times[0][1]
    context["setup"] = {"import_s": import_s, "build_s": setup_raw, "build_ref_s": setup_ref}

    gc.collect()
    t = time.perf_counter()
    samples = closed_loop(items, seconds, probe)
    context["timed_s"] = time.perf_counter() - t
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, records, item_ok, problems = check_samples(items, samples)
    untraced_digest = checks.output_digest([records.get(i) for i in range(len(items))])
    context["output_digest"] = untraced_digest

    if trace:
        tracer = Tracer()
        gc.collect()
        plain, traced = paired_pass(items, tracer)
        traced_records = [checks.output_record(out) for _i, _dt, out, _e, _t in traced]
        # a repeat output is checked by being equal to the checked first one
        failed += [
            err is not None or not item_ok.get(idx) or checks.output_record(out) != records.get(idx)
            for idx, _dt, out, err, _t in plain + traced
        ]
        traced_digest = checks.output_digest(traced_records)
        if traced_digest != untraced_digest:
            problems.append("traced and untraced runs produced different outputs")
        untraced_s = sum(s[1] for s in plain)
        traced_s = sum(s[1] for s in traced)
        summary = tracer.summary()
        metrics = layer_metrics(summary, setup_tracer.summary(), len(items), traced_s / untraced_s)
        context["trace"] = {
            "traced_digest": traced_digest,
            "spans": summary["spans"],
            "traced_s": traced_s,
            "untraced_s": untraced_s,
            "layers": summary["layers"],
        }
        if dump_dir:
            os.makedirs(dump_dir, exist_ok=True)
            path = os.path.join(dump_dir, f"trace-{workload}-seed{seed}.json")
            tracer.dump(path)
            context["trace"]["dump"] = os.path.relpath(path)
    else:
        raw = [s[1] for s in samples]
        dts = [s[1] * probe.scale(s[4], s[4] + s[1]) for s in samples]
        ok_vertices = sum(items[s[0]].n for s, bad in zip(samples, failed) if not bad)
        q = context["latency_tail"]["percentile"]
        tail, beyond = tail_latency(samples, dts, q)
        context["latency_tail"].update(samples=len(dts), beyond=beyond)
        context["probe"] = {"reference_s": speed.REFERENCE_S, "median_s": probe.median(),
                            "count": len(probe.times)}
        context["raw"] = {
            "throughput_vps": ok_vertices / sum(raw),
            "latency_p50_ms": statistics.median(raw) * 1e3,
            "latency_tail_ms": tail_latency(samples, raw, q)[0] * 1e3,
            "setup_s": import_s + statistics.median(setup_raw),
        }
        values = {
            "throughput_vps": ok_vertices / sum(dts),
            "latency_p50_ms": statistics.median(dts) * 1e3,
            "latency_tail_ms": tail * 1e3,
            "peak_rss_mb": peak_rss_mb,
            "colours_used_mean": colours_used_mean(items, records),
            "setup_s": import_ref_s + statistics.median(setup_ref),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    attempted = len(failed)
    n_failed = sum(failed)
    context["samples"] = len(samples)
    context["passes"] = len(samples) / len(items)
    context["failed_share"] = n_failed / attempted
    context["problems"] = problems[:20]
    return {
        "correct": n_failed == 0 and not problems,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": metrics,
        "context": context,
    }


def layer_metrics(summary, setup_summary, items, overhead_ratio):
    """Per-layer metrics of one traced pass over ``items`` items; ``gen``
    runs only in set-up, so its time comes from the traced set-up."""
    layers, names = summary["layers"], summary["names"]

    def layer(name, key):
        return layers.get(name, {}).get(key, 0)

    def spans(name, key="count"):
        return names.get(name, {}).get(key, 0)

    values = {
        "kernels.calls": (layer("kernels", "calls"), "count"),
        "kernels.symbols": (summary["kernel_symbols"], "symbols"),
        "kernels.self_s": (layer("kernels", "self_s"), "s"),
        "verify.calls": (layer("verify", "calls"), "count"),
        "verify.calls_per_item": (layer("verify", "calls") / items, "calls/item"),
        "verify.self_s": (layer("verify", "self_s"), "s"),
        "embed.graphs_built": (spans("embed.EmbeddedGraph"), "count"),
        "embed.graphs_built_per_item": (spans("embed.EmbeddedGraph") / items, "graphs/item"),
        "embed.simplify_calls": (spans("embed.simplify"), "count"),
        "embed.block_decompositions": (spans("embed._blocks_and_bridges"), "count"),
        "embed.self_s": (layer("embed", "self_s"), "s"),
        "embed.parse_s": (spans("embed.loads_graph", "total_s"), "s"),
        "blocking.calls": (layer("blocking", "calls"), "count"),
        "blocking.self_s": (layer("blocking", "self_s"), "s"),
        "colour.self_s": (layer("colour", "self_s"), "s"),
        "words.calls": (layer("words", "calls"), "count"),
        "words.self_s": (layer("words", "self_s"), "s"),
        "gen.self_s": (setup_summary["layers"].get("gen", {}).get("self_s", 0.0), "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
