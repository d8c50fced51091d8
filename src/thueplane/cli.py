"""Command-line surface.

Exit codes for ``colour``: 0 success (output verified), 2 input parse
failure, 3 graph-class mismatch for the requested mode, 4 internal
verification failure (a bug).  ``verify`` exits 0 when the colouring checks
out and 1 with a counterexample otherwise.  Every command exits 2 when an
output file cannot be written.  Diagnostics go to stderr as JSON lines;
results go to stdout or the requested output files.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import click

from thueplane import bench as bench_mod
from thueplane import blocking, colour, embed, gen, verify
from thueplane.embed import ClassMismatchError, EmbeddingError

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_PARSE = 2
EXIT_CLASS = 3
EXIT_INTERNAL = 4

_PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#aec7e8", "#ffbb78",
    "#98df8a", "#ff9896", "#c5b0d5", "#c49c94", "#f7b6d2", "#c7c7c7",
    "#dbdb8d", "#9edae5", "#393b79", "#ad494a",
]


def _diag(**fields):
    print(json.dumps(fields, sort_keys=True), file=sys.stderr)


def _write(path, text):
    """Write ``text`` to ``path``, or exit 2 with an ``output`` diagnostic.
    Empty ``text`` only checks that ``path`` can be written (append mode)."""
    try:
        with open(path, "w" if text else "a", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        _diag(error="output", path=str(path), detail=str(exc))
        sys.exit(EXIT_PARSE)


def _read_graph(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return embed.loads_graph(raw.decode("utf-8")), hashlib.sha256(raw).hexdigest()
    except (OSError, UnicodeDecodeError, EmbeddingError) as exc:
        _diag(error="parse", path=str(path), detail=str(exc))
        sys.exit(EXIT_PARSE)


def _read_colouring(path, n):
    """The colouring at ``path``, which must colour all n vertices and no more."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            col = colour.colouring_from_json(json.load(fh))
        if len(col.colours) != n:
            raise ValueError(f"{len(col.colours)} colours for a graph on {n} vertices")
        return col
    except (OSError, ValueError, RecursionError) as exc:
        _diag(error="parse", path=str(path), detail=str(exc))
        sys.exit(EXIT_PARSE)


@click.group()
def main():
    """Facial nonrepetitive colouring of embedded graphs."""


@main.command("colour")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option(
    "--mode",
    type=click.Choice(["outerplane", "plane", "cactus", "single-block"]),
    default="outerplane",
    show_default=True,
)
@click.option("--output", "output_path", type=click.Path(), default=None)
def cmd_colour(input_path, mode, output_path):
    """Colour a graph facially nonrepetitively and verify the result."""
    t_parse0 = time.perf_counter()
    G, digest = _read_graph(input_path)
    t_parse = time.perf_counter() - t_parse0
    dispatch = {
        "outerplane": colour.colour_outerplane,
        "plane": colour.colour_plane,
        "cactus": colour.colour_cactus_even,
        "single-block": colour.colour_outerplane_single_block,
    }
    t0 = time.perf_counter()
    try:
        result = dispatch[mode](G)
    except ClassMismatchError as exc:
        _diag(error="class-mismatch", mode=mode, detail=str(exc))
        sys.exit(EXIT_CLASS)
    except (colour.VerificationBugError, blocking.BlockingConstructionError) as exc:
        _diag(error="internal-verification-failure", mode=mode, detail=str(exc))
        sys.exit(EXIT_INTERNAL)
    t_colour = time.perf_counter() - t0  # includes the pipeline's certificate

    if output_path:
        _write(output_path, result.dumps() + "\n")
    report = {
        "input_digest": digest,
        "mode": mode,
        "n": G.n,
        "edges": len(G.edges),
        "colours_used": result.distinct_colours(),
        "palette_max": result.palette_max,
        "verified": result.verified,
        "seconds": round(t_parse + t_colour, 6),
        "phases": {"parse": round(t_parse, 6), "colour": round(t_colour, 6)},
    }
    print(json.dumps(report, sort_keys=True))
    sys.exit(EXIT_OK)


@main.command("verify")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--colouring", "colouring_path", required=True, type=click.Path(exists=True))
def cmd_verify(input_path, colouring_path):
    """Check a colouring against every facial path of the graph."""
    G, digest = _read_graph(input_path)
    col = _read_colouring(colouring_path, G.n)
    bad = verify.verify_facial_nonrepetitive(G, col.colours)
    if bad is None:
        print(json.dumps({"input_digest": digest, "ok": True}, sort_keys=True))
        sys.exit(EXIT_OK)
    print(
        json.dumps(
            {"input_digest": digest, "ok": False,
             "counterexample": verify.counterexample_to_json(col.colours, bad)},
            sort_keys=True,
        )
    )
    sys.exit(EXIT_COUNTEREXAMPLE)


@main.command("gen")
@click.option("--kind", type=click.Choice(gen.KINDS), required=True)
@click.option("--n", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--chord-p", type=float, default=0.5, show_default=True)
@click.option("--attach-p", type=float, default=0.35, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
def cmd_gen(kind, n, seed, chord_p, attach_p, out_path):
    """Generate a seeded instance of a graph class."""
    try:
        G = gen.generate(gen.GenSpec(kind, n, seed, chord_p, attach_p))
    except ValueError as exc:
        _diag(error="parse", detail=str(exc))
        sys.exit(EXIT_PARSE)
    except gen.GenerationError as exc:  # pragma: no cover - generator bug
        _diag(error="internal-verification-failure", detail=str(exc))
        sys.exit(EXIT_INTERNAL)
    doc = embed.dumps_graph(G)
    if out_path:
        _write(out_path, doc + "\n")
    else:
        print(doc)
    sys.exit(EXIT_OK)


@main.command("search")
@click.option("--kind", type=click.Choice(["cycle", "tree", "outerplane_biconnected"]), required=True)
@click.option("--max-n", type=int, default=8, show_default=True)
@click.option("--max-colours", type=int, default=4, show_default=True)
def cmd_search(kind, max_n, max_colours):
    """Exact facial chromatic numbers over exhaustively enumerated tiny
    instances (one JSON line per size)."""
    lo = 3 if kind in ("cycle", "outerplane_biconnected") else 1
    if not lo <= max_n <= gen.ENUM_GUARD:  # checked before any size is printed
        _diag(error="parse", option="--max-n", detail=f"{kind} enumeration runs over {lo} <= n <= {gen.ENUM_GUARD}")
        sys.exit(EXIT_PARSE)
    if max_colours < 1:
        _diag(error="parse", option="--max-colours", detail=f"max colours must be at least 1, not {max_colours}")
        sys.exit(EXIT_PARSE)
    for n in range(lo, max_n + 1):
        worst = 0
        count = 0
        for G in gen.enumerate_small(kind, n):
            res = verify.exact_pi_f(G, max_colours)
            count += 1
            if res is None:
                worst = None
                break
            worst = max(worst, res)
        print(
            json.dumps(
                {"kind": kind, "n": n, "instances": count,
                 "max_exact": worst if worst is not None else f"exceeds {max_colours}"},
                sort_keys=True,
            )
        )
    sys.exit(EXIT_OK)


def _svg_layout(G):
    import math

    pos = {}
    if embed.is_outerplane(G):
        order = []
        seen = set()
        for cid in range(len(G.components)):
            f = G.outer_face_of_component(cid)
            walk = G.face_vertices(f) if f is not None else G.components[cid]
            for v in walk:
                if v not in seen:
                    seen.add(v)
                    order.append(v)
        for i, v in enumerate(order):
            a = 2 * math.pi * i / max(1, len(order))
            pos[v] = (250 + 200 * math.cos(a), 250 + 200 * math.sin(a))
    else:
        layers = colour.peeling_layering(G).layer_sets()
        depth = len(layers)
        for i, layer in enumerate(layers):
            r = 200 * (depth - i) / depth if depth else 200
            for j, v in enumerate(layer):
                a = 2 * math.pi * j / max(1, len(layer)) + 0.3 * i
                pos[v] = (250 + r * math.cos(a), 250 + r * math.sin(a))
    return pos


def _write_svg(G, colours, path):
    pos = _svg_layout(G)
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="500" height="500">']
    for u, v in G.edges:
        if u == v:
            continue
        x1, y1 = pos[u]
        x2, y2 = pos[v]
        parts.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" stroke="#999"/>'
        )
    for v in range(G.n):
        x, y = pos[v]
        fill = _PALETTE[(colours[v] - 1) % len(_PALETTE)] if colours else "#ccc"
        parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="8" fill="{fill}" stroke="#000"/>')
        parts.append(f'<text x="{x + 9:.1f}" y="{y - 9:.1f}" font-size="9">{v}</text>')
    parts.append("</svg>")
    _write(path, "\n".join(parts) + "\n")


def _write_dot(G, colours, path):
    lines = ["graph G {", "  node [style=filled];"]
    for v in range(G.n):
        fill = _PALETTE[(colours[v] - 1) % len(_PALETTE)] if colours else "#cccccc"
        label = f"{v}" + (f" c{colours[v]}" if colours else "")
        lines.append(f'  {v} [label="{label}", fillcolor="{fill}"];')
    for u, v in G.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    _write(path, "\n".join(lines) + "\n")


@main.command("export")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--colouring", "colouring_path", type=click.Path(exists=True), default=None)
@click.option("--svg", "svg_path", type=click.Path(), default=None)
@click.option("--dot", "dot_path", type=click.Path(), default=None)
def cmd_export(input_path, colouring_path, svg_path, dot_path):
    """Render a (coloured) graph to SVG (schematic layout) and/or DOT."""
    G, _ = _read_graph(input_path)
    colours = list(_read_colouring(colouring_path, G.n).colours) if colouring_path else None
    if not svg_path and not dot_path:
        _diag(error="parse", detail="nothing to export: pass --svg and/or --dot")
        sys.exit(EXIT_PARSE)
    if svg_path:
        _write_svg(G, colours, svg_path)
    if dot_path:
        _write_dot(G, colours, dot_path)
    sys.exit(EXIT_OK)


def _write_scaling_plot(report, path):
    """Log-log scatter of size against runtime with the fitted slope line."""
    import math

    rows = [r for r in report["rows"] if r["colour_verify_seconds"] > 0]
    xs = [math.log10(r["n"]) for r in rows]
    ys = [math.log10(r["colour_verify_seconds"]) for r in rows]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    sx = lambda x: 60 + 380 * (x - x0) / max(x1 - x0, 1e-9)
    sy = lambda y: 340 - 300 * (y - y0) / max(y1 - y0, 1e-9)
    pts = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys))
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="480" height="400">',
        f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="2"/>',
    ]
    for x, y, r in zip(xs, ys, rows):
        parts.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="4" fill="#d62728"/>')
        parts.append(
            f'<text x="{sx(x) + 6:.1f}" y="{sy(y) - 6:.1f}" font-size="10">n={r["n"]}</text>'
        )
    parts.append(
        f'<text x="60" y="380" font-size="12">log-log colour+verify time, '
        f'fitted exponent {report["fitted_exponent"]}</text>'
    )
    parts.append("</svg>")
    _write(path, "\n".join(parts) + "\n")


@main.command("bench")
@click.option("--corpus", default="1000,3200,10000,32000,100000", show_default=True,
              help="comma-separated instance sizes")
@click.option("--kind", type=click.Choice(gen.KINDS), default="outerplane", show_default=True)
@click.option("--repeat", type=int, default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.option("--plot", "plot_path", type=click.Path(), default=None,
              help="write a log-log scaling plot (SVG)")
def cmd_bench(corpus, kind, repeat, seed, out_path, plot_path):
    """Time colour+verify over a seeded corpus and fit the scaling exponent."""
    if repeat < 1:  # checked before anything is timed
        _diag(error="parse", option="--repeat", detail=f"repeat must be at least 1, not {repeat}")
        sys.exit(EXIT_PARSE)
    try:
        sizes = [int(s) for s in corpus.replace(";", ",").split(",") if s.strip()]
        for n in sizes:  # a size the generator rejects fails here, before any timing
            gen.GenSpec(kind, n, seed)
    except ValueError as exc:
        _diag(error="parse", detail=f"bad corpus spec {corpus!r}: {exc}")
        sys.exit(EXIT_PARSE)
    if plot_path and len(set(sizes)) < 2:
        _diag(error="parse", option="--plot", detail="a scaling plot needs at least two distinct sizes")
        sys.exit(EXIT_PARSE)
    for path in filter(None, (out_path, plot_path)):  # an unwritable path fails before any timing
        _write(path, "")
    report = bench_mod.run_bench(sizes, kind=kind, seed=seed, repeat=repeat)
    doc = json.dumps(report, sort_keys=True, indent=2)
    if out_path:
        _write(out_path, doc + "\n")
    if plot_path:
        _write_scaling_plot(report, plot_path)
    print(doc)
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
