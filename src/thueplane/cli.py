"""Command-line surface.

Every command exits 0 on success; 1 only when ``verify`` finds a
counterexample; 2 when an input does not parse, an option value is out of
range or a file cannot be read or written; 3 when ``colour``'s input is not
in the class its mode needs; and 4 on any other error, a bug.  Each failure
is one JSON line on stderr, never a traceback; only a usage error prints
argparse's usage instead (exit 2).  Results go to stdout or the requested
output files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from thueplane import colour, embed, gen, verify
from thueplane.embed import ClassMismatchError, EmbeddingError

EXIT_COUNTEREXAMPLE = 1
EXIT_PARSE = 2
EXIT_CLASS = 3
EXIT_INTERNAL = 4

#: the pipeline each ``colour --mode`` runs
_MODES = {
    "outerplane": colour.colour_outerplane,
    "plane": colour.colour_plane,
    "cactus": colour.colour_cactus_even,
    "single-block": colour.colour_outerplane_single_block,
}

_PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#aec7e8", "#ffbb78",
    "#98df8a", "#ff9896", "#c5b0d5", "#c49c94", "#f7b6d2", "#c7c7c7",
    "#dbdb8d", "#9edae5", "#393b79", "#ad494a",
]


def _fail(code, **fields):
    """Write one JSON diagnostic line to stderr and exit with ``code``."""
    print(json.dumps(fields, sort_keys=True), file=sys.stderr)
    sys.exit(code)


def _write(path, text):
    """Write ``text`` to ``path``, or exit 2 with an ``output`` diagnostic.
    Empty ``text`` only checks that ``path`` can be written (append mode)."""
    try:
        with open(path, "w" if text else "a", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        _fail(EXIT_PARSE, error="output", path=str(path), detail=str(exc))


def _read_graph(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return embed.loads_graph(raw.decode("utf-8")), hashlib.sha256(raw).hexdigest()
    except (OSError, UnicodeDecodeError, EmbeddingError) as exc:
        _fail(EXIT_PARSE, error="parse", path=str(path), detail=str(exc))


def _read_colouring(path, n):
    """The colouring at ``path``, which must colour all n vertices and no more."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            col = colour.colouring_from_json(json.load(fh))
        if len(col.colours) != n:
            raise ValueError(f"{len(col.colours)} colours for a graph on {n} vertices")
        return col
    except (OSError, ValueError, RecursionError) as exc:
        _fail(EXIT_PARSE, error="parse", path=str(path), detail=str(exc))


def cmd_colour(input_path, mode, output_path):
    """Colour a graph facially nonrepetitively and verify the result."""
    t_parse0 = time.perf_counter()
    G, digest = _read_graph(input_path)
    t_parse = time.perf_counter() - t_parse0
    t0 = time.perf_counter()
    try:
        result = _MODES[mode](G)
    except ClassMismatchError as exc:
        _fail(EXIT_CLASS, error="class-mismatch", mode=mode, detail=str(exc))
    t_colour = time.perf_counter() - t0  # includes the pipeline's certificate

    if output_path:
        _write(output_path, result.dumps() + "\n")
    report = {
        "input_digest": digest,
        "mode": mode,
        "n": G.n,
        "edges": len(G.origin) >> 1,
        "colours_used": result.distinct_colours(),
        "palette_max": result.palette_max,
        "seconds": round(t_parse + t_colour, 6),
        "phases": {"parse": round(t_parse, 6), "colour": round(t_colour, 6)},
    }
    print(json.dumps(report, sort_keys=True))


def cmd_verify(input_path, colouring_path):
    """Check a colouring against every facial path of the graph."""
    G, digest = _read_graph(input_path)
    col = _read_colouring(colouring_path, G.n)
    bad = verify.verify_facial_nonrepetitive(G, col.colours)
    if bad is None:
        print(json.dumps({"input_digest": digest, "ok": True}, sort_keys=True))
        return
    print(
        json.dumps(
            {"input_digest": digest, "ok": False,
             "counterexample": verify.counterexample_to_json(col.colours, bad)},
            sort_keys=True,
        )
    )
    sys.exit(EXIT_COUNTEREXAMPLE)


def cmd_gen(kind, n, seed, chord_p, attach_p, out_path):
    """Generate a seeded instance of a graph class."""
    try:
        G = gen.generate(gen.GenSpec(kind, n, seed, chord_p, attach_p))
    except ValueError as exc:
        _fail(EXIT_PARSE, error="parse", detail=str(exc))
    doc = embed.dumps_graph(G)
    if out_path:
        _write(out_path, doc + "\n")
    else:
        print(doc)


def cmd_search(kind, max_n, max_colours):
    """Exact facial chromatic numbers over exhaustively enumerated tiny
    instances (one JSON line per size)."""
    lo = gen._MIN_N.get(kind, 1)
    if not lo <= max_n <= gen.ENUM_GUARD:  # checked before any size is printed
        _fail(EXIT_PARSE, error="parse", option="--max-n", detail=f"{kind} enumeration runs over {lo} <= n <= {gen.ENUM_GUARD}")
    if max_colours < 1:
        _fail(EXIT_PARSE, error="parse", option="--max-colours", detail=f"max colours must be at least 1, not {max_colours}")
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
    for u, v in zip(G.origin[::2], G.origin[1::2]):
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
    for u, v in zip(G.origin[::2], G.origin[1::2]):
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    _write(path, "\n".join(lines) + "\n")


def cmd_export(input_path, colouring_path, svg_path, dot_path):
    """Render a (coloured) graph to SVG (schematic layout) and/or DOT."""
    G, _ = _read_graph(input_path)
    colours = list(_read_colouring(colouring_path, G.n).colours) if colouring_path else None
    if not svg_path and not dot_path:
        _fail(EXIT_PARSE, error="parse", detail="nothing to export: pass --svg and/or --dot")
    if svg_path:
        _write_svg(G, colours, svg_path)
    if dot_path:
        _write_dot(G, colours, dot_path)


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


def cmd_bench(corpus, kind, repeat, seed, out_path, plot_path):
    """Time colour+verify over a seeded corpus and fit the scaling exponent."""
    if repeat < 1:  # checked before anything is timed
        _fail(EXIT_PARSE, error="parse", option="--repeat", detail=f"repeat must be at least 1, not {repeat}")
    try:
        sizes = [int(s) for s in corpus.replace(";", ",").split(",") if s.strip()]
        if not sizes:
            raise ValueError("no sizes")
        for n in sizes:  # a size the generator rejects fails here, before any timing
            gen.GenSpec(kind, n, seed)
    except ValueError as exc:
        _fail(EXIT_PARSE, error="parse", detail=f"bad corpus spec {corpus!r}: {exc}")
    if plot_path and len(set(sizes)) < 2:
        _fail(EXIT_PARSE, error="parse", option="--plot", detail="a scaling plot needs at least two distinct sizes")
    for path in filter(None, (out_path, plot_path)):  # an unwritable path fails before any timing
        _write(path, "")
    from thueplane import bench  # here, so that no other command loads it and statistics

    report = bench.run_bench(sizes, kind=kind, seed=seed, repeat=repeat)
    doc = json.dumps(report, sort_keys=True, indent=2)
    if out_path:
        _write(out_path, doc + "\n")
    if plot_path:
        _write_scaling_plot(report, plot_path)
    print(doc)


_DEFAULT = "(default: %(default)s)"


def main(argv=None):
    """Facial nonrepetitive colouring of embedded graphs."""
    parser = argparse.ArgumentParser(prog="thueplane", description=main.__doc__, allow_abbrev=False, add_help=False)
    # --help alone, and no abbreviations: an option has one spelling
    parser.add_argument("--help", action="help", help="show this message and exit")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name, run):
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__, allow_abbrev=False, add_help=False)
        sub.add_argument("--help", action="help", help="show this message and exit")
        sub.set_defaults(run=run)
        return sub.add_argument

    arg = command("colour", cmd_colour)
    arg("--input", dest="input_path", required=True)
    arg("--mode", choices=_MODES, default="outerplane", help=_DEFAULT)
    arg("--output", dest="output_path")
    arg = command("verify", cmd_verify)
    arg("--input", dest="input_path", required=True)
    arg("--colouring", dest="colouring_path", required=True)
    arg = command("gen", cmd_gen)
    arg("--kind", choices=gen.KINDS, required=True)
    arg("--n", type=int, required=True)
    arg("--seed", type=int, default=0, help=_DEFAULT)
    arg("--chord-p", type=float, default=0.5, help=_DEFAULT)
    arg("--attach-p", type=float, default=0.35, help=_DEFAULT)
    arg("--out", dest="out_path")
    arg = command("search", cmd_search)
    arg("--kind", choices=gen.ENUM_KINDS, required=True)
    arg("--max-n", type=int, default=8, help=_DEFAULT)
    arg("--max-colours", type=int, default=4, help=_DEFAULT)
    arg = command("export", cmd_export)
    arg("--input", dest="input_path", required=True)
    arg("--colouring", dest="colouring_path")
    arg("--svg", dest="svg_path")
    arg("--dot", dest="dot_path")
    arg = command("bench", cmd_bench)
    arg("--corpus", default="1000,3200,10000,32000,100000", help="comma-separated instance sizes " + _DEFAULT)
    arg("--kind", choices=gen.KINDS, default="outerplane", help=_DEFAULT)
    arg("--repeat", type=int, default=1, help=_DEFAULT)
    arg("--seed", type=int, default=0, help=_DEFAULT)
    arg("--out", dest="out_path")
    arg("--plot", dest="plot_path", help="write a log-log scaling plot (SVG)")
    args = vars(parser.parse_args(argv))
    try:
        args.pop("run")(**args)  # a command that returns has succeeded: exit 0
    except Exception as exc:  # any error a command does not report itself is a bug
        text = str(exc)  # led by the type name: an exception may have no message
        detail = f"{type(exc).__name__}: {text}" if text else type(exc).__name__
        where = {"mode": args["mode"]} if "mode" in args else {}
        _fail(EXIT_INTERNAL, error="internal-verification-failure", detail=detail, **where)


if __name__ == "__main__":
    main()
