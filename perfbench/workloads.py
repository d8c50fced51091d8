"""Seeded inputs for the four benchmark workloads.

Every input is a pure function of the workload seed.  Sizes are fixed per
workload and the seed varies only structure (generator seeds, spoke sets,
vertex labels, plant positions), so runs on different seeds do the same
amount of work and their timings are comparable.

Items come in two shapes:

* ``ColourItem``: one serialised graph document and the pipeline that colours
  it.  Processing an item is ``embed.loads_graph`` followed by the pipeline.
* ``VerifyItem``: a graph, a colouring and the verdict a correct verifier must
  reach.  Processing an item is one ``verify_facial_nonrepetitive`` call.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from thueplane import colour, embed, gen

WORKLOADS = ("outerplane-large", "plane-nested", "small-mixed", "verify-reject")

#: pipeline -> (entry point in ``thueplane.colour``, palette bound)
PIPELINES = {
    "outerplane": ("colour_outerplane", 11),
    "plane": ("colour_plane", 22),
    "cactus_even": ("colour_cactus_even", 7),
    "single_block": ("colour_outerplane_single_block", 7),
}

#: Sizes per workload.  Tests pass smaller ones; the benchmark uses these.
DEFAULT_SIZES = {
    # large general outerplane graphs
    "outerplane-large": {"count": 6, "n": 10000},
    # (s, k): k concentric s-gons, i.e. k peeling layers of s vertices
    "plane-nested": {"shapes": [(3, 120), (4, 100), (3, 150), (4, 120), (5, 100), (4, 140)]},
    # documents per pipeline, vertex counts spread over [lo, hi]
    "small-mixed": {"per_pipeline": 75, "lo": 10, "hi": 100},
    # chordless biconnected graphs (cycles) with plants along their long
    # face, plus general outerplane graphs whose certified colourings are
    # accepted; over 100 items, so the tail latency can be a p90
    "verify-reject": {
        "cycles": [200, 300, 400, 500],
        "cycle_plants": 32,
        "outerplane": [2000, 2000, 2000, 2000],
    },
}

#: half-lengths of planted squares on long faces
PLANT_HALVES = (1, 2, 3, 5, 8, 13, 21, 34)


@dataclass(frozen=True)
class ColourItem:
    pipeline: str
    doc: str
    n: int


@dataclass(frozen=True)
class VerifyItem:
    graph: object  # thueplane.embed.EmbeddedGraph
    colours: tuple
    n: int
    expect_reject: bool


def _spec_seed(seed, index):
    return seed * 1000 + index


# -- nested polygons -----------------------------------------------------------


@dataclass(frozen=True)
class NestedPolygons:
    s: int
    k: int
    n: int
    edges: tuple
    rotations: tuple
    outer_dart: int


def nested_polygons(s, k, rng):
    """k concentric s-gons, ring i drawn inside ring i - 1, consecutive rings
    joined by a nonempty seeded set of radial spokes.  Vertex ids, edge order
    and edge orientation are shuffled by ``rng``.

    Vertex j of ring i sits at angle 2*pi*j/s.  Going counter-clockwise round
    it from the outward direction, its neighbours are: the outer spoke end,
    vertex j + 1 of its ring, the inner spoke end, vertex j - 1 of its ring.
    The face left of the dart from ring-0 vertex 0 to ring-0 vertex 1 is the
    unbounded face, so that dart designates the outer face.
    """
    if s < 3 or k < 1:
        raise ValueError("nested polygons need s >= 3 and k >= 1")
    n = s * k
    label = list(range(n))
    rng.shuffle(label)

    def vid(i, j):
        return label[i * s + j % s]

    logical = []  # edges as ((ring, position), (ring, position))
    for i in range(k):
        for j in range(s):
            logical.append(((i, j), (i, j + 1)))
    for i in range(k - 1):
        spokes = [j for j in range(s) if rng.random() < 0.5] or [rng.randrange(s)]
        for j in spokes:
            logical.append(((i, j), (i + 1, j)))
    rng.shuffle(logical)

    edges = []
    # slot[(i, j)] = {direction: dart}; directions 0 out, 1 next, 2 in, 3 prev
    slot = {}
    outer_dart = None
    for e, (a, b) in enumerate(logical):
        if rng.random() < 0.5:
            a, b = b, a
        edges.append((vid(*a), vid(*b)))
        for end, other, dart in ((a, b, 2 * e), (b, a, 2 * e + 1)):
            i, j = end
            i2, j2 = other
            if i2 == i - 1:
                direction = 0
            elif i2 == i + 1:
                direction = 2
            elif j2 % s == (j + 1) % s:
                direction = 1
            else:
                direction = 3
            slot.setdefault((i, j % s), {})[direction] = dart
            if end == (0, 0) and direction == 1:
                outer_dart = dart

    rotations = [None] * n
    for (i, j), darts in slot.items():
        ccw = [darts[d] for d in range(4) if d in darts]
        r = rng.randrange(len(ccw))
        rotations[vid(i, j)] = ccw[r:] + ccw[:r]
    return NestedPolygons(s, k, n, tuple(edges), tuple(rotations), outer_dart)


# -- planted squares -------------------------------------------------------------


def plant_square(G, colours, face, start, half):
    """Copy of ``colours`` in which the facial path of 2*half vertices from
    position ``start`` of the face's walk reads XX: the second half takes
    the colours of the first.  The window must have distinct vertices."""
    verts = G.face_vertices(face)
    L = len(verts)
    window = [verts[(start + t) % L] for t in range(2 * half)]
    if 2 * half > L or len(set(window)) != len(window):
        raise ValueError("planted window is not a facial path")
    out = list(colours)
    for t in range(half):
        out[window[half + t]] = out[window[t]]
    return tuple(out)


# -- builders ------------------------------------------------------------------


def _outerplane_large(seed, sizes):
    items = []
    for i in range(sizes["count"]):
        G = gen.generate(gen.GenSpec("outerplane", sizes["n"], _spec_seed(seed, i)))
        items.append(ColourItem("outerplane", embed.dumps_graph(G), G.n))
    return items


def _plane_nested(seed, sizes):
    rng = random.Random(f"plane-nested:{seed}")
    items = []
    for s, k in sizes["shapes"]:
        P = nested_polygons(s, k, rng)
        G = embed.build(P.n, P.edges, P.rotations, P.outer_dart)
        items.append(ColourItem("plane", embed.dumps_graph(G), G.n))
    check_nested(items, sizes["shapes"])
    return items


_SMALL_KINDS = (
    ("cactus_even", "cactus_even"),
    ("outerplane_biconnected", "single_block"),
    ("outerplane", "outerplane"),
    ("plane", "plane"),
)


def _small_mixed(seed, sizes):
    rng = random.Random(f"small-mixed:{seed}")
    per, lo, hi = sizes["per_pipeline"], sizes["lo"], sizes["hi"]
    items = []
    for kind, pipeline in _SMALL_KINDS:
        for i in range(per):
            # stratified sizes: the same spread of orders on every seed
            n = lo + int((i + rng.random()) * (hi - lo + 1) / per)
            G = gen.generate(gen.GenSpec(kind, n, _spec_seed(seed, len(items))))
            items.append(ColourItem(pipeline, embed.dumps_graph(G), G.n))
    rng.shuffle(items)
    return items


def _verify_reject(seed, sizes):
    rng = random.Random(f"verify-reject:{seed}")
    items = []
    for i, n in enumerate(sizes["cycles"]):
        # chordless, so a plant's search cost is set by its stratified position
        spec = gen.GenSpec("outerplane_biconnected", n, _spec_seed(seed, i), chord_probability=0.0)
        G = gen.generate(spec)
        cols = colour.colour_outerplane_single_block(G).colours
        items.append(VerifyItem(G, cols, G.n, False))
        face = G.outer_face
        L = len(G.faces[face])
        plants = sizes["cycle_plants"]
        for p in range(plants):
            # stratified positions along the long outer face
            start = int((p + rng.random()) * L / plants) % L
            half = rng.choice([h for h in PLANT_HALVES if 2 * h <= L])
            items.append(VerifyItem(G, plant_square(G, cols, face, start, half), G.n, True))
    # Plants stay on cycles: in a general outerplane graph every vertex is
    # also on the outer walk, so whether verify meets a plant there first,
    # and pays a long search, would vary from seed to seed.
    for i, n in enumerate(sizes["outerplane"]):
        G = gen.generate(gen.GenSpec("outerplane", n, _spec_seed(seed, 100 + i)))
        items.append(VerifyItem(G, colour.colour_outerplane(G).colours, G.n, False))
    rng.shuffle(items)
    return items


_BUILDERS = {
    "outerplane-large": _outerplane_large,
    "plane-nested": _plane_nested,
    "small-mixed": _small_mixed,
    "verify-reject": _verify_reject,
}


def build_inputs(workload, seed, sizes=None):
    """The workload's items for ``seed``; ``sizes`` defaults to DEFAULT_SIZES."""
    return _BUILDERS[workload](seed, sizes or DEFAULT_SIZES[workload])


def check_nested(items, shapes):
    """Builder self-check, part of set-up.  The builder already went through
    ``embed.build``; here each nested-polygon graph must have an s-gon as
    outer face and peel into exactly k layers of s vertices."""
    for (s, k), item in zip(shapes, items):
        G = embed.loads_graph(item.doc)
        layers = colour.peeling_layering(G).layer_sets()
        if len(G.face_vertices(G.outer_face)) != s or len(layers) != k:
            raise ValueError(f"nested {s}-gons: expected {k} peeling layers, got {len(layers)}")
        if any(len(layer) != s for layer in layers):
            raise ValueError(f"nested {s}-gons: a peeling layer is not one ring")


def input_digest(items):
    """SHA-256 over every input byte the program receives."""
    h = hashlib.sha256()
    for item in items:
        if isinstance(item, ColourItem):
            h.update(f"{item.pipeline}\n{item.doc}\n".encode())
        else:
            doc = {"graph": embed.graph_to_json(item.graph), "colours": list(item.colours)}
            h.update(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())
            h.update(b"\n")
    return h.hexdigest()
