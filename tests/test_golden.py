"""Golden digests of the public pipelines and the embedded-subgraph builders
on a seeded corpus.  The digests pin the bytes: a refactor of the pipelines
or of the subgraph surgery must leave every one of them unchanged."""

import hashlib
import json
import random

from thueplane import blocking, colour, embed, gen
from thueplane.embed import ClassMismatchError

from conftest import decorate_multigraph, hexagon_with_inner_star
from support import (
    _restrict,
    block_edges,
    edge_pairs,
    induced_embedded_subgraph,
    layer_graphs,
    layers_graph,
    simplify_by_restriction,
)
from test_blocking import biconnected_corpus

PIPELINES = (
    colour.colour_outerplane,
    colour.colour_plane,
    colour.colour_cactus_even,
    colour.colour_outerplane_single_block,
)


def golden_corpus():
    """Seeded graphs of every outerplane kind, trees, plane graphs and nested
    rings, plus multigraph copies (parallel lenses and empty loops) of a
    few of them."""
    out = []
    for kind in ("outerplane", "outerplane_bridgeless", "outerplane_biconnected", "cactus_even", "tree"):
        out += [gen.generate(gen.GenSpec(kind, 3 + (seed * 11) % 58, seed)) for seed in range(12)]
    out += [gen.generate(gen.GenSpec("plane", 3 + (seed * 7) % 40, seed)) for seed in range(8)]
    out += [gen.generate(gen.GenSpec("nested", n, seed)) for n in (9, 30, 80) for seed in range(2)]
    out += [
        decorate_multigraph(out[i], seed=i, parallels=1 + i % 4, loops=i % 3)
        for i in range(0, len(out), 5)
    ]
    return out


def _line(h, doc):
    h.update(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode() + b"\n")


# SHA-256 digests recorded before the pipelines were reshaped to certify
# once at the public boundary and before the subgraph builders were merged.
# PIPELINE_DIGEST was re-pinned when colouring documents lost their
# "verified" key: the earlier code's documents with that key stripped.
PIPELINE_DIGEST = "43842c26362c3b2bd9b6b69487e683a9962ff29d9dc9c432bd0a01951363d2d0"
SUBGRAPH_DIGEST = "b78dd4fc33d3bb3711b92519029f5a16ea112797aedaed9fbf765bf59e3217ac"
# SHA-256 digest recorded before the blocking cores moved from per-block
# views to per-face arrays built once per graph.
BLOCKING_DIGEST = "b12ea80bea9b39db8e7021d3e95f5578506bd40a188b4e624adc2f3522b75c8f"
# SHA-256 digest recorded while blocking graphs still built their rotation
# lists walk step by walk step: it pins the embedding (each dart's successor
# in its rotation), not where a rotation list starts.
BLOCKING_GRAPH_DIGEST = "0e4577c62d9af4d2988508f1a8a9c97dfa115343bab17c100e0c27c2e5ddcd13"


def test_pipeline_colourings_golden_digest():
    h = hashlib.sha256()
    for G in golden_corpus():
        for pipeline in PIPELINES:
            try:
                _line(h, pipeline(G).dumps())
            except ClassMismatchError:
                _line(h, "class-mismatch")
    assert h.hexdigest() == PIPELINE_DIGEST


def test_simplify_and_induced_subgraph_golden_digest():
    h = hashlib.sha256()
    for i, G in enumerate(golden_corpus()):
        if embed.is_outerplane(G):
            Gs = embed.simplify(G)
            emap = simplify_by_restriction(G)[1]  # simplify returns no edge map
            _line(h, {"simple": embed.graph_to_json(Gs), "emap": list(emap)})
        rnd = random.Random(i)
        for S in (range(0, G.n, 2), [v for v in range(G.n) if rnd.random() < 0.6]):
            sub, vmap = induced_embedded_subgraph(G, S)
            _line(h, {"induced": embed.graph_to_json(sub), "vmap": list(vmap)})
    assert h.hexdigest() == SUBGRAPH_DIGEST


def test_blocking_sets_golden_digest():
    # large graphs with about a thousand blocks each, a flower (blocks that
    # share one cut vertex), and the layers graphs the plane pipeline feeds
    # to the same stage; then the size-controlled single-block sets
    graphs = [gen.generate(gen.GenSpec("outerplane", 10**4, seed)) for seed in (0, 1)]
    graphs.append(gen.generate(gen.GenSpec("outerplane_bridgeless", 10**4, 0)))
    graphs.append(gen.generate(gen.GenSpec("flower", 2620, 0)))
    for kind in ("nested", "plane"):
        G = gen.generate(gen.GenSpec(kind, 300, 0))
        graphs.append(layers_graph(G))
    h = hashlib.sha256()
    for G in graphs:
        h.update(json.dumps(sorted(blocking._even_blocking_over_blocks(G))).encode() + b"\n")
    for G in biconnected_corpus(400, max_n=45):
        h.update(json.dumps(sorted(blocking.blocking_set_good_size(G))).encode() + b"\n")
    assert h.hexdigest() == BLOCKING_DIGEST


def test_blocking_graph_embedding_golden_digest():
    h = hashlib.sha256()
    for G in golden_corpus():
        if not embed.is_outerplane(G):
            continue
        Gs = embed.simplify(G)
        B = blocking.blocking_set_even(Gs)
        for simple in (False, True):
            bg = blocking._blocking_graph(Gs, B, simple)
            g = bg.graph
            rot_next = [0] * len(g.origin)
            for rot in g.rotations:
                for d, e in zip(rot, rot[1:] + rot[:1]):
                    rot_next[d] = e
            _line(h, [g.n, edge_pairs(g), rot_next, sorted(g.outer_faces), bg.host_vertex])
    assert h.hexdigest() == BLOCKING_GRAPH_DIGEST


def _passes_boundary(g):
    """``g`` survives the parse-boundary check unchanged."""
    h = embed.graph_from_json(embed.graph_to_json(g))
    assert (h.origin, h.rotations, h.canonical_outer_darts()) == (
        g.origin, g.rotations, g.canonical_outer_darts())


def test_internal_builders_pass_the_boundary_check():
    # EmbeddedGraph trusts its arguments; this is the check it no longer runs
    corpus = golden_corpus() + [gen.generate(gen.GenSpec("cycle", n, 0)) for n in (3, 8, 21)]
    corpus.append(hexagon_with_inner_star())  # corners that keep two added edges
    for G in corpus:
        _passes_boundary(G)
        rnd = random.Random(G.n)
        S = [v for v in range(G.n) if rnd.random() < 0.6]
        _passes_boundary(induced_embedded_subgraph(G, S)[0])
        layer = colour.peeling_layering(G).layer
        H = colour.augment_plus(G)
        _passes_boundary(H)
        for _ids, layer_graph in layer_graphs(H, layer):
            _passes_boundary(layer_graph)
        _passes_boundary(layers_graph(G))
        if not embed.is_outerplane(G):
            continue
        Gs = embed.simplify(G)
        _passes_boundary(Gs)
        for verts, faces, seg in embed._blocks_and_bridges(Gs)[0]:
            _passes_boundary(_restrict(Gs, verts, block_edges(Gs, faces, seg))[0])
        B = blocking.blocking_set_even(Gs)
        _passes_boundary(blocking.blocking_graph(Gs, B).graph)
        _passes_boundary(blocking._blocking_graph(Gs, B, simple=True).graph)
