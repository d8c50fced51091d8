import json

import pytest

from thueplane import blocking, colour, embed, gen, verify
from thueplane.colour import (
    augment_plus,
    colour_cactus_even,
    colour_outerplane,
    colour_outerplane_single_block,
    colour_plane,
    peeling_layering,
)
from thueplane.embed import ClassMismatchError
from thueplane.gen import _Builder

from conftest import decorate_multigraph, fan5, nested_triangles, path_graph, polygon, wheel
from support import interleave_check_decomposition


def flower_cactus(petals=5):
    """Centre 0 with ``petals`` squares glued on it; every square's deepest
    vertex has degree 2, so the deepest-vertex set has exactly ``petals``
    members and the exceptional-size patch kicks in at 5 and 9."""
    b = _Builder()
    b.new_vertex()
    for _ in range(petals):
        b.add_polygon_block(0, 4, [])
    return b.finish_outerplane()


# -- even cacti ---------------------------------------------------------------


def test_cactus_tree_uses_at_most_four():
    t = gen.generate(gen.GenSpec("tree", 14, 2))
    c = colour_cactus_even(t)
    assert c.distinct_colours() <= 4
    assert verify.verify_facial_nonrepetitive(t, c.colours) is None


def test_cactus_single_even_cycle():
    c = colour_cactus_even(polygon(8))
    assert c.distinct_colours() <= 4


def test_cactus_rejects_odd_cycle():
    with pytest.raises(ClassMismatchError):
        colour_cactus_even(polygon(5))
    with pytest.raises(ClassMismatchError):
        colour_cactus_even(fan5())  # chords: not a cactus


def test_flower_patch_engages():
    G = flower_cactus(5)
    Gs, _ = embed.simplify(G)
    colours = [None] * Gs.n
    H, lam = colour._colour_cactus_component(Gs, Gs.components[0], 0, colours)
    assert len(H) == 6  # five deepest vertices plus the patched neighbour
    c = colour_cactus_even(G)
    assert c.distinct_colours() <= 7


def test_flower_patch_nine():
    G = flower_cactus(9)
    Gs, _ = embed.simplify(G)
    colours = [None] * Gs.n
    H, _ = colour._colour_cactus_component(Gs, Gs.components[0], 0, colours)
    assert len(H) == 11
    assert colour_cactus_even(G).distinct_colours() <= 7


def test_cactus_corpus():
    for seed in range(120):
        n = 1 + (seed * 7) % 50
        G = gen.generate(gen.GenSpec("cactus_even", n, seed))
        c = colour_cactus_even(G)
        assert c.distinct_colours() <= 7


def test_cactus_accepts_multigraph():
    base = gen.generate(gen.GenSpec("cactus_even", 15, 3))
    G = decorate_multigraph(base, seed=1, parallels=2, loops=2)
    c = colour_cactus_even(G)
    assert c.distinct_colours() <= 7
    assert verify.verify_facial_nonrepetitive(G, c.colours) is None


def test_monotone_level_runs_outside_deepest_set():
    # outer facial paths avoiding the deepest-vertex set have level
    # sequences that only descend, only ascend, or descend then ascend
    for seed in range(40):
        n = 4 + (seed * 5) % 30
        G = gen.generate(gen.GenSpec("cactus_even", n, seed))
        Gs, _ = embed.simplify(G)
        for cid, comp in enumerate(Gs.components):
            colours = [None] * Gs.n
            H, lam = colour._colour_cactus_component(Gs, comp, cid, colours)
            if not lam:
                continue
            f = Gs.outer_face_of_component(cid)
            for p in verify.facial_paths(Gs):
                if p.face != f or set(p.vertices) & H:
                    continue
                if not set(p.vertices) <= set(comp):
                    continue
                seq = [lam[x] for x in p.vertices]
                # strictly decreasing, then strictly increasing
                assert all(seq[i + 1] != seq[i] for i in range(len(seq) - 1)), seq
                rises = [i for i in range(len(seq) - 1) if seq[i + 1] > seq[i]]
                falls = [i for i in range(len(seq) - 1) if seq[i + 1] < seq[i]]
                if rises and falls:
                    assert max(falls) < min(rises), seq


# -- outerplane ------------------------------------------------------------------


def test_triangle_three_colours(triangle):
    c = colour_outerplane(triangle)
    assert c.distinct_colours() == 3
    assert c.palette_max == 11


def test_tree_at_most_four():
    t = gen.generate(gen.GenSpec("tree", 20, 7))
    assert colour_outerplane(t).distinct_colours() <= 4


def test_outerplane_corpus():
    for seed in range(200):
        n = 1 + (seed * 11) % 60
        G = gen.generate(gen.GenSpec("outerplane", n, seed))
        c = colour_outerplane(G)
        assert c.distinct_colours() <= 11
        assert c.verified


def test_outerplane_rejects_plane_input():
    with pytest.raises(ClassMismatchError):
        colour_outerplane(wheel(5))


def test_outerplane_multigraph_lift():
    base = gen.generate(gen.GenSpec("outerplane", 18, 9))
    G = decorate_multigraph(base, seed=2, parallels=3, loops=2)
    c = colour_outerplane(G)
    assert c.distinct_colours() <= 11
    assert verify.verify_facial_nonrepetitive(G, c.colours) is None


def test_deterministic_bytes():
    G = gen.generate(gen.GenSpec("outerplane", 33, 4))
    doc = embed.dumps_graph(G)
    a = colour_outerplane(embed.loads_graph(doc)).dumps()
    b = colour_outerplane(embed.loads_graph(doc)).dumps()
    assert a == b
    parsed = json.loads(a)
    assert parsed["verified"] is True and parsed["palette_max"] == 11


# -- single block ------------------------------------------------------------------


def test_single_block_tree():
    t = gen.generate(gen.GenSpec("tree", 10, 3))
    assert colour_outerplane_single_block(t).distinct_colours() <= 4


def test_single_block_c17():
    c = colour_outerplane_single_block(polygon(17))
    assert c.distinct_colours() <= 7


def test_single_block_fan():
    # fan on 8 vertices: polygon with apex chords
    G = polygon(8, [(0, 2), (0, 3), (0, 4), (0, 5), (0, 6)])
    c = colour_outerplane_single_block(G)
    assert c.distinct_colours() <= 7


def test_single_block_with_hanging_trees():
    b = _Builder()
    b.new_vertex()
    b.add_polygon_block(0, 9, [(0, 2), (4, 6)])
    for anchor in (2, 5, 5):
        v = b.new_vertex()
        b.add_edge(anchor, v)
    G = b.finish_outerplane()
    c = colour_outerplane_single_block(G)
    assert c.distinct_colours() <= 7


def test_single_block_rejects_two_blocks():
    from conftest import two_triangles_shared_vertex

    with pytest.raises(ClassMismatchError):
        colour_outerplane_single_block(two_triangles_shared_vertex())


def test_single_block_corpus():
    for seed in range(120):
        n = 3 + (seed * 7) % 40
        G = gen.generate(gen.GenSpec("outerplane_biconnected", n, seed))
        assert colour_outerplane_single_block(G).distinct_colours() <= 7


# -- peeling and augmentation ---------------------------------------------------------


def test_peeling_outerplane_single_layer():
    G = gen.generate(gen.GenSpec("outerplane", 25, 1))
    assert set(peeling_layering(G).layer) == {0}


def test_peeling_wheel():
    lay = peeling_layering(wheel(5)).layer
    assert lay == (0, 0, 0, 0, 0, 1)


def test_peeling_nested_triangles():
    # triangle inside a triangle, joined by a spoke
    G = gen.generate(gen.GenSpec("plane", 7, 2))
    lay = peeling_layering(G).layer
    assert max(lay) >= 0  # layers exist and partition
    assert sorted(set(lay)) == list(range(max(lay) + 1))


def test_augment_outerplane_adds_parallels_only():
    G = gen.generate(gen.GenSpec("outerplane_biconnected", 8, 3))
    Gp = augment_plus(G)
    inner_walk_len = sum(len(G.faces[f]) for f in G.inner_faces())
    assert len(Gp.edges) == len(G.edges) + inner_walk_len
    assert peeling_layering(Gp).layer == peeling_layering(G).layer
    pairs = {}
    for u, v in Gp.edges:
        pairs[(min(u, v), max(u, v))] = pairs.get((min(u, v), max(u, v)), 0) + 1
    # every added edge duplicates an existing inner-face edge
    for (u, v), k in pairs.items():
        if k > 1:
            assert (u, v) in {(min(a, b), max(a, b)) for a, b in G.edges}


def test_augment_wheel_duplicates_rim():
    # each rim-rim-hub triangle leaves a two-element rim sequence, whose two
    # cyclic pairs both duplicate that rim edge
    W = wheel(5)
    Wp = augment_plus(W)
    rim = {(min(u, v), max(u, v)) for u, v in W.edges[:5]}
    added = list(Wp.edges[len(W.edges):])
    assert len(added) == 10
    assert {(min(u, v), max(u, v)) for u, v in added} == rim


def test_augment_layer_subgraphs_outerplane():
    for seed in range(15):
        n = 4 + (seed * 13) % 80
        G = gen.generate(gen.GenSpec("plane", n, seed))
        Gp = augment_plus(G)
        for _ids, layer_graph in colour.layer_graphs(Gp, peeling_layering(Gp).layer):
            assert embed.is_outerplane(layer_graph)


# -- plane ------------------------------------------------------------------------------


def test_plane_outerplane_degenerates():
    G = gen.generate(gen.GenSpec("outerplane", 30, 6))
    c = colour_plane(G)
    assert c.distinct_colours() <= 11


def test_plane_wheel():
    c = colour_plane(wheel(5))
    assert c.distinct_colours() <= 12
    assert c.palette_max == 22


def test_plane_corpus():
    for seed in range(60):
        n = 3 + (seed * 17) % 100
        G = gen.generate(gen.GenSpec("plane", n, seed))
        c = colour_plane(G)
        assert c.distinct_colours() <= 22


def test_plane_layer_discipline():
    # facial paths of inner faces touch at most two consecutive layers, and
    # their lower-layer subsequence is a facial path of that layer's graph
    for seed in range(10):
        n = 5 + seed * 6
        G = gen.generate(gen.GenSpec("plane", n, seed))
        Gp = augment_plus(G)
        layer = peeling_layering(G).layer
        rounds = colour.layer_graphs(Gp, layer)
        layer_paths = []
        for lmap, lg in rounds:
            paths = {p.vertices for p in verify.facial_paths(lg)}
            paths |= {tuple(reversed(p)) for p in paths}
            layer_paths.append({tuple(lmap[x] for x in p) for p in paths})
        for p in verify.facial_paths(G):
            if p.is_outer:
                continue
            levels = sorted({layer[x] for x in p.vertices})
            assert len(levels) <= 2
            if len(levels) == 2:
                assert levels[1] == levels[0] + 1
            i = levels[0]
            blocks = interleave_check_decomposition(
                p.vertices, {x for x in p.vertices if layer[x] == i}
            )
            core = tuple(x for blk in blocks[1::2] for x in blk)
            if len(core) >= 2:
                assert core in layer_paths[i], (seed, p.vertices, core)


# -- decomposition helper ------------------------------------------------------------------


def test_interleave_decomposition_shape():
    blocks = interleave_check_decomposition([1, 2, 3, 4, 5], {2, 3, 5})
    assert blocks == [(1,), (2, 3), (4,), (5,), ()]
    assert interleave_check_decomposition([], {1}) == [()]
    assert interleave_check_decomposition([7], set()) == [(7,)]
    blocks = interleave_check_decomposition([9, 1], {9, 1})
    assert blocks == [(), (9, 1), ()]


def test_peeling_nested_triangles_two_layers():
    G = nested_triangles()
    assert sorted(len(f) for f in G.faces) == [3, 3, 8]
    assert peeling_layering(G).layer == (0, 0, 0, 1, 1, 1)
    c = colour_plane(G)
    assert c.distinct_colours() <= 22


def test_outerplane_disconnected_components():
    # triangle plus a separate path share nothing but the colour palette
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)]
    rot = [[0, 5], [2, 1], [4, 3], [6], [7, 8], [9]]
    G = embed.build(6, edges, rot, 0)
    assert len(G.components) == 2
    c = colour_outerplane(G)
    assert c.distinct_colours() <= 11


# -- one certificate per public call ---------------------------------------------------


CERTIFIED_CASES = [
    (colour_outerplane, lambda: gen.generate(gen.GenSpec("outerplane", 40, 3))),
    (colour_outerplane, lambda: decorate_multigraph(gen.generate(gen.GenSpec("outerplane", 30, 5)), seed=1)),
    (colour_plane, lambda: gen.generate(gen.GenSpec("nested", 40, 1))),
    (colour_plane, lambda: wheel(6)),
    (colour_cactus_even, lambda: gen.generate(gen.GenSpec("cactus_even", 30, 2))),
    (colour_outerplane_single_block, lambda: gen.generate(gen.GenSpec("outerplane_biconnected", 14, 4))),
]
CERTIFIED_IDS = ["outerplane", "outerplane-multigraph", "plane-nested", "plane-wheel", "cactus", "single-block"]


@pytest.mark.parametrize("pipeline, make", CERTIFIED_CASES, ids=CERTIFIED_IDS)
def test_each_pipeline_certifies_exactly_once(monkeypatch, pipeline, make):
    G = make()
    real = verify.verify_facial_nonrepetitive
    calls = []

    def counting(H, colours):
        calls.append(H)
        return real(H, colours)

    monkeypatch.setattr(verify, "verify_facial_nonrepetitive", counting)
    c = pipeline(G)
    assert calls == [G]
    assert real(G, c.colours) is None


@pytest.mark.parametrize("pipeline, make", CERTIFIED_CASES, ids=CERTIFIED_IDS)
def test_rejecting_verifier_is_a_bug(monkeypatch, pipeline, make):
    G = make()
    monkeypatch.setattr(
        verify, "verify_facial_nonrepetitive", lambda H, colours: verify.FacialPath(0, (0,), False)
    )
    with pytest.raises(colour.VerificationBugError):
        pipeline(G)


def test_blocking_graph_cactus_colouring_verifies():
    # the lemma the outerplane core relies on instead of verifying the
    # blocking graph's colouring: it is a facially nonrepetitive 7-colouring
    for seed in range(200):
        n = 1 + (seed * 11) % 60
        Gs, _ = embed.simplify(gen.generate(gen.GenSpec("outerplane", n, seed)))
        B = blocking.blocking_set_even(Gs)
        if not B:
            continue
        bg = blocking.blocking_graph(Gs, B)
        cols = colour._colour_cactus_core(blocking._blocking_graph(Gs, B, simple=True).graph)
        assert set(cols) <= set(range(1, 8))
        assert verify.verify_facial_nonrepetitive(bg.graph, cols) is None


def _count_builds(monkeypatch):
    """List that gets one entry per ``EmbeddedGraph`` built from now on."""
    real = embed.EmbeddedGraph.__init__
    built = []

    def counting(self, *args, **kwargs):
        built.append(args[0])
        real(self, *args, **kwargs)

    monkeypatch.setattr(embed.EmbeddedGraph, "__init__", counting)
    return built


@pytest.mark.parametrize("spec", [
    gen.GenSpec("outerplane", 1000, 3),
    gen.GenSpec("outerplane", 10000, 3),
    gen.GenSpec("flower", 2660, 0),  # 1,006 blocks
], ids=["outerplane-1e3", "outerplane-1e4", "flower-1e3-blocks"])
def test_outerplane_builds_at_most_two_graphs(monkeypatch, spec):
    # blocks are read in place, a simple input is not copied and the
    # blocking graph is built simple: it is the only graph built
    G = gen.generate(spec)
    built = _count_builds(monkeypatch)
    colour_outerplane(G)
    assert len(built) <= 1


@pytest.mark.parametrize("spec", [
    gen.GenSpec("nested", 2000, 0),
    gen.GenSpec("nested", 300, 4),
    gen.GenSpec("plane", 300, 1),
], ids=["nested-2000", "nested-300", "plane-300"])
def test_plane_builds_at_most_two_graphs_per_layer(monkeypatch, spec):
    # G+ once, then per layer its graph (built simple) and its blocking
    # graph (built simple): no simplify rebuilds anything
    G = gen.generate(spec)
    layers = max(peeling_layering(G).layer) + 1
    built = _count_builds(monkeypatch)
    colour_plane(G)
    assert len(built) <= 1 + 2 * layers
