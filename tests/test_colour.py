import json
import random

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

from conftest import (
    decorate_multigraph,
    disjoint_union,
    fan5,
    nested_triangles,
    polygon,
    single_block_with_trees,
    wheel,
)
import support
from support import edge_pairs, interleave_check_decomposition, layer_graphs
from test_golden import golden_corpus


def flower_cactus(petals=5):
    """Centre 0 with ``petals`` squares glued on it; every square's deepest
    vertex has degree 2, so the deepest-vertex set has exactly ``petals``
    members and the exceptional-size patch kicks in at 5 and 9."""
    b = _Builder()
    b.new_vertex()
    for _ in range(petals):
        b.add_polygon_block(0, 4, [])
    return b.finish_outerplane()


def _component_faces(G, cid):
    return [f for f in G.inner_faces() if G.comp_of[G.origin[G.faces[f][0]]] == cid]


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
    Gs = embed.simplify(G)
    colours = [None] * Gs.n
    faces = _component_faces(Gs, 0)
    H, lam = colour._colour_cactus_component(Gs, Gs.components[0], faces, [-1] * Gs.n, colours)
    assert len(H) == 6  # five deepest vertices plus the patched neighbour
    c = colour_cactus_even(G)
    assert c.distinct_colours() <= 7


def test_flower_patch_nine():
    G = flower_cactus(9)
    Gs = embed.simplify(G)
    colours = [None] * Gs.n
    faces = _component_faces(Gs, 0)
    H, _ = colour._colour_cactus_component(Gs, Gs.components[0], faces, [-1] * Gs.n, colours)
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


def test_auxiliary_runs_match_the_adjacency_trace(monkeypatch):
    # the runs of the deepest-vertex set along the outer walk against the
    # auxiliary graph built as adjacency lists and traced, per component,
    # on even cacti, outerplane blocking graphs and flowers of squares
    real = colour._auxiliary_runs
    calls = []

    def recording(W, H):
        got = real(W, H)
        calls.append((W, set(H), got))
        return got

    monkeypatch.setattr(colour, "_auxiliary_runs", recording)
    for seed in range(300):
        colour_cactus_even(gen.generate(gen.GenSpec("cactus_even", 5 + seed % 60, seed)))
        colour_outerplane(gen.generate(gen.GenSpec("outerplane", 5 + seed % 80, seed)))
    for petals in range(2, 13):
        colour_cactus_even(flower_cactus(petals))
    shapes = {"path": 0, "cycle along W": 0, "cycle against W": 0}
    for W, H, got in calls:
        want = support.auxiliary_components_oracle(W, H)
        assert sorted((list(order), tuple(word)) for order, word in got) == sorted(
            (order, tuple(word)) for order, word, _cycle in want
        )
        first = next(x for x in W if x in H)
        for order, _word, cycle in want:
            if not cycle:
                shapes["path"] += len(order) >= 2
            elif len(order) >= 3:
                shapes["cycle along W" if order[0] == first else "cycle against W"] += 1
    assert len(calls) > 500 and min(shapes.values()) >= 10, shapes


def test_monotone_level_runs_outside_deepest_set():
    # outer facial paths avoiding the deepest-vertex set have level
    # sequences that only descend, only ascend, or descend then ascend
    for seed in range(40):
        n = 4 + (seed * 5) % 30
        G = gen.generate(gen.GenSpec("cactus_even", n, seed))
        Gs = embed.simplify(G)
        for cid, comp in enumerate(Gs.components):
            colours = [None] * Gs.n
            faces = _component_faces(Gs, cid)
            H, lam = colour._colour_cactus_component(Gs, comp, faces, [-1] * Gs.n, colours)
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


def test_outerplane_rejects_plane_input():
    # simplify is the class check of all three outerplane pipelines
    for pipeline in (colour_outerplane, colour_outerplane_single_block, colour_cactus_even):
        with pytest.raises(ClassMismatchError, match="^input is not outerplane$"):
            pipeline(wheel(5))


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
    assert set(parsed) == {"colours", "palette_max"} and parsed["palette_max"] == 11


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
    assert len(Gp.origin) == len(G.origin) + 2 * inner_walk_len
    assert peeling_layering(Gp).layer == peeling_layering(G).layer
    pairs = {}
    for u, v in edge_pairs(Gp):
        pairs[(min(u, v), max(u, v))] = pairs.get((min(u, v), max(u, v)), 0) + 1
    # every added edge duplicates an existing inner-face edge
    for (u, v), k in pairs.items():
        if k > 1:
            assert (u, v) in {(min(a, b), max(a, b)) for a, b in edge_pairs(G)}


def test_augment_wheel_duplicates_rim():
    # each rim-rim-hub triangle leaves a two-element rim sequence, whose two
    # cyclic pairs both duplicate that rim edge
    W = wheel(5)
    Wp = augment_plus(W)
    rim = {(min(u, v), max(u, v)) for u, v in edge_pairs(W)[:5]}
    added = edge_pairs(Wp)[len(W.origin) >> 1:]
    assert len(added) == 10
    assert {(min(u, v), max(u, v)) for u, v in added} == rim


def test_augment_layer_subgraphs_outerplane():
    for seed in range(15):
        n = 4 + (seed * 13) % 80
        G = gen.generate(gen.GenSpec("plane", n, seed))
        Gp = augment_plus(G)
        for _ids, layer_graph in layer_graphs(Gp, peeling_layering(Gp).layer):
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
        rounds = layer_graphs(Gp, layer)
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


# -- relabelled and mirrored copies ------------------------------------------------------

OUTERPLANE_PIPELINES = ((colour_outerplane, 11), (colour_cactus_even, 7), (colour_outerplane_single_block, 7))


def _on_a_face(G, path):
    """True when the vertex sequence ``path`` runs along a face walk of G,
    either way round."""
    for f in range(len(G.faces)):
        verts = G.face_vertices(f)
        dbl = verts + verts
        for s in range(len(verts)):
            if dbl[s : s + len(path)] in (path, path[::-1]):
                return True
    return False


def _copy_verdicts(graphs):
    """Metamorphic, as for the plane corpus: a copy under new vertex and
    edge names, with the edges reordered and reversed at random and, in one
    copy of two, mirrored, is the same drawing.  Each outerplane pipeline
    that takes G certifies the copy within its bound; the verifier gives a
    colouring carried to the copy G's verdict, for the certified colouring
    and for one with a planted equal pair; and the copy's witness, carried
    back, is a square on a facial path of G.  Returns the verdicts, True
    for an accept."""
    plant = random.Random(0)
    verdicts = []
    for i, G in enumerate(graphs):
        certified = colour_outerplane(G).colours
        planted = list(certified)
        if G.n >= 2:
            u, w = plant.sample(range(G.n), 2)
            planted[w] = planted[u]
        takes = []  # per pipeline, whether G is in its class
        for pipeline, _bound in OUTERPLANE_PIPELINES:
            try:
                pipeline(G)
            except ClassMismatchError:
                takes.append(False)
            else:
                takes.append(True)
        for mirror in (False, True):
            H, vert = support.transform(G, random.Random(i), mirror)
            back = sorted(range(G.n), key=vert.__getitem__)
            for (pipeline, bound), took in zip(OUTERPLANE_PIPELINES, takes):
                if not took:
                    with pytest.raises(ClassMismatchError):
                        pipeline(H)
                    continue
                colours = pipeline(H).colours
                assert max(colours, default=0) <= bound and verify.verify_facial_nonrepetitive(H, colours) is None
            for colours in (certified, planted):
                carried = [0] * G.n
                for v, c in enumerate(colours):
                    carried[vert[v]] = c
                witness = verify.verify_facial_nonrepetitive(H, carried)
                verdicts.append(witness is None)
                assert verdicts[-1] == (verify.verify_facial_nonrepetitive(G, colours) is None)
                if witness is not None:
                    path = tuple(back[x] for x in witness.vertices)
                    r = len(path) // 2
                    assert len(set(path)) == 2 * r
                    assert [colours[v] for v in path[:r]] == [colours[v] for v in path[r:]]
                    assert _on_a_face(G, path)
    return verdicts


def test_relabelled_and_mirrored_copies_of_the_outerplane_corpus():
    verdicts = _copy_verdicts([g for g in golden_corpus() if embed.is_outerplane(g)])
    # half the verdicts are the certified colourings' accepts; the planted
    # pairs give both verdicts (82 of 150 rejected)
    assert 0 < verdicts.count(False) < len(verdicts) // 2


def test_relabelled_and_mirrored_copies_of_every_small_graph():
    # the same relations on every graph gen enumerates up to 8 vertices
    graphs = [G for kind in gen.ENUM_KINDS for n in range(1, 9) for G in gen.enumerate_small(kind, n)]
    verdicts = _copy_verdicts(graphs)
    assert len(graphs) > 150 and 0 < verdicts.count(False) < len(verdicts) // 2


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


def test_colour_above_the_palette_is_a_bug():
    # a cycle word that needed a fourth symbol verifies but leaves {5, 6, 7}
    G = polygon(5)
    colours = [1, 2, 3, 4, 8]
    assert verify.verify_facial_nonrepetitive(G, colours) is None
    assert colour._checked(G, colours, 8).palette_max == 8
    with pytest.raises(colour.VerificationBugError):
        colour._checked(G, colours, 7)


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
        Gs = embed.simplify(gen.generate(gen.GenSpec("outerplane", n, seed)))
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
def test_plane_builds_at_most_two_graphs(monkeypatch, spec):
    # every layer is coloured in one core call on the layers graph, built
    # straight from G and simple by construction: it and its blocking graph
    # are the only graphs built, and nothing is simplified
    G = gen.generate(spec)
    built = _count_builds(monkeypatch)
    real = embed.simplify
    simplified = []

    def counting(H):
        simplified.append(H)
        return real(H)

    monkeypatch.setattr(embed, "simplify", counting)
    colour_plane(G)
    assert len(built) <= 2 and simplified == []


def test_pipelines_check_outerplanarity_at_most_twice(monkeypatch):
    # simplify is the outerplane pipelines' one class check, the cactus
    # pipeline reads its chords without a second one, and the plane pipeline
    # checks only the layers graph it built
    real = embed.is_outerplane
    calls = []

    def counting(H):
        calls.append(H)
        return real(H)

    monkeypatch.setattr(embed, "is_outerplane", counting)
    for pipeline, G, expected in (
        (colour_outerplane, gen.generate(gen.GenSpec("outerplane", 60, 3)), 1),
        (colour_outerplane_single_block, next(single_block_with_trees(100)), 1),
        (colour_cactus_even, gen.generate(gen.GenSpec("cactus_even", 60, 3)), 1),
        (colour_plane, gen.generate(gen.GenSpec("nested", 60, 3)), 1),
    ):
        calls.clear()
        pipeline(G)
        assert len(calls) == expected, pipeline.__name__
    # validate_blocking_set reads blocks and chords without a second check
    G = gen.generate(gen.GenSpec("outerplane", 60, 3))
    B = blocking.blocking_set_even(G)
    calls.clear()
    assert blocking.validate_blocking_set(G, B)[0]
    assert len(calls) == 1


@pytest.mark.parametrize("make", [
    lambda: gen.generate(gen.GenSpec("outerplane_biconnected", 2000, 3)),
    lambda: gen.generate(gen.GenSpec("cycle", 40, 0)),
    lambda: next(single_block_with_trees(100)),
], ids=["biconnected-2000", "cycle-40", "block-with-trees"])
def test_single_block_builds_at_most_one_graph(monkeypatch, make):
    # the block is read in place and its good-size set is built on the
    # view, so the blocking graph is the only graph built
    G = make()
    built = _count_builds(monkeypatch)
    colour_outerplane_single_block(G)
    assert len(built) <= 1


def test_cactus_core_scans_the_faces_once(monkeypatch):
    # the faces are grouped by component in one scan, not filtered once
    # per component
    G = disjoint_union(*(gen.generate(gen.GenSpec("cactus_even", 20, seed)) for seed in range(30)))
    real = embed.EmbeddedGraph.inner_faces
    scans = []

    def counting(self):
        scans.append(self)
        return real(self)

    monkeypatch.setattr(embed.EmbeddedGraph, "inner_faces", counting)
    colour._colour_cactus_core(G)
    assert len(G.components) == 30 and scans == [G]


def test_cactus_core_colours_its_trees_in_one_forest_pass(monkeypatch):
    # every tree component shares one forest pass and one word, where each
    # had its own
    parts = []
    for seed in range(10):
        parts += [gen.generate(gen.GenSpec("tree", 3 + seed, seed)),
                  gen.generate(gen.GenSpec("cactus_even", 20, seed))]
    G = disjoint_union(*parts)
    real = colour._colour_forest
    calls = []

    def counting(H, rest, colours):
        calls.append(sorted(rest))
        return real(H, rest, colours)

    monkeypatch.setattr(colour, "_colour_forest", counting)
    colour._colour_cactus_core(G)
    tree_vertices = [
        x for comp in G.components
        if sum(map(G.degree, comp)) == 2 * (len(comp) - 1) for x in comp
    ]
    assert len(tree_vertices) == sum(3 + seed for seed in range(10))
    assert calls == [tree_vertices]
