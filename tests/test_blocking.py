import random

import pytest

from thueplane import blocking, colour, embed, gen, verify
from thueplane.blocking import (
    blocking_graph,
    blocking_set_biconnected,
    blocking_set_even,
    blocking_set_even_biconnected,
    blocking_set_even_biconnected_edge,
    blocking_set_even_bridgeless,
    blocking_set_good_size,
    validate_blocking_set,
)
from thueplane.colour import colour_outerplane
from thueplane.embed import ClassMismatchError
from thueplane.words import EXCEPTIONAL_CYCLE_LENGTHS

from conftest import (
    SHOWCASE_BLOCKING_SET,
    disjoint_union,
    fan5,
    path_graph,
    polygon,
    showcase_graph,
    single_block_with_trees,
    single_vertex,
    two_triangles_bridge,
    two_triangles_shared_vertex,
    wheel,
)
from support import (
    _restrict,
    biconnected_components,
    block_edges,
    blocking_graph_from_json,
    blocking_graph_to_json,
    edge_pairs,
    good_size_by_copies,
    induced_embedded_subgraph,
    is_bridgeless_cactus,
    layer_graphs,
)
from test_peeling import plane_corpus


def biconnected_corpus(count, max_n=30, min_n=3):
    for seed in range(count):
        n = min_n + (seed * 13) % (max_n - min_n + 1)
        yield gen.generate(gen.GenSpec("outerplane_biconnected", n, seed))


def cycle_lengths_of(bg):
    return [len(bg.graph.faces[f]) for f in bg.graph.inner_faces()]


# -- validation -----------------------------------------------------------------


def test_showcase_blocking_set_valid():
    G = showcase_graph()
    ok, viol = validate_blocking_set(G, SHOWCASE_BLOCKING_SET)
    assert ok, viol


def test_full_cover_invalid(triangle):
    ok, viol = validate_blocking_set(triangle, {0, 1, 2})
    assert not ok and viol


def test_empty_on_triangle_invalid(triangle):
    ok, viol = validate_blocking_set(triangle, set())
    assert not ok


def test_chord_pair_invalid():
    ok, viol = validate_blocking_set(fan5(), {0, 2})
    assert not ok
    assert any("chord" in v for v in viol)


def test_non_outerplane_graph_has_one_violation():
    assert validate_blocking_set(wheel(5), {0}) == (False, ["graph is not outerplane"])


def test_nonconsecutive_invalid():
    ok, viol = validate_blocking_set(polygon(6), {0, 3})
    assert not ok


# -- one-per-face construction -----------------------------------------------------


def test_triangle_include():
    tri = polygon(3)
    assert blocking_set_biconnected(tri, 0, True) == frozenset({0})


def test_include_and_exclude_respected():
    for G in biconnected_corpus(40, max_n=25):
        for v in (0, G.n // 2):
            B_in = blocking_set_biconnected(G, v, True)
            assert v in B_in
            B_out = blocking_set_biconnected(G, v, False)
            assert v not in B_out
            for B in (B_in, B_out):
                ok, viol = validate_blocking_set(G, B)
                assert ok, viol
                for f in G.inner_faces():
                    assert sum(1 for x in G.face_vertices(f) if x in B) == 1


def test_one_per_face_bounds_size():
    fan = fan5()
    B = blocking_set_biconnected(fan, 1, True)
    assert len(B) <= len(fan.inner_faces())


def test_rejects_non_biconnected():
    constructors = (
        lambda G: blocking_set_biconnected(G, 0, True),
        lambda G: blocking_set_even_biconnected(G, 0, True),
        lambda G: blocking_set_even_biconnected_edge(G, *G.origin[:2]),
        blocking_set_good_size,
    )
    graphs = (
        path_graph(5),
        two_triangles_shared_vertex(),  # a bowtie
        disjoint_union(polygon(3), polygon(3)),
        disjoint_union(polygon(3), single_vertex()),
        disjoint_union(single_vertex(), polygon(3)),
        path_graph(2),
        wheel(5),
    )
    for construct in constructors:
        for G in graphs:
            with pytest.raises(ClassMismatchError):
                construct(G)


def _walk_says_biconnected(G):
    try:
        blocking._require_biconnected_outerplane(G)
    except ClassMismatchError:
        return False
    return True


def test_walk_criterion_agrees_with_block_decomposition():
    graphs = []
    for n in range(3, 9):
        for kind in ("tree", "cycle", "outerplane_biconnected"):
            graphs += gen.enumerate_small(kind, n)
    for kind in ("outerplane", "outerplane_bridgeless", "cactus_even"):
        graphs += [gen.generate(gen.GenSpec(kind, 3 + seed * 4, seed)) for seed in range(10)]
    rnd = random.Random(5)
    for G in list(graphs):
        S = [v for v in range(G.n) if rnd.random() < 0.8]
        graphs.append(induced_embedded_subgraph(G, S)[0])
        graphs += [
            _restrict(G, vs, block_edges(G, fs, seg))[0]
            for vs, fs, seg in embed._blocks_and_bridges(G)
        ]
    biconnected = 0
    for G in graphs:
        if G.n < 3:
            continue
        blocks = biconnected_components(G)
        expected = len(blocks) == 1 and len(blocks[0]) == G.n
        assert _walk_says_biconnected(G) == expected
        biconnected += expected
    assert 0 < biconnected < len(graphs)


def test_pipeline_skips_blocking_rechecks(monkeypatch):
    G = gen.generate(gen.GenSpec("outerplane", 60, 3))
    calls = {"validate": 0, "blocks": 0}
    validate, blocks = blocking.validate_blocking_set, embed._blocks_and_bridges

    def counting_validate(*args):
        calls["validate"] += 1
        return validate(*args)

    def counting_blocks(*args):
        calls["blocks"] += 1
        return blocks(*args)

    monkeypatch.setattr(blocking, "validate_blocking_set", counting_validate)
    monkeypatch.setattr(embed, "_blocks_and_bridges", counting_blocks)
    colour_outerplane(G)
    assert calls == {"validate": 0, "blocks": 1}
    # one block decomposition per pipeline call: the plane pipeline's is of
    # its layers graph, the single-block pipeline's of its simplified input
    for pipeline, H in (
        (colour.colour_plane, gen.generate(gen.GenSpec("nested", 60, 3))),
        (colour.colour_outerplane_single_block, next(single_block_with_trees(100))),
    ):
        calls["blocks"] = 0
        pipeline(H)
        assert calls == {"validate": 0, "blocks": 1}
    with pytest.raises(ValueError):
        blocking_graph(polygon(3), {0, 1, 2})
    assert calls["validate"] == 1


# -- even single cycle --------------------------------------------------------------


def test_even_biconnected_single_face():
    tri = polygon(3)
    B = blocking_set_even_biconnected(tri, 0, True)
    assert 0 in B and len(B) == 2
    bg = blocking_graph(tri, B)
    assert cycle_lengths_of(bg) == [2]


def test_even_biconnected_corpus():
    for i, G in enumerate(biconnected_corpus(120, max_n=40)):
        v = i % G.n
        include = i % 2 == 0
        B = blocking_set_even_biconnected(G, v, include)
        assert (v in B) == include
        ok, viol = validate_blocking_set(G, B)
        assert ok, viol
        bg = blocking_graph(G, B)
        lens = cycle_lengths_of(bg)
        assert len(lens) == 1 and lens[0] == len(B) and lens[0] % 2 == 0


def test_even_parity_repair_grows_by_one():
    # whenever the one-per-face set is odd, the even variant adds one vertex
    seen_repair = False
    for i, G in enumerate(biconnected_corpus(80, max_n=30)):
        B1 = blocking_set_biconnected(G, 0, True)
        B2 = blocking_set_even_biconnected(G, 0, True)
        if len(B1) % 2 == 0:
            assert B2 == B1
        else:
            assert len(B2) == len(B1) + 1 and B1 < B2
            seen_repair = True
    assert seen_repair


# -- edge variant -------------------------------------------------------------------


def test_edge_variant_triangle():
    tri = polygon(3)
    B = blocking_set_even_biconnected_edge(tri, 0, 1)
    assert B == frozenset({1, 2})


def test_edge_variant_square():
    sq = polygon(4)
    B = blocking_set_even_biconnected_edge(sq, 0, 1)
    assert 0 not in B and 1 in B and len(B) % 2 == 0
    assert validate_blocking_set(sq, B)[0]


def test_edge_variant_corpus():
    for i, G in enumerate(biconnected_corpus(120, max_n=40)):
        W = embed.outer_walk(G, 0)
        k = i % len(W)
        a, b = W[k], W[(k + 1) % len(W)]
        B = blocking_set_even_biconnected_edge(G, a, b)
        assert a not in B and b in B
        ok, viol = validate_blocking_set(G, B)
        assert ok, viol
        lens = cycle_lengths_of(blocking_graph(G, B))
        assert lens == [len(B)] and len(B) % 2 == 0


def test_edge_variant_rejects_chord():
    fan = fan5()
    with pytest.raises(ClassMismatchError):
        blocking_set_even_biconnected_edge(fan, 0, 2)


# -- bridgeless / general even --------------------------------------------------------


def test_bowtie_even_cycles():
    G = two_triangles_shared_vertex()
    B = blocking_set_even_bridgeless(G)
    assert validate_blocking_set(G, B)[0]
    lens = cycle_lengths_of(blocking_graph(G, B))
    assert lens and all(l % 2 == 0 for l in lens)


def test_even_cycle_two_consecutive():
    c8 = polygon(8)
    B = blocking_set_even_bridgeless(c8)
    assert validate_blocking_set(c8, B)[0]


def test_bridgeless_rejects_bridges():
    with pytest.raises(ClassMismatchError):
        blocking_set_even_bridgeless(two_triangles_bridge())


def test_bridgeless_corpus():
    for seed in range(100):
        n = 3 + (seed * 11) % 40
        G = gen.generate(gen.GenSpec("outerplane_bridgeless", n, seed))
        B = blocking_set_even_bridgeless(G)
        ok, viol = validate_blocking_set(G, B)
        assert ok, viol
        for l in cycle_lengths_of(blocking_graph(G, B)):
            assert l % 2 == 0


def test_tree_has_empty_blocking_set():
    t = gen.generate(gen.GenSpec("tree", 9, 1))
    assert blocking_set_even(t) == frozenset()


def test_bridge_joined_triangles_even():
    G = two_triangles_bridge()
    B = blocking_set_even(G)
    assert validate_blocking_set(G, B)[0]
    for l in cycle_lengths_of(blocking_graph(G, B)):
        assert l % 2 == 0


def test_even_corpus():
    for seed in range(150):
        n = 1 + (seed * 7) % 55
        G = gen.generate(gen.GenSpec("outerplane", n, seed))
        B = blocking_set_even(G)
        ok, viol = validate_blocking_set(G, B)
        assert ok, viol
        if B:
            bg = blocking_graph(G, B)
            assert is_bridgeless_cactus(bg.graph)
            for l in cycle_lengths_of(bg):
                assert l % 2 == 0


def test_even_rejects_multigraph(triangle):
    from conftest import decorate_multigraph

    with pytest.raises(ClassMismatchError):
        blocking_set_even(decorate_multigraph(triangle, parallels=1, loops=0))


# -- blocks read in place -----------------------------------------------------------


def _blocks_in_place(G):
    """The blocks of G on at least three vertices, each as the cores read
    it in place: (vertices, edges, inner faces, outer-cycle darts)."""
    return [
        (vs, block_edges(G, fs, seg), fs, seg)
        for vs, fs, seg in embed._blocks_and_bridges(G)
        if len(vs) >= 3
    ]


def test_block_cores_match_the_public_constructors_on_copies():
    # the pipeline reads each block in place in its host; the oracle is the
    # public constructor on the block copied out by _restrict
    corpus = [
        gen.generate(gen.GenSpec(kind, n, seed))
        for kind, n in (("outerplane", 60), ("outerplane_bridgeless", 40),
                        ("outerplane_biconnected", 25), ("flower", 60))
        for seed in range(4)
    ]
    checked = 0
    for G in corpus:
        H = blocking._host(G)
        for verts, bedges, faces, seg in _blocks_in_place(G):
            sub, local = _restrict(G, verts, bedges)
            back = {i: x for x, i in local.items()}
            for x in verts:
                for include in (True, False):
                    want = {back[y] for y in blocking_set_even_biconnected(sub, local[x], include)}
                    assert blocking._even_one_per_face(H, faces, seg, x, include) == want
                    checked += 1
            for e in bedges:
                f, g = G.face_of[2 * e], G.face_of[2 * e + 1]
                if not (G.is_outer_face(f) or G.is_outer_face(g)):
                    continue
                root = g if G.is_outer_face(f) else f
                p, q = G.origin[2 * e], G.origin[2 * e + 1]
                for a, b in ((p, q), (q, p)):
                    got = blocking._even_one_per_face_edge(H, faces, a, b, e, root)
                    B = blocking_set_even_biconnected_edge(sub, local[a], local[b])
                    assert got == {back[y] for y in B}
                    checked += 1
    assert checked > 1000


def test_excluding_a_cut_vertex_reads_its_neighbours_on_each_block():
    # a flower centre lies on many blocks, and each block's outer-cycle
    # darts give its two neighbours there, which exclusion forces instead
    G = gen.generate(gen.GenSpec("flower", 60, 1))
    H = blocking._host(G)
    blocks = _blocks_in_place(G)
    centre = max(range(G.n), key=lambda x: sum(x in b[0] for b in blocks))
    around = [b for b in blocks if centre in b[0]]
    assert len(around) >= 3
    for verts, bedges, faces, seg in around:
        sub, local = _restrict(G, verts, bedges)
        back = {i: x for x, i in local.items()}
        want = {back[y] for y in blocking_set_even_biconnected(sub, local[centre], False)}
        got = blocking._even_one_per_face(H, faces, seg, centre, False)
        assert got == want and centre not in got


# -- size control ----------------------------------------------------------------------


def test_postconditions_on_every_small_biconnected_graph():
    # bounded-exhaustive: the constructors do not check their own output,
    # so every 2-connected outerplane graph on 3..9 vertices checks the
    # lemmas' promises, with every vertex included and excluded and every
    # outer edge in both orientations; each distinct set is then validated.
    # Failures are collected, as an assert per call doubles the test's time
    wrong = []
    graphs = 0
    for n in range(3, gen.ENUM_GUARD + 1):
        for G in gen.enumerate_small("outerplane_biconnected", n):
            graphs += 1
            sets = set()
            for v in range(n):
                for include in (True, False):
                    B = blocking_set_biconnected(G, v, include)
                    E = blocking_set_even_biconnected(G, v, include)
                    if (v in B) != include or (v in E) != include or len(E) % 2:
                        wrong.append(("vertex", n, v, include, sorted(B), sorted(E)))
                    sets |= {B, E}
            for d in G.faces[G.outer_face]:
                for a, b in ((G.origin[d], G.origin[d ^ 1]), (G.origin[d ^ 1], G.origin[d])):
                    B = blocking_set_even_biconnected_edge(G, a, b)
                    if a in B or b not in B or len(B) % 2:
                        wrong.append(("edge", n, a, b, sorted(B)))
                    sets.add(B)
            B = blocking_set_good_size(G)
            if len(B) in EXCEPTIONAL_CYCLE_LENGTHS:
                wrong.append(("good size", n, sorted(B)))
            sets.add(B)
            wrong += [("invalid", n, sorted(B)) for B in sets if not validate_blocking_set(G, B)[0]]
    assert (graphs, wrong) == (372, [])


def test_good_size_cycle():
    c9 = polygon(9)
    B = blocking_set_good_size(c9)
    assert len(B) == 2
    assert validate_blocking_set(c9, B)[0]


def test_good_size_corpus():
    for i, G in enumerate(biconnected_corpus(150, max_n=45)):
        B = blocking_set_good_size(G)
        assert len(B) not in EXCEPTIONAL_CYCLE_LENGTHS
        ok, viol = validate_blocking_set(G, B)
        assert ok, viol


def test_good_size_patch_fires_somewhere():
    # some instance must hit the exceptional even sizes and grow by one
    seen_odd = False
    for i, G in enumerate(biconnected_corpus(400, max_n=45)):
        B = blocking_set_good_size(G)
        if len(B) % 2 == 1:
            seen_odd = True
            assert len(B) in (11, 15)
            assert validate_blocking_set(G, B)[0]
            break
    assert seen_odd


def test_good_size_in_place_matches_the_construction_on_copies():
    sizes = set()
    for G in biconnected_corpus(400, max_n=45):
        B = blocking_set_good_size(G)
        assert B == good_size_by_copies(G)
        sizes.add(len(B))
    assert {2, 11} <= sizes  # two-vertex sets, and a size the 10/14 patch made
    checked = 0
    for G in single_block_with_trees(600):
        ((verts, _bedges, faces, _seg),) = _blocks_in_place(G)
        sub, _vmap = induced_embedded_subgraph(G, verts)
        want = frozenset(verts[x] for x in good_size_by_copies(sub))
        assert blocking._good_size(G, faces) == want
        checked += 1
    assert checked >= 50


# -- blocking graph ----------------------------------------------------------------------


def test_blocking_graph_single_vertex_is_loop(triangle):
    B = blocking_set_biconnected(triangle, 0, True)
    bg = blocking_graph(triangle, B)
    assert bg.graph.n == 1 and edge_pairs(bg.graph) == [(0, 0)]


def test_blocking_graph_rejects_invalid(triangle):
    with pytest.raises(ValueError):
        blocking_graph(triangle, {0, 1, 2})


def test_blocking_graph_is_bridgeless_cactus_on_corpus():
    for seed in range(60):
        n = 3 + (seed * 9) % 45
        G = gen.generate(gen.GenSpec("outerplane", n, seed))
        B = blocking_set_even(G)
        if B:
            bg = blocking_graph(G, B)
            assert is_bridgeless_cactus(bg.graph)
            assert sorted(bg.host_vertex) == sorted(B)


def _blocking_graph_key(g, host_vertex):
    return (g.n, g.origin, g.rotations, g.canonical_outer_darts(), host_vertex)


def test_pipeline_blocking_graph_is_the_simplified_blocking_graph():
    # the pipelines colour the blocking graph built simple in one sweep;
    # it must be simplify of the documented multigraph, key for key
    graphs = [
        gen.generate(gen.GenSpec(kind, 3 + (seed * 13) % 90, seed))
        for kind in ("outerplane", "outerplane_bridgeless", "flower")
        for seed in range(25)
    ]
    for G in plane_corpus():
        layer = colour.peeling_layering(G).layer
        graphs += [lg for _ids, lg in layer_graphs(colour.augment_plus(G), layer)]
    multi = 0
    for G in graphs:
        B = blocking._even_blocking_over_blocks(G)
        if not B:
            continue
        want = blocking_graph(G, B)
        simple = embed.simplify(want.graph)
        multi += simple is not want.graph
        got = blocking._blocking_graph(G, B, simple=True)
        assert _blocking_graph_key(got.graph, got.host_vertex) == _blocking_graph_key(simple, want.host_vertex)
    assert multi > 0


def test_showcase_blocking_graph():
    G = showcase_graph()
    bg = blocking_graph(G, SHOWCASE_BLOCKING_SET)
    assert is_bridgeless_cactus(bg.graph)


def _b_subsequences_of_outer_paths(G, B):
    """Subsequences of outer facial paths restricted to B."""
    subs = set()
    for p in verify.facial_paths(G):
        if p.is_outer:
            seq = tuple(x for x in p.vertices if x in B)
            if seq:
                subs.add(seq)
    return subs


def test_outer_path_restriction_is_blocking_graph_path():
    # the B-subsequence of any outer facial path appears as an outer facial
    # path of the blocking graph
    for seed in range(25):
        n = 3 + (seed * 5) % 12
        G = gen.generate(gen.GenSpec("outerplane", n, seed))
        B = blocking_set_even(G)
        if not B:
            continue
        bg = blocking_graph(G, B)
        local = {h: i for i, h in enumerate(bg.host_vertex)}
        outer_paths = {
            p.vertices for p in verify.facial_paths(bg.graph) if p.is_outer
        }
        outer_paths |= {tuple(reversed(p)) for p in outer_paths}
        for seq in _b_subsequences_of_outer_paths(G, B):
            mapped = tuple(local[x] for x in seq)
            assert mapped in outer_paths, (seed, seq)


def test_inner_face_restriction_is_path_and_blocking_graph_facial_path():
    for seed in range(25):
        n = 3 + (seed * 5) % 12
        G = gen.generate(gen.GenSpec("outerplane", n, seed))
        B = blocking_set_even(G)
        if not B:
            continue
        bg = blocking_graph(G, B)
        local = {h: i for i, h in enumerate(bg.host_vertex)}
        all_paths = {p.vertices for p in verify.facial_paths(bg.graph)}
        all_paths |= {tuple(reversed(p)) for p in all_paths}
        for f in G.inner_faces():
            cyc = G.face_vertices(f)
            hits = [x for x in cyc if x in B]
            if not hits:
                continue
            L = len(cyc)
            # rotate so the B-stretch is contiguous, then read it off
            starts = [
                i
                for i in range(L)
                if cyc[i] in B and cyc[(i - 1) % L] not in B
            ]
            assert len(starts) == 1, "B-vertices must be consecutive on the face"
            i = starts[0]
            seq = []
            while cyc[i] in B:
                seq.append(cyc[i])
                i = (i + 1) % L
            assert len(seq) == len(hits)
            mapped = tuple(local[x] for x in seq)
            assert mapped in all_paths, (seed, f, seq)


def test_blocking_graph_json_round_trip():
    G = showcase_graph()
    bg = blocking_graph(G, SHOWCASE_BLOCKING_SET)
    doc = blocking_graph_to_json(bg)
    assert doc["host_vertex"] == sorted(SHOWCASE_BLOCKING_SET)
    bg2 = blocking_graph_from_json(doc)
    assert bg2.graph.origin == bg.graph.origin
    assert bg2.host_vertex == bg.host_vertex
