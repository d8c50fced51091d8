"""The peeling layering and the plane pipeline on a pinned corpus."""

import hashlib
import json
import random

from thueplane import blocking, colour, embed, gen, verify

from conftest import (
    decorate_multigraph,
    disjoint_union,
    hexagon_with_inner_star,
    k2k,
    nested_triangles,
    polygon,
    single_vertex,
    wheel,
)
from peel_oracle import peel
from support import _restrict, layer_graphs, layers_graph, transform


def plane_corpus():
    """Seeded plane graphs (the corpus of ``test_plane_corpus``), seeded
    nested rings, nested triangles, a disconnected input with an isolated
    vertex, and multigraphs with loops and parallel edges."""
    out = [gen.generate(gen.GenSpec("plane", 3 + (seed * 17) % 100, seed)) for seed in range(60)]
    out += [gen.generate(gen.GenSpec("nested", n, seed)) for n in (12, 40, 100, 250) for seed in range(3)]
    out.append(nested_triangles())
    out.append(disjoint_union(wheel(5), single_vertex(), nested_triangles(), polygon(4)))
    out.append(decorate_multigraph(gen.generate(gen.GenSpec("plane", 30, 3)), seed=1, parallels=3, loops=2))
    out.append(decorate_multigraph(gen.generate(gen.GenSpec("nested", 24, 1)), seed=2, parallels=4, loops=3))
    return out


# SHA-256 of the layerings and colourings below, recorded with the
# round-by-round peeling (rebuild the remaining graph once per layer) that
# the one-pass layering replaced: the rewrite must not change a byte.
GOLDEN_DIGEST = "265cc9de4755e04837e60ac41af674df42bcf2b3e9f2095fd443ee3a0d6f8f6e"


def test_plane_corpus_golden_digest():
    h = hashlib.sha256()
    for G in plane_corpus():
        doc = {"layer": list(colour.peeling_layering(G).layer), "colours": list(colour.colour_plane(G).colours)}
        h.update(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode() + b"\n")
    assert h.hexdigest() == GOLDEN_DIGEST


def _graph_key(G):
    return (G.n, G.origin, G.rotations, G.canonical_outer_darts())


def rerooted(G):
    """G with its last inner face designated as the outer face instead."""
    f = G.inner_faces()[-1]
    return embed.EmbeddedGraph(G.n, G.origin, G.rotations, (G.faces[f][0],))


def test_layering_and_layer_graphs_match_the_peel_oracle():
    corpus = plane_corpus()
    for G in corpus + [rerooted(G) for G in corpus if G.inner_faces()]:
        for H in (G, colour.augment_plus(G)):
            rounds = peel(H)
            layer = colour.peeling_layering(H).layer
            want = [0] * H.n
            for i, (ids, _lg, _m) in enumerate(rounds):
                for v in ids:
                    want[v] = i
            assert layer == tuple(want)
            got = layer_graphs(H, layer)
            assert len(got) == len(rounds)
            for (ids, lg), (want_ids, want_lg, want_map) in zip(got, rounds):
                assert list(ids) == want_ids == want_map
                # layers are built simple: the oracle's layer after simplify
                assert _graph_key(lg) == _graph_key(embed.simplify(want_lg))


def test_augmentation_keeps_the_layering_and_layer_colourings_verify():
    # the lemmas colour_plane relies on instead of re-checking at run time
    for G in plane_corpus():
        layer = colour.peeling_layering(G).layer
        Gp = colour.augment_plus(G)
        assert colour.peeling_layering(Gp).layer == layer
        for _ids, lg in layer_graphs(Gp, layer):
            assert embed.is_outerplane(lg)
            vals = colour._colour_outerplane_core(lg, blocking._even_blocking_over_blocks(lg))
            assert verify.verify_facial_nonrepetitive(lg, vals) is None


def _layer_corpus(ks):
    """The plane corpus, its rerooted copies, multigraph copies of every
    seventh graph, K_{2,k} for each k in ``ks`` and the hexagon with its
    inner star."""
    corpus = plane_corpus()
    graphs = corpus + [rerooted(G) for G in corpus if G.inner_faces()]
    graphs += [
        decorate_multigraph(G, seed=i, parallels=3, loops=2) for i, G in enumerate(corpus[::7])
    ]
    graphs += [k2k(k) for k in ks]
    return graphs + [hexagon_with_inner_star()]


def _assert_layers_graph_is_the_layer_graphs_of_g_plus(G):
    layer = colour._peel(G)[0]
    L = layers_graph(G)
    want = layer_graphs(colour.augment_plus(G), layer)
    edge_ids = [[] for _ in want]
    for e, u in enumerate(L.origin[::2]):
        edge_ids[layer[u]].append(e)
    for (ids, lg), es in zip(want, edge_ids):
        sub, _local = _restrict(L, ids, es)
        assert _graph_key(sub) == _graph_key(lg)


def test_layers_graph_is_the_layer_graphs_of_g_plus():
    # colour_plane colours one layers graph built straight from G; split per
    # layer it must be the layer graphs of G+, key for key
    for G in _layer_corpus((1, 2, 3, 4, 9, 40)):
        _assert_layers_graph_is_the_layer_graphs_of_g_plus(G)


def test_face_levels_are_the_floors_and_the_layers_graph_omits_only_doubled_edges():
    # the invariants that stand in for a run-time check: a face's level - 1
    # is the lowest layer on its walk (-1 if outer) and no vertex on the
    # walk is above its level; and every corner of G plus that the layers
    # graph is not given joins the two ends of an edge of its own face walk
    for G in _layer_corpus(range(1, 41)):
        layer, level = colour._peel(G)
        for f, walk in enumerate(G.faces):
            ls = [layer[G.origin[d]] for d in walk]
            assert level[f] - 1 == (-1 if f in G.outer_faces else min(ls))
            assert max(ls) <= level[f]
        every = colour._augmentation(G, layer, level, False)
        assert len(colour.augment_plus(G).origin) == len(G.origin) + 2 * len(every)
        chords = colour._augmentation(G, layer, level, True)
        kept = set(chords)
        assert kept <= set(every)
        for a, b in (c for c in every if c not in kept):
            f = G.face_of[a]
            assert G.face_of[b] == f
            ends = {G.origin[a], G.origin[b]}
            assert any({G.origin[d], G.origin[d ^ 1]} == ends for d in G.faces[f])


def test_relabelled_and_mirrored_copies_of_the_plane_corpus():
    # metamorphic: a copy under new vertex and edge names, with the edges
    # reversed at random, the rotations started elsewhere and, in one copy
    # of two, mirrored, is the same drawing; it peels into layers of the
    # same sizes, colour_plane certifies it within 22 colours, and its
    # layers graph is the layer graphs of its G plus
    for i, G in enumerate(plane_corpus()):
        for mirror in (False, True):
            H, _vert = transform(G, random.Random(i), mirror)
            assert embed.dumps_graph(embed.graph_from_json(embed.graph_to_json(H))) == embed.dumps_graph(H)
            assert sorted(colour.peeling_layering(H).layer) == sorted(colour.peeling_layering(G).layer)
            colours = colour.colour_plane(H).colours
            assert max(colours, default=0) <= 22
            assert verify.verify_facial_nonrepetitive(H, colours) is None
            _assert_layers_graph_is_the_layer_graphs_of_g_plus(H)
