"""The peeling layering and the plane pipeline on a pinned corpus."""

import hashlib
import json

from thueplane import colour, embed, gen, verify

from conftest import (
    decorate_multigraph,
    disjoint_union,
    nested_triangles,
    polygon,
    single_vertex,
    wheel,
)
from peel_oracle import peel


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
    return (G.n, G.edges, G.rotations, G.canonical_outer_darts())


def rerooted(G):
    """G with its last inner face designated as the outer face instead."""
    f = G.inner_faces()[-1]
    return embed.EmbeddedGraph(G.n, G.edges, G.rotations, (G.faces[f][0],))


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
            got = colour.layer_graphs(H, layer)
            assert len(got) == len(rounds)
            for (ids, lg), (want_ids, want_lg, want_map) in zip(got, rounds):
                assert list(ids) == want_ids == want_map
                # layers are built simple: the oracle's layer after simplify
                assert _graph_key(lg) == _graph_key(embed.simplify(want_lg)[0])


def test_augmentation_keeps_the_layering_and_layer_colourings_verify():
    # the lemmas colour_plane relies on instead of re-checking at run time
    for G in plane_corpus():
        layer = colour.peeling_layering(G).layer
        Gp = colour._augment(G, layer)
        assert colour.peeling_layering(Gp).layer == layer
        for _ids, lg in colour.layer_graphs(Gp, layer):
            assert embed.is_outerplane(lg)
            vals = colour._colour_outerplane_core(lg)
            assert verify.verify_facial_nonrepetitive(lg, vals) is None
