"""Reference oracle for the peeling layering: the round-by-round peel that
removes the outer-face vertices of every component and rebuilds the
remaining graph, once per layer.  It costs Θ(n · layers); the tests diff
``colour.peeling_layering`` and ``support.layer_graphs`` against it."""

from thueplane import embed

from support import _dedup_outer, edge_pairs, induced_embedded_subgraph


def _induced(G, S):
    keep = sorted(set(S))
    vmap = [-1] * G.n
    for i, x in enumerate(keep):
        vmap[x] = i

    new_origin = []
    emap = {}  # edge id -> its first dart in the subgraph
    for i, (a, b) in enumerate(edge_pairs(G)):
        if vmap[a] != -1 and vmap[b] != -1:
            emap[i] = len(new_origin)
            new_origin += (vmap[a], vmap[b])

    dart_map = [-1] * len(G.origin)
    for i, j in emap.items():
        dart_map[2 * i] = j
        dart_map[2 * i + 1] = j + 1

    new_rot = []
    for x in keep:
        new_rot.append([dart_map[d] for d in G.rotations[x] if dart_map[d] != -1])
    return keep, new_origin, new_rot, tuple(vmap), dart_map


def peel(G):
    """Iterated outer-vertex removal.  Yields per round the original-id
    vertex set, the embedded layer graph and its local->original map; the
    outer face of each intermediate graph is the face that absorbed the
    removed material."""
    cur = G
    cur_ids = list(range(G.n))
    rounds = []
    while cur.n > 0:
        vi = set()
        for cid in range(len(cur.components)):
            f = cur.outer_face_of_component(cid)
            if f is None:
                vi.update(cur.components[cid])
            else:
                vi.update(cur.face_vertices(f))
        layer_graph, lmap = induced_embedded_subgraph(cur, sorted(vi))
        layer_ids = [cur_ids[x] for x in range(cur.n) if lmap[x] != -1]
        rounds.append((sorted(cur_ids[x] for x in vi), layer_graph, layer_ids))

        rest = [x for x in range(cur.n) if x not in vi]
        if not rest:
            break
        keep, new_origin, new_rot, _vmap, dart_map = _induced(cur, rest)
        outer_cands = []
        for f in range(len(cur.faces)):
            verts = cur.face_vertices(f)
            if any(x in vi for x in verts):
                outer_cands.extend(dart_map[d] for d in cur.faces[f] if dart_map[d] != -1)
        nxt = embed.EmbeddedGraph(
            len(keep), new_origin, new_rot, _dedup_outer(new_origin, new_rot, outer_cands)
        )
        cur_ids = [cur_ids[x] for x in keep]
        cur = nxt
    return rounds
