"""Independent certification of facial nonrepetitive colourings.

A facial path is a contiguous subsequence of a facial walk whose vertices
are all distinct.  A colouring is facially nonrepetitive when no facial
path's colour sequence contains a repetition.  Because a repetition inside
any facial path is also a repetition inside the maximal distinct-vertex
window containing it (and such windows are themselves facial paths), the
checker asks the kernel once per face: ``kernels.cyclic_square`` for a
walk that is a simple cycle, ``kernels.window_square`` with the ends of its
distinct-vertex windows for any other walk.  The kernel's answer is the
verdict and the counterexample at once.
"""

from __future__ import annotations

from dataclasses import dataclass

from thueplane.kernels import cyclic_square, find_square, window_square


@dataclass(frozen=True, slots=True)
class FacialPath:
    face: int
    vertices: tuple
    is_outer: bool

    def __len__(self):
        return len(self.vertices)


def _canonical(seq):
    seq = tuple(seq)
    if len(seq) >= 2 and seq[0] > seq[-1]:
        return seq[::-1]
    return seq


def facial_paths(G):
    """Iterate every facial path of every face, once per face in canonical
    direction (smaller endpoint first): the prefixes of each walk position's
    longest distinct-vertex window (``_window_ends``).  Intended for
    desk-scale graphs; verification never materializes this set."""
    for f in range(len(G.faces)):
        verts = G.face_vertices(f)
        is_outer = G.is_outer_face(f)
        dbl = verts + verts
        seen = set()
        for s, e in enumerate(_window_ends(verts)):
            for j in range(s + 1, e + 1):
                c = _canonical(dbl[s:j])
                if c not in seen:
                    seen.add(c)
                    yield FacialPath(f, c, is_outer)


def _window_ends(verts):
    """end[i] = the end, exclusive, in the doubled walk ``verts + verts``, of
    the longest distinct-vertex cyclic window starting at i (at most
    len(verts) long), via a two-pointer sweep."""
    L = len(verts)
    dbl = verts + verts
    end = [0] * L
    inside = set()
    j = 0
    for i in range(L):
        while j < i + L and dbl[j] not in inside:
            inside.add(dbl[j])
            j += 1
        end[i] = j
        inside.remove(dbl[i])
    return end


def _first_square_in_face(verts, colours):
    """Smallest (start, half) repetition over the facial paths of a cyclic
    walk, or None: by ``kernels.cyclic_square`` on a simple cycle, by
    ``kernels.window_square`` on another walk."""
    seq = [colours[v] for v in verts]
    if len(set(verts)) == len(verts):
        return cyclic_square(seq)
    return window_square(seq, _window_ends(verts))


def verify_facial_nonrepetitive(G, colours):
    """Return None when every facial path of G is nonrepetitively coloured,
    else the counterexample FacialPath that is smallest by (face id, start
    position on the walk, half length)."""
    colours = list(colours)
    odd = [c for c in colours if type(c) is not int or c < 0]
    if len(colours) != G.n or None in odd:
        raise ValueError("colouring must assign a colour to every vertex")
    if odd:
        raise ValueError("colours must be non-negative integers")

    for f in range(len(G.faces)):
        verts = G.face_vertices(f)
        hit = _first_square_in_face(verts, colours)
        if hit is not None:
            s, r = hit
            path = tuple(verts[(s + k) % len(verts)] for k in range(2 * r))
            return FacialPath(f, path, G.is_outer_face(f))
    return None


def counterexample_to_json(colours, path):
    return {
        "face": path.face,
        "vertices": list(path.vertices),
        "colours": [colours[v] for v in path.vertices],
    }


# -- exact search -------------------------------------------------------------

SEARCH_GUARD = 12


def _min_colours_for_paths(n, paths, max_colours):
    """Minimum k <= max_colours such that the vertices 0..n-1 admit a
    colouring making every path in ``paths`` nonrepetitive; None when even
    max_colours colours do not suffice.  Colour classes are canonical:
    vertex i may only use colours up to 1 + max(previous), so the first
    vertex is fixed to colour 1."""
    by_max = [[] for _ in range(max(n, 1))]
    for p in paths:
        if len(p) >= 2:
            by_max[max(p)].append(p)

    colours = [0] * n

    def feasible(k):
        def place(i, used):
            top = min(k, used + 1)
            for c in range(1, top + 1):
                colours[i] = c
                ok = all(find_square([colours[v] for v in p]) is None for p in by_max[i])
                if ok and (i + 1 == n or place(i + 1, max(used, c))):
                    return True
            colours[i] = 0
            return False

        return n == 0 or place(0, 0)

    for k in range(1, max_colours + 1):
        if feasible(k):
            return k
    return None


def exact_pi_f(G, max_colours, guard=SEARCH_GUARD):
    """Exact facial nonrepetitive chromatic number by exhaustive search,
    None when it exceeds max_colours.  Guarded to tiny instances."""
    if G.n > guard:
        raise ValueError(f"exact search guarded to {guard} vertices")
    paths = {p.vertices for p in facial_paths(G)}
    return _min_colours_for_paths(G.n, paths, max_colours)


def exact_pi_tree_paths(T, max_colours, guard=SEARCH_GUARD):
    """Exact nonrepetitive chromatic number of a tree over all its paths.
    Every facial path of a tree is a path, but not every path is facial: in
    the star K_{1,4} with rotation (1, 2, 3, 4) at the centre, 1-0-3 and
    2-0-4 are paths and not facial paths.  So this bounds the facial number
    of every embedding of T from above; the two are equal on every tree
    ``gen.enumerate_small`` gives up to 9 vertices."""
    from thueplane.words import _adjacency, _all_tree_paths

    adj = _adjacency(T)
    n = len(adj)
    if n > guard:
        raise ValueError(f"exact search guarded to {guard} vertices")
    if sum(len(a) for a in adj) != 2 * (n - 1):
        raise ValueError("input is not a tree")
    return _min_colours_for_paths(n, _all_tree_paths(adj), max_colours)
