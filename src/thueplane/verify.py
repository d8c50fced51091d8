"""Independent certification of facial nonrepetitive colourings.

A facial path is a contiguous subsequence of a facial walk whose vertices
are all distinct.  A colouring is facially nonrepetitive when no facial
path's colour sequence contains a repetition.  Because a repetition inside
any facial path is also a repetition inside the maximal distinct-vertex
window containing it (and such windows are themselves facial paths), the
checker asks the kernel once per face.  At the first walk of at most 3
darts, one pass over the edges clears every such walk when no edge joins
two distinct vertices of one colour, the only squares those walks can
hold; a short walk that one regex search of its doubled colours clears
is done; on any other, ``cyclic_square`` (a simple cycle) or
``window_square`` gives the verdict and the witness, which is checked
before it is returned.  A cycle component is searched once, on its lower-id
face: its two faces read one cyclic word in opposite directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import eq, itemgetter

from thueplane.kernels import _short_walk_square_free, cyclic_square, find_square, window_square

#: a witness that is not a square on a facial path is a kernel bug that must not pass silently
_DISAGREE = "the kernel reports a repetition the search cannot find"


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
    position on the walk, half length).  Raises RuntimeError when the
    kernel names a path that repeats a vertex or does not read XX: a raise,
    not an assert, so the check holds under ``python -O`` too.  ``colours``
    is a list or tuple indexed by vertex id; a dict or a set would be read
    in its iteration order, so any other type is a ValueError."""
    if not isinstance(colours, (list, tuple)):
        raise ValueError(f"colouring must be a list or tuple, not {type(colours).__name__}")
    odd = [c for c in colours if type(c) is not int or c < 0]
    if len(colours) != G.n or None in odd:
        raise ValueError("colouring must assign a colour to every vertex")
    if odd:
        raise ValueError("colours must be non-negative integers")

    origin, rotations = G.origin, G.rotations
    twins = set()  # faces whose twin face has passed
    short_clear = None  # set at the first walk of at most 3 darts
    for f, walk in enumerate(G.faces):
        if short_clear is None and len(walk) <= 3:
            # such a walk holds only squares of half 1: edges joining two
            # distinct vertices of one colour (a loop's ends always share one)
            ends = itemgetter(*origin)(colours)
            same = sum(map(eq, ends[::2], ends[1::2]))
            short_clear = not same or same == sum(map(eq, origin[::2], origin[1::2]))
        if f in twins or short_clear and len(walk) <= 3 or _short_walk_square_free(walk, origin, colours):
            continue
        verts = G.face_vertices(f)
        hit = _first_square_in_face(verts, colours)
        if hit is not None:
            s, r = hit
            path = tuple(verts[(s + k) % len(verts)] for k in range(2 * r))
            if len(set(path)) < 2 * r or [colours[v] for v in path[:r]] != [colours[v] for v in path[r:]]:
                raise RuntimeError(_DISAGREE)
            return FacialPath(f, path, G.is_outer_face(f))
        # a walk whose vertices all have degree 2 takes both edges at each, so
        # it is a cycle component, whose other face reads its word reversed
        if all(len(rotations[v]) == 2 for v in verts):
            twins.add(G.face_of[walk[0] ^ 1])
    return None


def counterexample_to_json(colours, path):
    return {
        "face": path.face,
        "vertices": list(path.vertices),
        "colours": [colours[v] for v in path.vertices],
    }


# -- exact search -------------------------------------------------------------

SEARCH_GUARD = 12


def exact_pi_f(G, max_colours):
    """Exact facial nonrepetitive chromatic number by exhaustive search,
    None when it exceeds max_colours.  Guarded to ``SEARCH_GUARD``
    vertices.  For k = 1, 2, ... every colouring with at most k colours is
    tried by backtracking, each facial path checked by ``find_square`` once
    its largest vertex is coloured.  Colour classes are canonical: vertex i
    may only use colours up to 1 + max(previous), so the first vertex is
    fixed to colour 1."""
    n = G.n
    if n > SEARCH_GUARD:
        raise ValueError(f"exact search guarded to {SEARCH_GUARD} vertices")
    by_max = [[] for _ in range(n)]  # facial paths by largest vertex, coloured last
    for p in {p.vertices for p in facial_paths(G)}:
        if len(p) >= 2:
            by_max[max(p)].append(p)

    colours = [0] * n

    def place(i, used, k):
        for c in range(1, min(k, used + 1) + 1):
            colours[i] = c
            ok = all(find_square([colours[v] for v in p]) is None for p in by_max[i])
            if ok and (i + 1 == n or place(i + 1, max(used, c), k)):
                return True
        colours[i] = 0
        return False

    for k in range(1, max_colours + 1):
        if n == 0 or place(0, 0, k):
            return k
    return None
