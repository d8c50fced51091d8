"""Independent certification of facial nonrepetitive colourings.

A facial path is a contiguous subsequence of a facial walk whose vertices
are all distinct.  A colouring is facially nonrepetitive when no facial
path's colour sequence contains a repetition.  Because a repetition inside
any facial path is also a repetition inside the maximal distinct-vertex
window containing it (and such windows are themselves facial paths), the
checker scans each maximal window once with the repetition kernel; walks
that are simple cycles are checked through their doubled colour sequence.
A simple face whose doubled walk is longer than ``kernels._SHORT`` and
which fits the band of ``kernels.cyclic_square`` is decided by that
routine's exact mode, whose answer is also the counterexample; shorter
faces stay with the regex screen of ``find_square``, longer ones with its
Main–Lorentz divide and conquer.  A face that fails there is searched for
its smallest (start, half) repetition: by the exact mode on a simple
cycle, by one regex match per start on other walks, where most runs the
pass scans cross a repeated vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

from thueplane.kernels import _SHORT, cyclic_square, find_square, first_halves, in_band


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
    direction (smaller endpoint first).  Intended for desk-scale graphs;
    verification never materializes this set."""
    for f in range(len(G.faces)):
        verts = G.face_vertices(f)
        L = len(verts)
        is_outer = G.is_outer_face(f)
        seen = set()
        for start in range(L):
            window = []
            used = set()
            for k in range(L):
                v = verts[(start + k) % L]
                if v in used:
                    break
                used.add(v)
                window.append(v)
                c = _canonical(window)
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


def _maximal_distinct_windows(verts):
    """Maximal distinct-vertex cyclic windows of ``verts`` as (start, length)."""
    L = len(verts)
    end = _window_ends(verts)
    return [(i, end[i] - i) for i in range(L) if end[i] > (end[i - 1] if i else end[L - 1] - L)]


def _first_square_in_face(verts, colours):
    """Smallest (start, half) repetition over the facial paths of a cyclic
    walk, with colours relabelled by first occurrence: by
    ``kernels.cyclic_square`` on a simple cycle, by one lazy match per
    start within its distinct-vertex window on another walk."""
    labels = {}
    codes = [labels.setdefault(colours[v], len(labels)) for v in verts]
    if len(set(verts)) == len(verts):
        return cyclic_square(codes)
    at = first_halves(codes)
    for s, end in enumerate(_window_ends(verts)):
        r = at(s, end)
        if r is not None:
            return s, r
    return None


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
        L = len(verts)
        if L < 2:
            continue
        seq = [colours[v] for v in verts]
        simple = len(set(verts)) == L
        if simple and 2 * L > _SHORT and in_band(seq):
            # the pass's answer is the verdict and the counterexample at once;
            # a doubled walk of at most _SHORT colours is the screen's alone
            hit = _first_square_in_face(verts, colours)
            if hit is None:
                continue
        else:
            if simple:
                # simple cycle: every arc of length <= L is a facial path
                bad = find_square(seq + seq, max_half=L // 2) is not None
            else:
                bad = any(
                    find_square([seq[(start + k) % L] for k in range(length)]) is not None
                    for start, length in _maximal_distinct_windows(verts)
                )
            if not bad:
                continue
            hit = _first_square_in_face(verts, colours)
            if hit is None:  # kernel and search disagree: a bug that must not pass silently
                raise RuntimeError(f"face {f}: the kernel reports a repetition the search cannot find")
        s, r = hit
        path = tuple(verts[(s + k) % L] for k in range(2 * r))
        return FacialPath(f, path, G.is_outer_face(f))
    return None


def counterexample_to_json(G, colours, path):
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
    paths = [tuple(p) for p in paths]
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
                ok = True
                for p in by_max[i]:
                    cs = [colours[v] for v in p]
                    for r in range(1, len(cs) // 2 + 1):
                        for a in range(len(cs) - 2 * r + 1):
                            if cs[a : a + r] == cs[a + r : a + 2 * r]:
                                ok = False
                                break
                        if not ok:
                            break
                    if not ok:
                        break
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
    """Exact nonrepetitive chromatic number of a tree over all its paths
    (for a tree these are exactly its facial paths)."""
    from thueplane.words import _adjacency, _all_tree_paths

    adj = _adjacency(T)
    n = len(adj)
    if n > guard:
        raise ValueError(f"exact search guarded to {guard} vertices")
    if sum(len(a) for a in adj) != 2 * (n - 1):
        raise ValueError("input is not a tree")
    paths = [tuple(p) for p in _all_tree_paths(adj)]
    return _min_colours_for_paths(n, paths, max_colours)
