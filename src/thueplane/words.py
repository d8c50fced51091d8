"""Nonrepetitive sequences and the colourings built from them.

Symbols are non-negative integers; a sequence over alphabet size k uses
symbols 0..k-1.  A block s_1..s_{2r} is a repetition when s_i = s_{r+i} for
every i; a sequence is nonrepetitive (square-free) when no block is a
repetition, and palindrome-free when no block of length >= 2 reads the same
reversed.
"""

from __future__ import annotations

from functools import lru_cache

from thueplane import embed
from thueplane.kernels import cyclic_square, find_square, in_band

#: Cycle lengths whose nonrepetitive chromatic number is 4 rather than 3.
EXCEPTIONAL_CYCLE_LENGTHS = frozenset({5, 7, 9, 10, 14, 17})

_MORPHISM = {0: (0, 1, 2), 1: (0, 2), 2: (1,)}


def has_repetition(seq):
    """(True, (start, half_length)) when some block of seq is a repetition,
    else (False, None)."""
    seq = list(seq)
    if any(s < 0 for s in seq):
        raise ValueError("symbols must be non-negative")
    w = find_square(seq)
    return (w is not None), w


def is_palindrome_free(seq):
    """No block of length >= 2 equals its own reverse.  Any palindrome of
    length >= 2 contains a centre xx or xyx, so checking those suffices."""
    seq = list(seq)
    for i in range(len(seq) - 1):
        if seq[i] == seq[i + 1]:
            return False
    for i in range(len(seq) - 2):
        if seq[i] == seq[i + 2]:
            return False
    return True


def ternary_nonrepetitive(n):
    """Prefix of length n of a fixed square-free word over {0, 1, 2}
    (iterated morphism 0->012, 1->02, 2->1; outputs nest as n grows)."""
    if n < 0:
        raise ValueError("length must be non-negative")
    w = [0]
    while len(w) < n:
        w = [s for c in w for s in _MORPHISM[c]]
    return tuple(w[:n])


def palindrome_free_nonrepetitive(n):
    """Prefix of length n of a nonrepetitive palindrome-free word over
    {0, 1, 2, 3}: the fourth symbol is inserted after every two symbols of
    the ternary square-free word."""
    if n < 0:
        raise ValueError("length must be non-negative")
    base = ternary_nonrepetitive(2 * (n // 3 + 2))
    out = []
    i = 0
    while len(out) < n:
        out.append(base[i])
        i += 1
        if i % 2 == 0:
            out.append(3)
    return tuple(out[:n])


def has_cyclic_repetition(seq):
    """True when some contiguous cyclic arc of length <= len(seq) contains a
    repetition (arcs are the paths of a cycle graph): by the per-half pass
    of ``kernels.cyclic_square``, stopping at the first square, when the
    cycle is in its band, else by Main–Lorentz on the doubled word."""
    seq = list(seq)
    n = len(seq)
    if n < 2:
        return False
    if in_band(seq):
        return cyclic_square(seq, first=True) is not None
    return find_square(seq + seq, max_half=n // 2) is not None


def cycle_alphabet_size(n):
    return 4 if n in EXCEPTIONAL_CYCLE_LENGTHS else 3


_EXACT_CYCLE_LIMIT = 64


def _exact_cycle_word(n, k):
    """Lexicographically least cyclic nonrepetitive word by backtracking."""
    seq = []

    def linear_suffix_square(i):
        for r in range(1, (i + 2) // 2 + 1):
            if seq[i] == seq[i - r] and seq[i - 2 * r + 1 : i - r + 1] == seq[i - r + 1 : i + 1]:
                return True
        return False

    def extend(i):
        for s in range(k):
            seq.append(s)
            if not linear_suffix_square(i):
                if i + 1 == n:
                    if not has_cyclic_repetition(seq):
                        return True
                elif extend(i + 1):
                    return True
            seq.pop()
        return False

    if not extend(0):
        raise RuntimeError(f"no cyclic nonrepetitive word of length {n} over {k} symbols")
    return tuple(seq)


def _seam_cycle_word(n):
    """Large-n cyclic nonrepetitive ternary word: keep a square-free prefix
    and re-derive its tail by bounded search until the wrap-around also
    checks clean.  Every candidate is certified by the cyclic checker."""
    base = ternary_nonrepetitive(n)
    for t in (16, 24, 32, 48):
        if t >= n:
            continue
        word = list(base)
        fixed = n - t

        def suffix_square(i):
            lim = min((i + 2) // 2, 2 * t)
            for r in range(1, lim + 1):
                if word[i] == word[i - r] and word[i - 2 * r + 1 : i - r + 1] == word[i - r + 1 : i + 1]:
                    return True
            return False

        attempts = 0
        choice = [0]
        while choice:
            i = fixed + len(choice) - 1
            s = choice[-1]
            if s >= 3:
                choice.pop()
                if choice:
                    choice[-1] += 1
                continue
            word[i] = s
            if suffix_square(i):
                choice[-1] += 1
                continue
            if len(choice) == t:
                if not has_cyclic_repetition(word):
                    return tuple(word)
                attempts += 1
                if attempts > 200:
                    break
                choice[-1] += 1
            else:
                choice.append(0)
    raise RuntimeError(f"seam search failed for cycle length {n}")


@lru_cache(maxsize=None)
def cycle_colouring(n):
    """Cyclic sequence of length n over the minimum alphabet (3 symbols, or
    4 for the exceptional lengths) in which every arc of length <= n is
    nonrepetitive.  Small lengths get the lexicographically least word by
    backtracking; large ones a verified seam-closed square-free word."""
    if n < 3:
        raise ValueError("cycles have at least 3 vertices")
    k = cycle_alphabet_size(n)
    if n <= _EXACT_CYCLE_LIMIT:
        return _exact_cycle_word(n, k)
    return _seam_cycle_word(n)


# -- levellings ---------------------------------------------------------------


def _adjacency(T):
    if isinstance(T, embed.EmbeddedGraph):
        return [sorted(T.neighbours(v)) for v in range(T.n)]
    return [sorted(nb) for nb in T]


def bfs_levels(adj, root):
    n = len(adj)
    levels = [-1] * n
    levels[root] = 0
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if levels[w] == -1:
                    levels[w] = levels[v] + 1
                    nxt.append(w)
        frontier = nxt
    return levels


# -- tree colouring -----------------------------------------------------------


def _all_tree_paths(adj):
    n = len(adj)
    for u in range(n):
        parent = [-2] * n
        parent[u] = -1
        order = [u]
        qi = 0
        while qi < len(order):
            v = order[qi]
            qi += 1
            for w in adj[v]:
                if parent[w] == -2:
                    parent[w] = v
                    order.append(w)
        for v in range(u + 1, n):
            path = [v]
            x = v
            while x != u:
                x = parent[x]
                path.append(x)
            yield path


def tree_colouring(T, root=0, palette=(1, 2, 3, 4)):
    """Colour a tree so that every path is nonrepetitive, using at most the
    four palette colours: breadth-first levels from the root indexed into a
    palindrome-free nonrepetitive word.

    The output is not re-checked: along a tree path the levels fall one
    step at a time to the vertex nearest the root and then rise, and a
    square-free palindrome-free word read through such a level sequence has
    no repetition (Kündgen and Pelsmajer, Discrete Math. 2008).  The tests
    check this on every path of small and random trees.  The input is
    checked: palette, edge count and connectivity.
    """
    adj = _adjacency(T)
    n = len(adj)
    if len(palette) < 4 or len(set(palette)) < 4:
        raise ValueError("palette must contain four distinct colours")
    if n == 0:
        return ()
    edge_ends = sum(len(nb) for nb in adj)
    if edge_ends != 2 * (n - 1):
        raise ValueError("input is not a tree (wrong edge count)")
    levels = bfs_levels(adj, root)
    if min(levels) < 0:
        raise ValueError("input is not connected")

    word = palindrome_free_nonrepetitive(max(levels) + 1)
    return tuple(palette[word[levels[v]]] for v in range(n))
