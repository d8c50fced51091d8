"""Nonrepetitive sequences and the colourings built from them.

Symbols are non-negative integers; a sequence over alphabet size k uses
symbols 0..k-1.  A block s_1..s_{2r} is a repetition when s_i = s_{r+i} for
every i; a sequence is nonrepetitive (square-free) when no block is a
repetition, and palindrome-free when no block of length >= 2 reads the same
reversed.
"""

from __future__ import annotations

from thueplane import embed
from thueplane.kernels import _crossing_squares, find_square

#: Cycle lengths whose nonrepetitive chromatic number is 4 rather than 3.
EXCEPTIONAL_CYCLE_LENGTHS = frozenset({5, 7, 9, 10, 14, 17})

_MORPHISM = {0: (0, 1, 2), 1: (0, 2), 2: (1,)}


def has_repetition(seq):
    """(True, (start, half_length)) when some block of seq is a repetition,
    else (False, None).  The witness is the leftmost repetition, and the
    shortest at that start, as ``find_square`` names it."""
    seq = list(seq)
    if any(s < 0 for s in seq):
        raise ValueError("symbols must be non-negative")
    w = find_square(seq)
    return (w is not None), w


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


#: ``cycle_colouring(n)`` for n = 3..64 at index n - 3: the lexicographically
#: least cyclically square-free word over the minimum alphabet.  The tests
#: rebuild each one by exhaustive search (``support.exact_cycle_word``).
_CYCLE_WORDS = (
    "012",
    "0102",
    "01023",
    "010212",
    "0102013",
    "01021012",
    "010201203",
    "0102010313",
    "01020120212",
    "010201210212",
    "0102012021012",
    "01020103010213",
    "010201210120212",
    "0102012102010212",
    "01020103010201213",
    "010201202101210212",
    "0102012021020121012",
    "01020120210201021012",
    "010210120210201210212",
    "0102012021012102010212",
    "01020120210121020120212",
    "010201202101210201021012",
    "0102012021012010201210212",
    "01020120210120102101210212",
    "010201202101201021201210212",
    "0102012021012010201210120212",
    "01020120210120102012102010212",
    "010201202101201021012102010212",
    "0102012021012010210121020120212",
    "01020120210120102012021201210212",
    "010201202101201021012021020120212",
    "0102012021012010210120210201021012",
    "01020120210120102012021201210120212",
    "010201202101201020120212010201210212",
    "0102012021012010201202120102101210212",
    "01020120210120102012101201021201210212",
    "010201202101201020120212010201210120212",
    "0102012021012010201202120102012102010212",
    "01020120210120102012021201021012102010212",
    "010201202101201020120212010210121020120212",
    "0102012021012010201202120102101202102010212",
    "01020120210120102012021201021012010201210212",
    "010201202101201020120212010210120210201210212",
    "0102012021012010201202120102012101202101210212",
    "01020120210120102012021201020121012010210120212",
    "010201202101201020120212010201210120102101210212",
    "0102012021012010201202120102012101201021201210212",
    "01020120210120102012021201020121012021012102010212",
    "010201202101201020120212010201210120102120210120212",
    "0102012021012010201202120102012101201021012102010212",
    "01020120210120102012021201020121012010201202101210212",
    "010201202101201020120212010201210120102012021201210212",
    "0102012021012010201202120102012101201020120210201210212",
    "01020120210120102012021201020121012010210120210201210212",
    "010201202101201020120212010201210120102012021012102010212",
    "0102012021012010201202120102012101201020120210121020120212",
    "01020120210120102012021201020121012010201202102010210120212",
    "010201202101201020120212010201210120102012021012010201210212",
    "0102012021012010201202120102012101201020120210120102101210212",
    "01020120210120102012021201020121012010201202101201021201210212",
    "010201202101201020120212010201210120102012021012010201210120212",
    "0102012021012010201202120102012101201020120210120102012102010212",
)


def _suffix_square(word, i, max_half):
    """True when word[:i + 1] ends in a square of half at most ``max_half``."""
    for r in range(1, min((i + 1) // 2, max_half) + 1):
        if word[i] == word[i - r] and word[i - 2 * r + 1 : i - r + 1] == word[i - r + 1 : i + 1]:
            return True
    return False


def _closed_word(word, fixed):
    """First cyclic nonrepetitive word found by re-choosing the tail
    ``word[fixed:]`` of t symbols (in place) depth first, symbols 0, 1, 2 in
    increasing order; ``word[:fixed]`` must be square-free.  None when the
    search is exhausted or 201 full words failed.

    A partial word ending in a square of half at most 2t is cut.  A full
    word of n symbols is accepted when no square of half at most n // 2
    crosses either of its cuts, ``fixed`` in the word and the seam n in the
    doubled word, by the Main-Lorentz crossing step.  A square of the cycle
    that crosses neither lies in the square-free prefix or in the tail, and
    one in the tail, of half at most t / 2, was cut where it ends.  Most
    candidates fail at the seam with a short half, so the seam is first
    searched on its window of 4h symbols for halves h <= min(t, n // 2):
    a square found there is one the full step finds, and costs O(t)."""
    n = len(word)
    budget = 200
    choice = [0]  # the symbol tried at positions fixed, fixed + 1, ...
    while choice:
        i = fixed + len(choice) - 1
        if choice[-1] == 3:
            choice.pop()
            if choice:
                choice[-1] += 1
            continue
        word[i] = choice[-1]
        if not _suffix_square(word, i, 2 * (n - fixed)):
            if i + 1 < n:
                choice.append(0)
                continue
            ww, h = word + word, min(n - fixed, n // 2)
            if not (_crossing_squares(ww, n - 2 * h, n, n + 2 * h, h)
                    or _crossing_squares(ww, 0, n, 2 * n, n // 2)
                    or _crossing_squares(word, 0, fixed, n, n // 2)):
                return tuple(word)
            budget -= 1
            if budget < 0:
                return None
        choice[-1] += 1
    return None


def cycle_colouring(n):
    """Cyclic sequence of length n over the minimum alphabet (3 symbols, or
    4 for the exceptional lengths) in which every arc of length <= n is
    nonrepetitive.  Lengths up to 64 read ``_CYCLE_WORDS``; longer ones keep
    a prefix of ``ternary_nonrepetitive`` and re-choose a tail of t = 16,
    24, 32 or 48 symbols by ``_closed_word``."""
    if n < 3:
        raise ValueError("cycles have at least 3 vertices")
    if n - 3 < len(_CYCLE_WORDS):
        return tuple(map(int, _CYCLE_WORDS[n - 3]))
    base = ternary_nonrepetitive(n)
    for t in (16, 24, 32, 48):
        word = _closed_word(list(base), n - t)
        if word is not None:
            return word
    raise RuntimeError(f"no cyclic nonrepetitive word of length {n} over 3 symbols found")


# -- tree colouring -----------------------------------------------------------


def _colour_forest(G, rest, colours):
    """Tree-colour every component of G[rest] (each must be a tree) over
    {1..4}: breadth-first levels from the component's smallest vertex
    (``embed._levels``), indexed into one palindrome-free nonrepetitive
    word.  The word of a shallower tree is a prefix of the word made here
    for the deepest level, so each component gets the colours
    ``tree_colouring`` gives it alone."""
    level = embed._levels(G, sorted(rest), set(rest))
    if level:
        word = palindrome_free_nonrepetitive(max(level.values()) + 1)
        for x, k in level.items():
            colours[x] = 1 + word[k]


def tree_colouring(T):
    """Colour the tree T, an ``EmbeddedGraph``, over {1..4} so that every
    path is nonrepetitive: breadth-first levels from vertex 0 indexed into
    a palindrome-free nonrepetitive word, by the pipelines' own
    ``_colour_forest``.

    The output is not re-checked: along a tree path the levels fall one
    step at a time to the vertex nearest the root and then rise, and a
    square-free palindrome-free word read through such a level sequence has
    no repetition (Kündgen and Pelsmajer, Discrete Math. 2008).  The tests
    check this on every path of small and random trees.  The input is
    checked: n - 1 edges and one component.
    """
    if T.n == 0:
        return ()
    if len(T.origin) != 2 * (T.n - 1) or len(T.components) != 1:
        raise ValueError("input is not a tree")
    colours = [None] * T.n
    _colour_forest(T, range(T.n), colours)
    return tuple(colours)
