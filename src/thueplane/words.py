"""Nonrepetitive sequences and the colourings built from them.

Symbols are non-negative integers; a sequence over alphabet size k uses
symbols 0..k-1.  A block s_1..s_{2r} is a repetition when s_i = s_{r+i} for
every i; a sequence is nonrepetitive (square-free) when no block is a
repetition, and palindrome-free when no block of length >= 2 reads the same
reversed.
"""

from __future__ import annotations

import math
from functools import lru_cache

from thueplane import embed
from thueplane.kernels import cyclic_square, find_square

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
    repetition (arcs are the paths of a cycle graph), by the first mode of
    ``kernels.cyclic_square``."""
    return cyclic_square(list(seq), first=True) is not None


def cycle_alphabet_size(n):
    return 4 if n in EXCEPTIONAL_CYCLE_LENGTHS else 3


_EXACT_CYCLE_LIMIT = 64


def _suffix_square(word, i, max_half):
    """True when word[:i + 1] ends in a square of half at most ``max_half``."""
    for r in range(1, min((i + 1) // 2, max_half) + 1):
        if word[i] == word[i - r] and word[i - 2 * r + 1 : i - r + 1] == word[i - r + 1 : i + 1]:
            return True
    return False


def _closed_word(word, fixed, k, max_half, budget):
    """First cyclic nonrepetitive word found by re-choosing ``word[fixed:]``
    (in place) depth first, symbols 0..k-1 in increasing order: a prefix
    ending in a square of half at most ``max_half`` is cut, and a full word
    is accepted when ``has_cyclic_repetition`` finds no square.  None when
    the search is exhausted or ``budget`` + 1 full words failed (``math.inf``:
    no budget)."""
    n = len(word)
    choice = [0]  # the symbol tried at positions fixed, fixed + 1, ...
    while choice:
        i = fixed + len(choice) - 1
        if choice[-1] == k:
            choice.pop()
            if choice:
                choice[-1] += 1
            continue
        word[i] = choice[-1]
        if not _suffix_square(word, i, max_half):
            if i + 1 < n:
                choice.append(0)
                continue
            if not has_cyclic_repetition(word):
                return tuple(word)
            budget -= 1
            if budget < 0:
                return None
        choice[-1] += 1
    return None


@lru_cache(maxsize=None)
def cycle_colouring(n):
    """Cyclic sequence of length n over the minimum alphabet (3 symbols, or
    4 for the exceptional lengths) in which every arc of length <= n is
    nonrepetitive, by ``_closed_word``.  Small lengths get the
    lexicographically least word; large ones keep a square-free prefix and
    re-choose a tail of t symbols, 200 failed candidates allowed per t."""
    if n < 3:
        raise ValueError("cycles have at least 3 vertices")
    k = cycle_alphabet_size(n)
    exact = n <= _EXACT_CYCLE_LIMIT  # one tail, the whole word, no budget
    base = ternary_nonrepetitive(n)
    for t in (n,) if exact else (16, 24, 32, 48):
        word = _closed_word(list(base), n - t, k, 2 * t, math.inf if exact else 200)
        if word is not None:
            return word
    raise RuntimeError(f"no cyclic nonrepetitive word of length {n} over {k} symbols found")


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
    if len(T.edges) != T.n - 1 or len(T.components) != 1:
        raise ValueError("input is not a tree")
    colours = [None] * T.n
    _colour_forest(T, range(T.n), colours)
    return tuple(colours)
