import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thueplane import gen, words
from thueplane.words import (
    EXCEPTIONAL_CYCLE_LENGTHS,
    bfs_levels,
    cycle_alphabet_size,
    cycle_colouring,
    has_cyclic_repetition,
    has_repetition,
    is_palindrome_free,
    palindrome_free_nonrepetitive,
    ternary_nonrepetitive,
    tree_colouring,
)

from support import level_pattern, levelling_ok


def naive_repetitive(seq):
    n = len(seq)
    return any(
        seq[s : s + r] == seq[s + r : s + 2 * r]
        for s in range(n)
        for r in range(1, (n - s) // 2 + 1)
    )


# -- checkers -------------------------------------------------------------------


def test_repetition_examples():
    rep, witness = has_repetition([1, 3, 1, 2, 1, 2, 4])
    assert rep
    s, r = witness
    assert [1, 3, 1, 2, 1, 2, 4][s : s + 2 * r] == [1, 2, 1, 2]
    assert has_repetition([1, 2, 3, 2, 1, 3]) == (False, None)
    assert has_repetition([1, 2, 1, 3]) == (False, None)
    assert has_repetition([]) == (False, None)
    assert has_repetition([1, 2, 1, 2])[0]


def test_repetition_rejects_negative_symbols():
    with pytest.raises(ValueError):
        has_repetition([1, -1, 2])


@given(st.lists(st.integers(0, 3), max_size=30))
@settings(max_examples=300, deadline=None)
def test_has_repetition_matches_naive(seq):
    assert has_repetition(seq)[0] == naive_repetitive(seq)


def naive_palindrome_free(seq):
    n = len(seq)
    for s in range(n):
        for l in range(2, n - s + 1):
            block = seq[s : s + l]
            if block == block[::-1]:
                return False
    return True


def test_palindrome_examples():
    assert not is_palindrome_free([1, 2, 1])
    assert not is_palindrome_free([1, 1])
    assert is_palindrome_free([1, 2, 3])
    assert is_palindrome_free([])


@given(st.lists(st.integers(0, 3), max_size=20))
@settings(max_examples=300, deadline=None)
def test_palindrome_free_matches_naive(seq):
    assert is_palindrome_free(seq) == naive_palindrome_free(seq)


# -- generators -----------------------------------------------------------------


def test_ternary_empty_and_prefix_stability():
    assert ternary_nonrepetitive(0) == ()
    w = ternary_nonrepetitive(500)
    for n in (1, 7, 100, 499):
        assert ternary_nonrepetitive(n) == w[:n]


def test_ternary_needs_three_symbols():
    w = ternary_nonrepetitive(4)
    assert len(set(w)) == 3  # two symbols cannot reach length four


def test_word_properties_up_to_2000():
    tern = ternary_nonrepetitive(2000)
    assert not has_repetition(tern)[0]
    assert max(tern) <= 2
    pal = palindrome_free_nonrepetitive(2000)
    assert not has_repetition(pal)[0]
    assert is_palindrome_free(pal)
    assert max(pal) <= 3


def test_palindrome_free_small():
    assert len(palindrome_free_nonrepetitive(1)) == 1
    a, b = palindrome_free_nonrepetitive(2)
    assert a != b
    w = palindrome_free_nonrepetitive(50)
    assert not has_repetition(w)[0] and is_palindrome_free(w)


# -- cycle colourings -------------------------------------------------------------


def exists_three_symbol_cycle(n):
    """Independent exhaustive search over ternary assignments with naive
    cyclic checking."""
    seq = []

    def cyclic_ok():
        dbl = seq + seq
        for s in range(n):
            for r in range(1, n // 2 + 1):
                if dbl[s : s + r] == dbl[s + r : s + 2 * r]:
                    return False
        return True

    def suffix_ok(i):
        for r in range(1, (i + 2) // 2 + 1):
            if seq[i - 2 * r + 1 : i - r + 1] == seq[i - r + 1 : i + 1]:
                return False
        return True

    def ext(i):
        for s in range(3):
            seq.append(s)
            if suffix_ok(i):
                if i + 1 == n:
                    if cyclic_ok():
                        return True
                elif ext(i + 1):
                    return True
            seq.pop()
        return False

    return ext(0)


def test_cycle_minimum_alphabet_matches_exhaustive_search_up_to_17():
    for n in range(3, 18):
        assert exists_three_symbol_cycle(n) == (n not in EXCEPTIONAL_CYCLE_LENGTHS), n


def test_cycle_colourings_3_to_20():
    for n in range(3, 21):
        w = cycle_colouring(n)
        assert len(w) == n
        assert not has_cyclic_repetition(w)
        assert len(set(w)) <= cycle_alphabet_size(n)


def test_cycle_colouring_examples():
    assert cycle_colouring(3) == (0, 1, 2)
    assert len(set(cycle_colouring(5))) == 4
    assert len(set(cycle_colouring(18))) == 3


def test_cycle_colouring_large_seam():
    for n in (65, 230, 2001):
        w = cycle_colouring(n)
        assert len(set(w)) == 3
        assert not has_cyclic_repetition(w)


def test_cycle_colouring_rejects_small():
    with pytest.raises(ValueError):
        cycle_colouring(2)


# -- levellings -----------------------------------------------------------------


def test_levelling_ok_and_pattern():
    adj = [[1], [0, 2], [1]]
    assert levelling_ok(adj, [0, 1, 2])
    assert not levelling_ok(adj, [0, 2, 3])
    assert level_pattern([2, 1, 0], [5, 6, 7]) == (7, 6, 5)


def test_level_pattern_of_repetitions_matches():
    # colouring by level through a palindrome-free word: any repetitively
    # coloured path must have identical level patterns in its halves
    rnd = random.Random(5)
    word = palindrome_free_nonrepetitive(30)
    for trial in range(30):
        n = rnd.randrange(4, 11)
        G = gen.generate(gen.GenSpec("outerplane", n, trial))
        adj = [sorted(G.neighbours(v)) for v in range(n)]
        levels = bfs_levels(adj, 0)
        colours = [word[levels[v]] for v in range(n)]

        def paths(prefix, used):
            yield prefix
            for w in adj[prefix[-1]]:
                if w not in used:
                    yield from paths(prefix + [w], used | {w})

        for v in range(n):
            for p in paths([v], {v}):
                if len(p) % 2 == 0:
                    half = len(p) // 2
                    cs = [colours[x] for x in p]
                    if cs[:half] == cs[half:]:
                        assert level_pattern(p[:half], levels) == level_pattern(
                            p[half:], levels
                        )


# -- tree colouring ---------------------------------------------------------------


def all_paths_nonrepetitive(adj, colours):
    from thueplane.words import _all_tree_paths

    return all(
        not has_repetition([colours[v] for v in p])[0] for p in _all_tree_paths(adj)
    )


def test_tree_single_vertex():
    assert tree_colouring([[]]) == (1,)


def test_star_two_colours():
    adj = [[1, 2, 3, 4, 5]] + [[0]] * 5
    cols = tree_colouring(adj)
    assert len(set(cols)) == 2


def test_path10_nonrepetitive():
    adj = [[1]] + [[i - 1, i + 1] for i in range(1, 9)] + [[8]]
    cols = tree_colouring(adj)
    assert len(set(cols)) <= 4
    assert all_paths_nonrepetitive(adj, cols)


def test_tree_colouring_rejects_cycles_and_disconnection():
    with pytest.raises(ValueError):
        tree_colouring([[1, 2], [0, 2], [0, 1]])
    with pytest.raises(ValueError):
        tree_colouring([[1], [0], [3], [2]])


def test_tree_colouring_custom_palette():
    adj = [[1], [0, 2], [1, 3], [2]]
    cols = tree_colouring(adj, palette=(7, 8, 9, 10))
    assert set(cols) <= {7, 8, 9, 10}


def test_trees_exhaustive_paths_small():
    import networkx as nx

    for n in range(1, 10):
        for T in nx.nonisomorphic_trees(n) if n > 1 else [None]:
            if T is None:
                adj = [[]]
            else:
                adj = [sorted(T.neighbors(v)) for v in range(n)]
            cols = tree_colouring(adj)
            assert len(set(cols)) <= 4
            assert all_paths_nonrepetitive(adj, cols)


def test_random_trees_to_16_exhaustive_paths():
    sizes = [10 + seed % 7 for seed in range(150)]  # 10..16
    sizes += [17 + seed % 24 for seed in range(48)]  # 17..40, twice each
    for seed, n in enumerate(sizes):
        G = gen.generate(gen.GenSpec("tree", n, seed))
        adj = [sorted(G.neighbours(v)) for v in range(n)]
        cols = tree_colouring(adj)
        assert len(set(cols)) <= 4
        assert all_paths_nonrepetitive(adj, cols)


def test_tree_colouring_accepts_embedded_graph():
    G = gen.generate(gen.GenSpec("tree", 12, 5))
    cols = tree_colouring(G)
    adj = [sorted(G.neighbours(v)) for v in range(G.n)]
    assert all_paths_nonrepetitive(adj, cols)


CYCLE_COLOURING_DIGEST = "716eb734240b4cd4760b3902840e35df5d630da98d09cd70badf139f1bc4c0da"


def test_cycle_colouring_golden_digest():
    import hashlib

    h = hashlib.sha256()
    for n in list(range(3, 401)) + [1000, 2001, 3000]:
        h.update(f"{n}:{''.join(map(str, cycle_colouring(n)))};".encode())
    assert h.hexdigest() == CYCLE_COLOURING_DIGEST


def test_closed_word_budget_ends_the_search(monkeypatch):
    # the first full candidate of length 6 over {0, 1, 2}, 010201, wraps
    # round to a square, so a budget of 0 ends the search there
    calls = []

    def counted(seq):
        calls.append(tuple(seq))
        return has_cyclic_repetition(seq)

    monkeypatch.setattr(words, "has_cyclic_repetition", counted)
    assert words._closed_word([0] * 6, 0, 3, 6, 0) is None
    assert calls == [(0, 1, 0, 2, 0, 1)]
    assert words._closed_word([0] * 6, 0, 3, 6, math.inf) == cycle_colouring(6)


@pytest.mark.parametrize("n", [8, 65])
def test_cycle_colouring_raises_when_every_search_fails(monkeypatch, n):
    # n = 8 exhausts the full search, n = 65 the budget of every seam tail;
    # last in the file, as it empties the cache the tests above fill
    monkeypatch.setattr(words, "has_cyclic_repetition", lambda seq: True)
    cycle_colouring.cache_clear()
    with pytest.raises(RuntimeError):
        cycle_colouring(n)
