r"""Pure-Python repetition-detection kernel.

A *square* (repetition) in a sequence is a block of even length 2*l whose
second half equals its first half position-wise.  Every search here names
the same witness: the smallest square by start, then by half.
``find_square`` finds it in O(n log n) by divide and conquer (Main &
Lorentz, J. Algorithms 1984).  A segment's answer is the smaller of the
left half's answer and the smallest square crossing the midpoint, found
with Z-arrays in both orientations; the right half is searched only when
both are empty, so a square-free input costs what a decision costs.

Short segments are decided in C.  The sequence is written once as a
string, one character per symbol, and a segment of at most ``_SHORT``
symbols is searched with the regular expression ``(.+)\1`` (or
``(.{1,k})\1`` when ``max_half`` = k bounds the half length) by the
engine of ``re``.  The search stops at the leftmost start of a square, and
one lazy ``(.+?)\1`` match there names the shortest half, which is never
longer than the screen's, so it respects ``max_half``.  The screen
backtracks over every (start, half) pair, which is quadratic or worse, but
in C: on square-free ternary words of 128 symbols it took about 0.17 ms
against 1.4 ms for the divide and conquer (2-CPU VM, Python 3.11).
``_SHORT`` = 128 was chosen by replaying the kernel calls of the
benchmark's workloads with cutoffs from 64 to 256; 128 to 192 were
fastest, within noise of each other.  A symbol outside the range of
``chr`` turns the screen off for that call.  Symbols must be non-negative
integers; -1 is reserved as an internal sentinel.

A short facial walk, a cycle (the arcs of a cyclic word) and the
distinct-vertex windows of a facial walk have one function each, and these
three functions alone choose which search runs:

- ``_short_walk_square_free`` clears a walk of L <= ``_SHORT // 2`` darts if
  one search of its doubled colours finds no square of half <= L // 2.
- ``cyclic_square`` decides a cycle of L labels.  A cycle of at most
  ``_BAND`` labels, each below 256, goes to the per-half pass: one XOR pass
  per half length over the doubled word written as bytes, finished by one
  lazy match per start once a square is known early enough.  Every other
  cycle is ``find_square`` on the doubled word with halves up to L // 2.
  Its ``first`` mode stops the pass at the first square found, a decision.
- ``window_square`` is ``find_square`` on each maximal window, in start
  order, keeping the smallest hit.

The pass costs Θ(L²) bytes, quadratic but capped by the band, like the
screen below ``_SHORT``.  On square-free cycles it beat ``find_square`` on
the doubled word up to 4,000 labels (31-47 against 43-53 ms), drew level at
4,500 and lost from 5,000 on (167-177 against 109-123 ms at 8,000; best of
5, 2-CPU VM, Python 3.11), so the band is 4,096 labels.  A label of 256 or
more comes only from outside input (no pipeline colours with more than
22), and ``find_square`` decides it exactly.
"""

import re

#: read by perfbench's context line and by the report of ``thueplane bench``
BACKEND = "python"

_SEP = -1  # sentinel; symbols are assumed non-negative

#: longest segment the regex screen decides on its own
_SHORT = 128
_SQUARE = re.compile(r"(.+)\1", re.S)
#: _SQUARE_UPTO[k] matches squares of half length at most k (any, for k = 0)
_SQUARE_UPTO = (_SQUARE,) + tuple(re.compile(r"(.{1,%d})\1" % k, re.S) for k in range(1, _SHORT // 2))
#: at a fixed start the lazy group tries half lengths 1, 2, ... in order
_FIRST_SQUARE = re.compile(r"(.+?)\1", re.S)


def z_array(s):
    """Z-array of ``s``: z[i] = length of the longest common prefix of
    ``s`` and ``s[i:]`` (with z[0] = len(s))."""
    n = len(s)
    z = [0] * n
    if n == 0:
        return z
    z[0] = n
    first = s[0]
    l = r = 0
    for i in range(1, n):
        if s[i] != first:  # z[i] = 0: a match of length 0 never moves the window [l, r)
            continue
        k = 0
        if i < r:
            k = z[i - l]
            if k > r - i:  # a branch, not min(): this loop is the kernel's hot spot
                k = r - i
        while i + k < n and s[k] == s[i + k]:
            k += 1
        z[i] = k
        if i + k > r:
            l, r = i, i + k
    return z


def _crossing_centres(s, lo, mid, hi, max_half):
    """(l, first, last) for each half l of a square of s[lo:hi] that
    crosses position mid with its centre in s[lo:mid]: its centres, relative
    to lo, run from first to last."""
    u = s[lo:mid]
    v = s[mid:hi]
    p = len(u)
    q = len(v)
    if p == 0 or q == 0:
        return []
    z1 = z_array(u[::-1])          # z1[l] = longest common suffix of u, u[:p-l]
    z2 = z_array(v + [_SEP] + u)   # z2[q+1+i] = lcp(v, u[i:])
    lmax = p if max_half <= 0 else min(p, max_half)
    out = []
    for l in range(1, lmax + 1):
        k1 = z1[l] if l < p else 0
        k2 = z2[q + 1 + (p - l)]
        if k1 + k2 < l:  # then m_lo >= p - k1 > p - l + k2 >= m_hi
            continue
        # centre position m (relative to lo) of a square u[m-l:m+l];
        # m must keep the centre in u, cross mid, and fit in [lo, hi).
        m_lo = max(l, p - l + 1, p - k1)
        m_hi = min(p, p - l + k2, p + q - l)
        if m_lo <= m_hi:
            out.append((l, m_lo, m_hi))
    return out


def _find_square_segment(s, lo, hi, max_half, text=None, screen=None):
    if hi - lo < 2:
        return None
    if text is not None and hi - lo <= _SHORT:
        m = screen.search(text, lo, hi)
        return None if m is None else (m.start(), len(_FIRST_SQUARE.match(text, m.start(), hi).group(1)))
    mid = (lo + hi) // 2
    left = _find_square_segment(s, lo, mid, max_half, text, screen)
    hits = [(lo + first - l, l) for l, first, _ in _crossing_centres(s, lo, mid, hi, max_half)]
    # squares whose centre lies right of mid: search the reversal
    seg = s[lo:hi]
    seg.reverse()
    hits += [(hi - last - l, l) for l, _, last in _crossing_centres(seg, 0, hi - mid, hi - lo, max_half)]
    if left is not None:
        hits.append(left)
    # every square left of mid or across it starts before any right of mid
    return min(hits) if hits else _find_square_segment(s, mid, hi, max_half, text, screen)


def find_square(seq, max_half=0):
    """Locate the leftmost repetition in ``seq``.

    Returns (start, half_length) for the block seq[start : start+2*half]
    whose halves are equal with the smallest start, and the smallest half
    at that start, or None if ``seq`` is nonrepetitive.  If ``max_half`` is
    positive, only repetitions with half length <= max_half count.
    """
    s = list(seq)
    if len(s) < 2:
        return None
    try:
        text = "".join(map(chr, s))
    except (ValueError, TypeError, OverflowError):
        return _find_square_segment(s, 0, len(s), max_half)
    # a segment of at most _SHORT symbols holds no square of half > _SHORT // 2
    screen = _SQUARE_UPTO[max_half] if 0 < max_half < len(_SQUARE_UPTO) else _SQUARE
    return _find_square_segment(s, 0, len(s), max_half, text, screen)


def _short_walk_square_free(walk, origin, colours):
    """True clears the walk: its doubled colours hold every square of its facial paths."""
    if not 2 <= len(walk) <= _SHORT // 2:
        return False
    try:
        text = "".join([chr(colours[origin[d]]) for d in walk])
    except (ValueError, OverflowError):  # a colour past the range of chr
        return False
    return _SQUARE_UPTO[len(walk) // 2].search(text + text) is None


#: longest cycle, in labels, that the per-half pass decides on its own
_BAND = 4096
#: the pass hands starts 0..best to the match once _FINISH * (best + 1) is
#: at most the halves left: 16, not 4 or 8, never lost time on 350- to 20,000-cycles
_FINISH = 16


def cyclic_square(codes, first=False):
    """(start, half) of a square on the cycle ``codes``, a list of
    non-negative ints: the smallest by start and then half, or with
    ``first`` the first one the pass finds; None when every arc is
    square-free.  Which search runs is the rule in the module docstring."""
    L = len(codes)
    if L < 2:
        return None
    if L > _BAND or max(codes) > 255:
        # a square from start L or later recurs L earlier, so the leftmost starts before L
        return find_square(codes + codes, max_half=L // 2)
    return _cyclic_pass(codes, first)


def _cyclic_pass(codes, first):
    """``cyclic_square`` by the per-half pass, on labels below 256.

    One pass per half h: with the doubled walk read as an int T, one byte
    a label, the squares of half h are the runs of h zero bytes in
    T ^ (T >> 8h), searched among the starts before the best so far, so
    ties keep the smaller half.  Once a square is known early enough, one
    lazy match per start finishes.
    """
    L = len(codes)
    data = bytes(codes)
    D = int.from_bytes(data + data, "little")
    best, best_s = None, L
    for h in range(1, L // 2 + 1):
        k = best_s - 1 + 2 * h
        T = D & ((1 << 8 * k) - 1)
        X = (T ^ (T >> 8 * h)).to_bytes(k, "little")
        i = X.find(bytes(h), 0, best_s - 1 + h)
        if i >= 0:
            best_s, best = i, (i, h)
            if first:
                return best
            if _FINISH * (best_s + 1) <= L // 2 - h:
                break
    else:
        return best
    text = data.decode("latin-1") * 2
    for s in range(best_s):
        m = _FIRST_SQUARE.match(text, s, s + L)
        if m is not None:
            return s, len(m.group(1))
    return best


def window_square(codes, ends):
    """(start, half) of the smallest square, by start and then half, that
    starts at s and ends by ends[s] in the doubled walk ``codes + codes``,
    where ends[s] - s is the length of the longest distinct-vertex window
    from s; None when there is none.  ``find_square`` reads the maximal
    windows in start order, window 0 always, since a wrapped window that
    covers it would name its squares L starts late."""
    dbl = codes + codes
    best = None
    for s, end in enumerate(ends):
        if best is not None and s >= best[0]:
            break
        if s == 0 or end > ends[s - 1]:
            hit = find_square(dbl[s:end])
            if hit is not None and (best is None or (s + hit[0], hit[1]) < best):
                best = (s + hit[0], hit[1])
    return best
