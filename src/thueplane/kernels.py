"""Pure-Python repetition-detection kernel.

A *square* (repetition) in a sequence is a block of even length 2*l whose
second half equals its first half position-wise.  ``find_square`` locates one
in O(n log n) by divide and conquer (Main & Lorentz, J. Algorithms 1984):
squares inside either half are found recursively, squares crossing the
midpoint are found with Z-arrays.

Short segments are screened first.  The sequence is written once as a
string, one character per symbol, and every segment of at most ``_SHORT``
symbols is searched with the regular expression ``(.+)\1`` (or
``(.{1,k})\1`` when ``max_half`` = k bounds the half length) by the C
engine of ``re``.  A segment the screen finds square-free returns None
without recursing; any other segment runs the divide and conquer unchanged.
The screen only prunes segments for which the recursion would return None,
so the witness is the same as without it.  The screen backtracks over
every (start, half) pair, which is quadratic or worse, but in C: on
square-free ternary words of 128 symbols it took about 0.17 ms against
1.4 ms for the divide and conquer (2-CPU VM, Python 3.11).  ``_SHORT`` = 128
was chosen by replaying the kernel calls of the benchmark's workloads with
cutoffs from 64 to 256; 128 to 192 were fastest, within noise of each other.
A symbol outside the range of ``chr`` turns the screen off for that call.
Symbols must be non-negative integers; -1 is reserved as an internal
sentinel.

Squares on a cycle, that is in the arcs of a cyclic word, have one routine
of their own, ``cyclic_square``: one XOR pass per half length over the
doubled word written as bytes.  Its exact mode returns the smallest
(start, half), the counterexample the verifier names; its first mode stops
at the first square found, a decision for ``words.has_cyclic_repetition``.
The pass costs Θ(w·L²) bytes for L labels of w bytes, so it decides a cycle
alone only inside a band, w·L <= ``_BAND`` bytes: there it is quadratic but
capped, like the screen below ``_SHORT``.  On square-free cycles it beat
``find_square`` on the doubled word 2-9x up to 6,000 bytes and drew level
between 12,000 and 16,000 bytes with one- and two-byte labels, so the band
is 8,192 bytes.  The decision rule: in the verifier, a simple face whose
doubled walk has at most ``_SHORT`` symbols goes to the screen, one inside
the band to the exact mode, and a longer one to ``find_square``, after
which only a failing face runs the exact mode; ``has_cyclic_repetition``
sends every word inside the band to the first mode.  Above the band the
exact mode also matches one start per ``_PACE`` halves, so it costs at
most about twice the cheaper of the pass and the per-start match.
"""

import re
import sys

#: read by perfbench's context line and by the report of ``thueplane bench``
BACKEND = "python"

_SEP = -1  # sentinel; symbols are assumed non-negative

#: longest segment the regex screen decides on its own
_SHORT = 128
_SQUARE = re.compile(r"(.+)\1", re.S)
#: _SQUARE_UPTO[k] matches squares of half length at most k (any, for k = 0)
_SQUARE_UPTO = (_SQUARE,) + tuple(re.compile(r"(.{1,%d})\1" % k, re.S) for k in range(1, _SHORT // 2))


def z_array(s):
    """Z-array of ``s``: z[i] = length of the longest common prefix of
    ``s`` and ``s[i:]`` (with z[0] = len(s))."""
    n = len(s)
    z = [0] * n
    if n == 0:
        return z
    z[0] = n
    l = r = 0
    for i in range(1, n):
        k = 0
        if i < r:
            k = min(r - i, z[i - l])
        while i + k < n and s[k] == s[i + k]:
            k += 1
        z[i] = k
        if i + k > r:
            l, r = i, i + k
    return z


def _crossing_square(s, lo, mid, hi, max_half):
    """Find a square of s[lo:hi] whose centre lies in s[lo:mid] and which
    crosses position mid.  Returns (start, half_length) or None."""
    u = s[lo:mid]
    v = s[mid:hi]
    p = len(u)
    q = len(v)
    if p == 0 or q == 0:
        return None
    z1 = z_array(u[::-1])          # z1[l] = longest common suffix of u, u[:p-l]
    z2 = z_array(v + [_SEP] + u)   # z2[q+1+i] = lcp(v, u[i:])
    lmax = p if max_half <= 0 else min(p, max_half)
    for l in range(1, lmax + 1):
        k1 = z1[l] if l < p else 0
        k2 = z2[q + 1 + (p - l)]
        # centre position m (relative to lo) of a square u[m-l:m+l];
        # m must keep the centre in u, cross mid, and fit in [lo, hi).
        m_lo = max(l, p - l + 1, p - k1)
        m_hi = min(p, p - l + k2, p + q - l)
        if m_lo <= m_hi:
            return (lo + m_lo - l, l)
    return None


def _find_square_segment(s, lo, hi, max_half, text=None, screen=None):
    if hi - lo < 2:
        return None
    if text is not None and hi - lo <= _SHORT and screen.search(text, lo, hi) is None:
        return None
    mid = (lo + hi) // 2
    res = _find_square_segment(s, lo, mid, max_half, text, screen)
    if res is not None:
        return res
    res = _find_square_segment(s, mid, hi, max_half, text, screen)
    if res is not None:
        return res
    res = _crossing_square(s, lo, mid, hi, max_half)
    if res is not None:
        return res
    # squares whose centre lies right of mid: search the reversal
    seg = s[lo:hi]
    seg.reverse()
    res = _crossing_square(seg, 0, hi - mid, hi - lo, max_half)
    if res is not None:
        a_rel, l = res
        return (hi - a_rel - 2 * l, l)
    return None


def find_square(seq, max_half=0):
    """Locate a repetition in ``seq``.

    Returns (start, half_length) for some block seq[start : start+2*half]
    whose halves are equal, or None if ``seq`` is nonrepetitive.  If
    ``max_half`` is positive, only repetitions with half length <= max_half
    are reported.  The witness is deterministic but not necessarily the
    leftmost one.
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


#: widest cycle, in bytes w·L, that ``cyclic_square`` decides on its own
_BAND = 8192
#: above the band the pass matches one start per _PACE halves: a start costs
#: the match 1.7-6 halves of the pass (L = 2,000 to 65,540, w = 1 to 3)
_PACE = 4
#: the pass hands starts s..best to the match once _FINISH * (best - s + 1) is
#: at most the halves left: 16, not 4 or 8, never lost time on 350- to 20,000-cycles
_FINISH = 16
#: at a fixed start the lazy group tries half lengths 1, 2, ... in order;
#: the second pattern reads text written two characters per label
_FIRST_SQUARE = (re.compile(r"(.+?)\1", re.S), re.compile(r"((?:..)+?)\1", re.S))
_CHARS = sys.maxunicode + 1


def _width(top):
    return max(1, (top.bit_length() + 7) // 8)


def in_band(seq):
    """True when the cycle ``seq`` fits the band: its L labels of w bytes, w
    for its largest label, take at most ``_BAND`` bytes."""
    return len(seq) * _width(max(seq)) <= _BAND


def first_halves(codes):
    """at(s, end): the smallest half of a square that starts at s and ends
    by ``end`` in the doubled labels ``codes``, else None; one C-level lazy
    match, written one character a label, two once ``chr`` runs out."""
    if max(codes) < _CHARS:
        width, text = 1, "".join(map(chr, codes))
    else:
        width, text = 2, "".join(chr(c // _CHARS) + chr(c % _CHARS) for c in codes)
    match = _FIRST_SQUARE[width - 1].match
    text += text

    def at(s, end):
        m = match(text, width * s, width * end)
        return None if m is None else len(m.group(1)) // width

    return at


def cyclic_square(codes, first=False):
    """(start, half) of a square on the cycle ``codes`` (non-negative ints),
    the smallest by start and then half, or with ``first`` the first one
    found, of the smallest half; None when every arc is square-free.

    One pass per half h: with the doubled walk read as an int T, w bytes a
    label, the squares of half h are the aligned runs of wh zero bytes in
    T ^ (T >> 8wh), searched among the starts before the best so far, so
    ties keep the smaller half.  The pass is Θ(w·L²) bytes, quadratic but
    capped by ``_BAND`` where it decides a cycle, like the regex screen
    below ``_SHORT``.  Once a square is known early enough, one lazy match
    per start finishes; above the band the pass also matches one start per
    ``_PACE`` halves, so it costs at most about twice the cheaper of the
    two searches.
    """
    L = len(codes)
    w = _width(max(codes))
    data = bytes(codes) if w == 1 else b"".join(c.to_bytes(w, "little") for c in codes)
    D = int.from_bytes(data + data, "little")
    pace = _PACE if w * L > _BAND else L
    best, best_s, s, at = None, L, 0, None  # starts below s hold no square
    for h in range(1, L // 2 + 1):
        k = w * (best_s - 1 + 2 * h)
        T = D & ((1 << 8 * k) - 1)
        X = (T ^ (T >> 8 * w * h)).to_bytes(k, "little")
        zero, stop = bytes(w * h), w * (best_s - 1 + h)
        i = X.find(zero, w * s, stop)
        while i > 0 and i % w:
            i = X.find(zero, i - i % w + w, stop)
        if i >= 0:
            best_s, best = i // w, (i // w, h)
            if first:
                return best
            if _FINISH * (best_s - s + 1) <= L // 2 - h:
                break
        if h % pace == 0:
            at = at or first_halves(codes)
            r = at(s, s + L)
            if r is not None:
                return s, r
            s += 1
            if s == best_s:
                return best
    else:
        return best
    at = at or first_halves(codes)
    for s in range(s, best_s):
        r = at(s, s + L)
        if r is not None:
            return s, r
    return best
