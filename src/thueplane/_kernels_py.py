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

The compiled extension ``thueplane._kernels`` implements the same interface;
``thueplane.kernels`` picks whichever is available.
"""

import re

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
