"""Exact work counts from the interpreter's line events.

``count_lines`` runs a call under ``sys.settrace`` and counts the ``line``
events of every frame whose code lies in the ``thueplane`` package, per
code object.  The counts are the lines the package runs: identical from
run to run and from machine to machine on one Python version, and blind
only to work done in C (a ``sorted``, a ``list.index``, a big-int
operation).  Tracing costs 10-30 times the untraced call.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
from collections import Counter

import thueplane

PACKAGE_DIR = os.path.dirname(os.path.abspath(thueplane.__file__)) + os.sep


def count_lines(call):
    """(call(), Counter of code object -> line events in the package)."""
    counts = Counter()

    def local(frame, event, _arg):
        if event == "line":
            counts[frame.f_code] += 1
        return local

    def enter(frame, _event, _arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE_DIR) else None

    before = sys.gettrace()
    sys.settrace(enter)
    try:
        result = call()
    finally:
        sys.settrace(before)
    return result, counts


def by_function(counts):
    """The counts summed per ``module.qualified_name``."""
    out = Counter()
    for code, k in counts.items():
        module = os.path.splitext(os.path.basename(code.co_filename))[0]
        out[f"{module}.{getattr(code, 'co_qualname', code.co_name)}"] += k
    return out


def fit_exponent(points):
    """Least-squares slope of log(count) against log(n) over (n, count) points."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(k) for _, k in points]
    return statistics.linear_regression(xs, ys).slope
