"""Kernel selection: compiled extension if available, pure Python otherwise.

Set THUEPLANE_KERNEL=python to force the fallback where the extension is
built.  Neither benchmark sets it: ``thueplane bench --kernels`` swaps the
backends with ``use_backend``, and ``perfbench`` runs whichever backend is
picked here.  Symbols passed to the kernel must be non-negative integers; -1
is reserved as an internal sentinel.
"""

import os

from thueplane import _kernels_py

if os.environ.get("THUEPLANE_KERNEL", "").lower() == "python":
    _impl = _kernels_py
else:
    try:
        from thueplane import _kernels as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _kernels_py

BACKEND = _impl.BACKEND


def find_square(seq, max_half=0):
    """Return (start, half_length) of some repetition block in ``seq``, or
    None.  Only repetitions with half length <= max_half are reported when
    max_half is positive."""
    return _impl.find_square(seq, max_half)


def available_backends():
    """Name -> find_square for every importable backend."""
    backends = {"python": _kernels_py.find_square}
    try:
        from thueplane import _kernels

        backends["compiled"] = _kernels.find_square
    except ImportError:
        pass
    return backends


_default_impl = _impl


def use_backend(name):
    """Swap the active kernel (None restores the import-time choice).  All
    callers route through this module, so the swap is global; intended for
    the benchmark's backend comparison."""
    global _impl, BACKEND
    if name is None:
        _impl = _default_impl
    elif name == "python":
        _impl = _kernels_py
    elif name == "compiled":
        from thueplane import _kernels

        _impl = _kernels
    else:
        raise ValueError(f"unknown kernel backend {name!r}")
    BACKEND = _impl.BACKEND
