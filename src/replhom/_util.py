"""Small shared helpers."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def thread_cap() -> int:
    """Worker cap from REPLHOM_THREADS (default 1: fully sequential)."""
    try:
        return max(1, int(os.environ.get("REPLHOM_THREADS", "1")))
    except ValueError:
        return 1


def pmap(fn, items):
    """Order-preserving map, fanned out over threads when the cap allows.

    Workers share the per-quiver sums and caches: they only read them or
    fill them with equal values, and a sum that two workers race to build
    is stored once (the first wins), so results and outputs stay
    deterministic.
    """
    items = list(items)
    cap = thread_cap()
    if cap <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=min(cap, len(items))) as pool:
        return list(pool.map(fn, items))
