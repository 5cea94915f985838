"""Order-preserving parallel map; results never depend on the thread count."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

MAX_THREADS = 256  # each worker is an OS thread


def check_threads(threads: int) -> None:
    if not 1 <= threads <= MAX_THREADS:
        raise ValueError(f"threads must be in 1..{MAX_THREADS}, got {threads}")


def parallel_map(fn, items, threads: int = 1) -> list:
    check_threads(threads)
    items = list(items)
    if threads == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
