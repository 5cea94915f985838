"""The --threads check.  Every command runs on the caller's thread, so the
flag is accepted and validated but changes no work and no output byte."""

from __future__ import annotations

MAX_THREADS = 256  # the range --threads has always accepted; no thread is started


def check_threads(threads: int) -> None:
    if not 1 <= threads <= MAX_THREADS:
        raise ValueError(f"threads must be in 1..{MAX_THREADS}, got {threads}")
