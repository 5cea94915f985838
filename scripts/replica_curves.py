#!/usr/bin/env python3
"""Replica fixed-point branch data for the free-energy and overlap figures.

For each prior and order, writes results/replica_{prior}_d{d}.csv with all
branches (q, mu, free_energy) on an snr grid, plus a per-d threshold table
results/replica_thresholds_{prior}.csv; the branch tables draw the
solution/free-energy/overlap curves, the threshold table marks the
appearance point and the free-energy crossing.
"""

import pathlib
import sys

import numpy as np

from spiked_tensor.cli import main

OUT = pathlib.Path(__file__).resolve().parent.parent / "results"


def run(name: str, argv: list[str]) -> None:
    path = OUT / f"{name}.csv"
    code = main(["replica", *argv, "--out", str(path)])
    if code != 0:
        sys.exit(code)
    print(f"wrote {path}")


if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)
    snrs = ",".join(repr(float(snr)) for snr in np.linspace(0.5, 2.5, 81))
    for prior in ("rademacher", "spherical"):
        for d in (2, 3):
            run(f"replica_{prior}_d{d}", ["--prior", prior, "--d", str(d), "--lambda", snrs])
        run(f"replica_thresholds_{prior}", ["--prior", prior, "--d", "3..20", "--thresholds"])
