#!/usr/bin/env python3
"""Replica fixed-point branch data for the free-energy and overlap figures.

For each prior and order, writes replica_{prior}_d{d}.csv with all
branches (q, mu, free_energy) on an snr grid, plus a per-d threshold table
replica_thresholds_{prior}.csv, into --out-dir (default results/); the
branch tables draw the solution/free-energy/overlap curves, the threshold
table marks the appearance point and the free-energy crossing.
"""

import argparse
import pathlib
import sys

import numpy as np

from spiked_tensor import cli

OUT = pathlib.Path(__file__).resolve().parent.parent / "results"


def run(name: str, argv: list[str], out_dir: pathlib.Path) -> None:
    path = out_dir / f"{name}.csv"
    code = cli.main(["replica", *argv, "--out", str(path)])
    if code != 0:
        sys.exit(code)
    print(f"wrote {path}")


def main(out_dir: pathlib.Path = OUT) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    snrs = ",".join(repr(float(snr)) for snr in np.linspace(0.5, 2.5, 81))
    for prior in ("rademacher", "spherical"):
        for d in (2, 3):
            run(f"replica_{prior}_d{d}", ["--prior", prior, "--d", str(d), "--lambda", snrs],
                out_dir)
        run(f"replica_thresholds_{prior}", ["--prior", prior, "--d", "3..20", "--thresholds"],
            out_dir)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Replica fixed-point branch tables.")
    parser.add_argument("--out-dir", type=pathlib.Path, default=OUT)
    main(parser.parse_args().out_dir)
