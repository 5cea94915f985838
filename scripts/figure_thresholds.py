#!/usr/bin/env python3
"""Threshold curves vs tensor order (spherical and Rademacher priors).

Writes thresholds_{prior}.csv into --out-dir (default results/) with per-d
columns: the rigorous lower/upper bounds, the noise injective-norm limit,
the replica prediction and the large-d expansions.  Plot lambda-vs-d from
these tables to get the phase-diagram comparison figures.
"""

import argparse
import pathlib
import sys

from spiked_tensor import cli

OUT = pathlib.Path(__file__).resolve().parent.parent / "results"


def run(prior: str, d_range: str, out_dir: pathlib.Path) -> None:
    path = out_dir / f"thresholds_{prior}.csv"
    code = cli.main(
        [
            "thresholds", "--prior", prior, "--d", d_range,
            "--replica", "--asymptotics", "--out", str(path),
        ]
    )
    if code != 0:
        sys.exit(code)
    print(f"wrote {path}")


def main(out_dir: pathlib.Path = OUT, d_range: str = "2..30") -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    run("spherical", d_range, out_dir)
    run("rademacher", d_range, out_dir)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Threshold curves against the order d.")
    parser.add_argument("d_range", nargs="?", default="2..30")
    parser.add_argument("--out-dir", type=pathlib.Path, default=OUT)
    args = parser.parse_args()
    main(args.out_dir, args.d_range)
