#!/usr/bin/env python3
"""Sparse PCA (d=2) bounds as a function of the sparsity rho.

Writes sparse_pca_d2.csv with the noise-conditioning lower bound, the
exhaustive-search upper bound and the rho -> 0 asymptote on a log-spaced
rho grid, into --out-dir (default results/).  Takes about 3 s on a 2-core
x86 machine: each lower bound is a fresh 2-D optimization.
"""

import argparse
import math
import pathlib

import numpy as np

from spiked_tensor import SpikePrior, threshold_report
from spiked_tensor.output import OutputSpec, write_table

OUT = pathlib.Path(__file__).resolve().parent.parent / "results"
RHOS = np.unique(np.concatenate([10.0 ** np.linspace(-4, -0.05, 16), [2 / 3, 1.0]]))
COLUMNS = ["rho", "lambda_lower", "lambda_upper", "asymptote", "capped_by_sigma"]


def sweep(rhos) -> list[dict]:
    rows = []
    for rho in rhos:
        rep = threshold_report(SpikePrior.sparse(float(rho)), 2)
        rows.append(
            {
                "rho": float(rho),
                "lambda_lower": rep.lambda_lower,
                "lambda_upper": rep.lambda_upper,
                "asymptote": math.nan if rep.asymptotic_lower is None else rep.asymptotic_lower,
                "capped_by_sigma": rep.lower.capped_by_sigma,
            }
        )
        print(f"rho={rho:.5f}: lower={rep.lambda_lower:.4f} upper={rep.lambda_upper:.4f}")
    return rows


def main(out_dir: pathlib.Path = OUT) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "sparse_pca_d2.csv"
    write_table(COLUMNS, sweep(RHOS), OutputSpec(format="csv", path=str(path)))
    print(f"wrote {path}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Sparse PCA (d=2) bounds against rho.")
    parser.add_argument("--out-dir", type=pathlib.Path, default=OUT)
    main(parser.parse_args().out_dir)
