"""The figure scripts still reproduce the tables committed under results/."""

import importlib.util
import pathlib

from spiked_tensor.output import OutputSpec, render

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_figure_sparse_pca_first_row_matches_committed_table():
    # one sparse d = 2 bound, the first rho of the script's own grid; the row
    # is printed as the script writes it, so all five cells compare at 9 digits
    script = _load_script("figure_sparse_pca")
    rows = script.sweep(script.RHOS[:1])
    printed = render(script.COLUMNS, rows, OutputSpec()).splitlines()
    committed = (ROOT / "results" / "sparse_pca_d2.csv").read_text(encoding="utf-8").splitlines()
    assert printed == committed[:2]
