"""The figure scripts still reproduce the tables committed under results/."""

import csv
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ("figure_thresholds", "figure_sparse_pca", "replica_curves")


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cells(path):
    """The table's rows of cells, without the ``residual`` column, which
    differs across machines at the ulp level."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0]) if name != "residual"]
    return [[row[i] for i in keep] for row in rows]


def test_scripts_regenerate_every_committed_table(tmp_path):
    for name in SCRIPTS:
        _load_script(name).main(tmp_path)
    committed = sorted(path.name for path in (ROOT / "results").glob("*.csv"))
    assert sorted(path.name for path in tmp_path.iterdir()) == committed
    for name in committed:
        assert _cells(tmp_path / name) == _cells(ROOT / "results" / name), name
