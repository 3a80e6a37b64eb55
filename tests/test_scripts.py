"""Smoke runs of the scripts the README documents, in-process with small
arguments: each exits normally and prints the shape it promises."""

import json
import math
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(script, args, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [script] + args)
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("catalog", ["log_canonical", "quantum_weyl"])
def test_classical_limit_sweep_prints_one_row_per_hbar(catalog, monkeypatch, capsys):
    lines = _run("classical_limit_sweep.py",
                 ["--catalog", catalog, "--pairs", "2", "--max-degree", "2"],
                 monkeypatch, capsys)
    assert lines[0].split("\t") == ["hbar", "pair0", "pair1"]
    rows = [line.split("\t") for line in lines[1:]]
    assert len(rows) == 11  # the default hbar sequence, 1e-1 down to 1e-6
    hbars = [float(row[0]) for row in rows]
    assert hbars == sorted(hbars, reverse=True)
    for row in rows:
        assert len(row) == 3
        assert all(math.isfinite(float(v)) and float(v) >= 0 for v in row[1:])


def test_gns_demo_prints_spectrum_rank_and_operators(monkeypatch, capsys):
    lines = _run("gns_demo.py", ["--degree", "2"], monkeypatch, capsys)
    labels = [line.split()[0] for line in lines if line and not line.startswith((" ", "["))]
    for label in ("point", "hbar", "basis", "gram", "retained", "adjoint"):
        assert label in labels
    assert sum(line.startswith("left multiplication by w") for line in lines) == 2
    assert lines[-1].startswith("adjoint residual")
    assert float(lines[-1].split()[-1]) <= 1e-8


def test_src_size_prints_every_module_and_a_total_that_adds_up(monkeypatch, capsys):
    lines = _run("src_size.py", [], monkeypatch, capsys)
    assert lines[0].split() == ["module", "lines", "code", "defaults"]
    rows = [line.split() for line in lines[1:]]
    modules = sorted(path.name for path in (SCRIPTS.parent / "src" / "starprod").glob("*.py"))
    assert [row[0] for row in rows[:-1]] == modules
    counts = [(int(row[1]), int(row[2]), int(row[3])) for row in rows]
    assert all(0 < code < total and defaults >= 0 for total, code, defaults in counts)
    assert rows[-1][0] == "total"
    assert counts[-1] == tuple(map(sum, zip(*counts[:-1])))


def test_src_size_leaves_out_blank_lines_comments_and_docstrings():
    module = runpy.run_path(str(SCRIPTS / "src_size.py"))
    text = ('"""Module\n\ndocstring."""\n\n# a comment\nimport os\n\n\n'
            'class A:\n    """One line."""\n\n    def f(self):\n'
            '        """Two\n        lines."""\n        return "not a docstring"\n')
    assert module["module_size"](text) == (15, 4)


def test_src_size_counts_positional_and_keyword_only_defaults():
    module = runpy.run_path(str(SCRIPTS / "src_size.py"))
    text = ('def f(a, b=1, *args, c, d=2, **kw):\n    return lambda x=0: x\n\n\n'
            'class A:\n    def g(self, e=3):\n        def inner(h, i=4):\n'
            '            return h\n        return inner\n')
    # the lambda's default is no function parameter
    assert module["defaulted_parameters"](text) == 4


def _paired(args, pairs, monkeypatch, capsys) -> dict:
    """Run the script on this checkout against itself; check the printed
    shape and return the summary."""
    root = str(SCRIPTS.parent)
    with pytest.raises(SystemExit) as done:
        _run("paired_passes.py", ["--parent", root, "--change", root, "--pairs", str(pairs),
                                  *args], monkeypatch, capsys)
    assert done.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split("\t") == ["pair", "parent_s", "change_s", "ratio"]
    rows = [line.split("\t") for line in lines[1:1 + pairs]]
    assert [row[0] for row in rows] == [str(n) for n in range(pairs)]
    assert all(float(v) > 0 for row in rows for v in row[1:])
    assert lines[1 + pairs].startswith("change faster in ")
    assert lines[1 + pairs].endswith(f" of {pairs} pairs")
    assert [line.split("\t")[0] for line in lines[2 + pairs:5 + pairs]] == \
        ["parent", "change", "ratio"]
    summary = json.loads(lines[-1])
    assert len(lines) == 6 + pairs
    assert len(summary["parent_s"]) == len(summary["change_s"]) == pairs
    assert 0 <= summary["change_faster"] <= pairs
    for side in ("parent", "change", "ratio"):
        s = summary[side]
        assert s["q1"] <= s["median"] <= s["q3"]
    return summary


def test_paired_passes_alternates_two_checkouts_and_sums_up(monkeypatch, capsys):
    summary = _paired(["--size", "tiny"], 3, monkeypatch, capsys)
    assert summary["workload"] == "exact_assoc"


def test_paired_passes_times_fresh_verify_children(monkeypatch, capsys):
    summary = _paired(["--workload", "verify_default"], 2, monkeypatch, capsys)
    assert summary["workload"] == "verify_default"
