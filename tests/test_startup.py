"""NumPy is loaded only by the states layer's Gram, PSD and GNS computations.

Each check runs in a fresh interpreter, since a test process has long since
imported NumPy itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

EXACT_SPEC = {"seed": 3, "runs": [
    {"catalog": "log_canonical", "d": 3, "ring": "series", "truncation": 3,
     "params": {"q": "exp_i"}, "probes": [{"kind": "overlaps"}, {"kind": "jacobi"}]},
    {"catalog": "symmetrized_log_canonical", "d": 2, "ring": "rational",
     "params": {"q": "const:3/5"},
     "probes": [{"kind": "q_identities", "dims": [2], "max_total": 3}]},
]}


def _numpy_loaded_after(body: str) -> bool:
    """Run ``body`` in a fresh interpreter; whether NumPy was imported by its end."""
    script = f"import sys\n{body}\nprint('numpy' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    return done.stdout.split()[-1] == "True"


def _cli(args) -> str:
    """Run the ``star`` command with ``args`` and require exit code 0."""
    return ("from starprod.cli import main\n"
            "try:\n"
            f"    main({args!r})\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code")


@pytest.mark.parametrize("body", ["import starprod", "import starprod.cli"])
def test_import_leaves_numpy_unloaded(body):
    assert not _numpy_loaded_after(body)


def test_exact_eval_leaves_numpy_unloaded():
    assert not _numpy_loaded_after(_cli(["eval", "--catalog", "log_canonical", "--d", "2",
                                         "--ring", "rational", "--param", "q=const:2",
                                         "--lhs", "x2", "--rhs", "x1"]))


def test_exact_verify_leaves_numpy_unloaded(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(EXACT_SPEC))
    assert not _numpy_loaded_after(_cli(["verify", "--spec", str(spec),
                                         "--out", str(tmp_path / "report.json")]))


def test_gram_matrix_loads_numpy():
    assert _numpy_loaded_after(
        "from starprod.states import StateFunctional, WickPoint, gram_matrix\n"
        "gram_matrix(StateFunctional(WickPoint((1 + 1j, 1 - 1j)), 0.3), 2)")
