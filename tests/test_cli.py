"""The star command line: eval, verify, report, gram, gns."""

import hashlib
import json
import math

import pytest
from click.testing import CliRunner

from starprod.cli import main

SMALL_SPEC = {
    "schema": "starprod/1",
    "seed": 7,
    "runs": [
        {"catalog": "log_canonical", "d": 2, "ring": "complex",
         "params": {"q": "exp_i"}, "hbar": [0.4],
         "probes": [{"kind": "oracle", "max_degree": 2},
                    {"kind": "submultiplicativity", "rho": [1.0, 1.0],
                     "samples": 40, "max_degree": 4}]},
    ],
}

FAILING_SPEC = {
    "schema": "starprod/1",
    "seed": 7,
    "runs": [
        {"catalog": "log_canonical", "d": 2, "ring": "complex",
         "params": {"q": "affine"}, "hbar": [1.0],
         "probes": [{"kind": "submultiplicativity", "rho": [1.0, 1.0],
                     "samples": 30, "max_degree": 8}]},
    ],
}


@pytest.fixture
def runner():
    return CliRunner()


def test_eval_spec_example(runner):
    result = runner.invoke(main, ["eval", "--catalog", "log_canonical", "--d", "2",
                                  "--param", "q=exp_i", "--hbar", "0.5",
                                  "--lhs", "x2", "--rhs", "x1"])
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "(0.87758+0.47943i)*x1*x2"


def test_eval_unit(runner):
    result = runner.invoke(main, ["eval", "--catalog", "log_canonical", "--d", "2",
                                  "--param", "q=exp_i", "--hbar", "0.5",
                                  "--lhs", "1", "--rhs", "2*x1 + x2"])
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "2*x1 + x2"


def test_eval_classical_limit_at_zero(runner):
    result = runner.invoke(main, ["eval", "--catalog", "log_canonical", "--d", "2",
                                  "--param", "q=exp_i", "--hbar", "0",
                                  "--lhs", "x2", "--rhs", "x1"])
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "x1*x2"


def test_eval_json_payload(runner):
    result = runner.invoke(main, ["eval", "--catalog", "log_canonical", "--d", "2",
                                  "--param", "q=exp_i", "--hbar", "0.5", "--json",
                                  "--lhs", "x2", "--rhs", "x1"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["reduction_count"] == 1
    assert payload["catalog"] == "log_canonical"
    assert payload["result"] == "(0.87758+0.47943i)*x1*x2"


def test_eval_parse_error_exits_2(runner):
    result = runner.invoke(main, ["eval", "--catalog", "log_canonical", "--d", "2",
                                  "--hbar", "0.5", "--lhs", "x5", "--rhs", "x1"])
    assert result.exit_code == 2


def test_eval_step_limit_exits_1(runner, tmp_path):
    table = {"dimension": 2, "kind": "x", "ring": "rational", "parameters": {},
             "relations": [{"j": 2, "i": 1, "tail": "x1^2*x2^2"}]}
    path = tmp_path / "diverges.json"
    path.write_text(json.dumps(table))
    result = runner.invoke(main, ["eval", "--phi", str(path), "--ring", "rational",
                                  "--lhs", "x2", "--rhs", "x1^2"])
    assert result.exit_code == 1


def test_eval_with_phi_table(runner, tmp_path):
    table = {"dimension": 2, "kind": "x", "ring": "complex",
             "parameters": {"q": "exp_i"},
             "relations": [{"j": 2, "i": 1, "tail": "(q-1)*x1*x2"}]}
    path = tmp_path / "logcanonical.json"
    path.write_text(json.dumps(table))
    result = runner.invoke(main, ["eval", "--phi", str(path), "--hbar", "0.5",
                                  "--lhs", "x2", "--rhs", "x1"])
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "(0.87758+0.47943i)*x1*x2"


def test_verify_small_spec_passes(runner, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SMALL_SPEC))
    out_path = tmp_path / "report.json"
    result = runner.invoke(main, ["verify", "--spec", str(spec_path),
                                  "--out", str(out_path)])
    assert result.exit_code == 0
    report = json.loads(out_path.read_text())
    assert report["schema"] == "starprod/1"
    assert report["pass"] is True
    assert len(report["suites"]) == 2


def test_verify_failing_probe_exits_1(runner, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(FAILING_SPEC))
    result = runner.invoke(main, ["verify", "--spec", str(spec_path),
                                  "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 1


def test_verify_bad_config_exits_2(runner, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"runs": [{"catalog": "log_canonical",
                                               "probes": [{"kind": "nonsense"}]}]}))
    result = runner.invoke(main, ["verify", "--spec", str(spec_path)])
    assert result.exit_code == 2


def test_verify_empty_probe_list_passes(runner, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"seed": 1, "runs": [
        {"catalog": "log_canonical", "d": 2, "probes": []}]}))
    result = runner.invoke(main, ["verify", "--spec", str(spec_path),
                                  "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 0


def test_verify_deterministic_bytes(runner, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SMALL_SPEC))
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        result = runner.invoke(main, ["verify", "--spec", str(spec_path),
                                      "--out", str(out), "--cases"])
        assert result.exit_code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_default_verify_report_is_pinned(runner, tmp_path):
    # the bundled suite at seed 42, byte for byte: a change to any product
    # route, float rounding included, shows up here
    report, cases = tmp_path / "report.json", tmp_path / "cases.csv"
    result = runner.invoke(main, ["verify", "--seed", "42", "--out", str(report),
                                  "--csv", str(cases)])
    assert result.exit_code == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == \
        "5c1160fa9c9edb0bc5a590e81a7c5fdf438e9a41357dc257f71cf1f2b5d39c09"
    assert hashlib.sha256(cases.read_bytes()).hexdigest() == \
        "8f5fe8218254a995bbbfa0e135ed26f02c816101165beac3bdf796f4d9775bf5"


def test_verify_formats_inputs_only_for_case_outputs(runner, tmp_path, monkeypatch):
    # without --csv or --cases no case digest is read, so no input is
    # formatted; the report is the same bytes either way
    import starprod.probes
    calls = []
    real = starprod.probes.format_poly

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(starprod.probes, "format_poly", counting)
    plain, with_csv = tmp_path / "plain.json", tmp_path / "with_csv.json"
    result = runner.invoke(main, ["verify", "--seed", "42", "--out", str(plain)])
    assert result.exit_code == 0
    assert calls == []
    result = runner.invoke(main, ["verify", "--seed", "42", "--out", str(with_csv),
                                  "--csv", str(tmp_path / "cases.csv")])
    assert result.exit_code == 0
    assert calls
    assert plain.read_bytes() == with_csv.read_bytes()


def test_verify_csv_digests_equal_eager_digests(runner, tmp_path):
    # SMALL_SPEC's submultiplicativity cases, drawn again as the suite draws
    # them: its monomial sweep, then random pairs from the suite's own RNG
    import csv
    import random

    from starprod.poly import Polynomial
    from starprod.probes import _poly_digest, random_polynomial
    from starprod.scalars import make_ring

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SMALL_SPEC))
    csv_path = tmp_path / "cases.csv"
    result = runner.invoke(main, ["verify", "--spec", str(spec_path),
                                  "--out", str(tmp_path / "r.json"), "--csv", str(csv_path)])
    assert result.exit_code == 0
    with open(csv_path, newline="") as fh:
        got = [row["digest"] for row in csv.DictReader(fh)
               if row["probe"] == "submultiplicativity"]
    ring = make_ring("complex")
    rng = random.Random("7:0:1:submultiplicativity:0.4")
    pairs = [(Polynomial.monomial(ring, 2, (0, n)), Polynomial.monomial(ring, 2, (n, 0)))
             for n in range(1, 5)]
    pairs += [(random_polynomial(rng, ring, 2, 4), random_polynomial(rng, ring, 2, 4))
              for _ in range(40)]
    assert got == [_poly_digest(f, g) for f, g in pairs]


def test_verify_jobs_option_is_a_usage_error(runner):
    # suites run serially in one process; there is no worker-count option
    result = runner.invoke(main, ["verify", "--jobs", "2"])
    assert result.exit_code == 2
    assert "--jobs" in result.output


def test_verify_csv_cases(runner, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SMALL_SPEC))
    csv_path = tmp_path / "cases.csv"
    result = runner.invoke(main, ["verify", "--spec", str(spec_path),
                                  "--out", str(tmp_path / "r.json"),
                                  "--csv", str(csv_path)])
    assert result.exit_code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "catalog,probe,hbar,digest,lhs,rhs,margin"
    assert len(lines) > 40


def test_report_merges_and_later_wins(runner, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SMALL_SPEC))
    r1 = tmp_path / "r1.json"
    runner.invoke(main, ["verify", "--spec", str(spec_path), "--out", str(r1)])
    # second report with one overlapping key and one new key
    doc = json.loads(r1.read_text())
    doc["suites"] = [dict(doc["suites"][0], worst_margin=123.0),
                     {"catalog": "other", "probe": "oracle", "hbar": None,
                      "pass": True, "worst_margin": 1.0, "case_count": 1}]
    r2 = tmp_path / "r2.json"
    r2.write_text(json.dumps(doc))
    result = runner.invoke(main, ["report", str(r1), str(r2)])
    assert result.exit_code == 0
    assert "warning: duplicate key" in result.output
    lines = [l for l in result.output.splitlines() if not l.startswith("warning")]
    # header + 2 from r1 (one overwritten) + 1 new
    assert len(lines) == 4
    assert any("123.0" in l for l in lines)


def test_report_empty_inputs_header_only(runner):
    result = runner.invoke(main, ["report"])
    assert result.exit_code == 0
    assert result.output.strip() == "catalog,probe,hbar,pass,worst_margin,case_count"


def test_report_schema_mismatch_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "other/9", "suites": []}))
    result = runner.invoke(main, ["report", str(bad)])
    assert result.exit_code == 2


def test_gram_command(runner, tmp_path):
    out = tmp_path / "gram.json"
    result = runner.invoke(main, ["gram", "--catalog", "wick_log_canonical",
                                  "--hbar", "0.5", "--z", "1+0i,1+0i",
                                  "--degree", "3", "--out", str(out)])
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "starprod/1"
    n = len(payload["basis"])
    assert payload["gram"]["shape"] == [n, n]
    assert len(payload["gram"]["entries"]) == n * n
    assert payload["psd"]["pass"] is True


def test_gram_rejects_bad_point(runner):
    result = runner.invoke(main, ["gram", "--hbar", "0.5", "--z", "1+1i,1+1i"])
    assert result.exit_code == 2


def test_gns_command(runner, tmp_path):
    out = tmp_path / "gns.json"
    result = runner.invoke(main, ["gns", "--hbar", str(math.log(2)),
                                  "--z", "1+0i,1+0i", "--degree", "1",
                                  "--report", str(out)])
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    assert payload["rank"] == 2
    assert payload["adjoint_residual"] <= 1e-8
    assert "w1" in payload["operators"]


def test_eval_hbar_list(runner):
    result = runner.invoke(main, ["eval", "--catalog", "log_canonical", "--d", "2",
                                  "--param", "q=exp_i", "--hbar", "0,0.5",
                                  "--lhs", "x2", "--rhs", "x1"])
    assert result.exit_code == 0
    lines = [l for l in result.output.splitlines() if l.startswith("hbar=")]
    assert lines[0] == "hbar=0.0: x1*x2"
    assert lines[1] == "hbar=0.5: (0.87758+0.47943i)*x1*x2"


def test_verify_seed_env_fallback(runner, tmp_path, monkeypatch):
    spec_path = tmp_path / "spec.json"
    spec = dict(SMALL_SPEC)
    spec.pop("seed", None)
    spec_path.write_text(json.dumps(spec))
    monkeypatch.setenv("STARPROD_SEED", "123")
    out = tmp_path / "env.json"
    result = runner.invoke(main, ["verify", "--spec", str(spec_path),
                                  "--out", str(out)])
    assert result.exit_code == 0
    assert json.loads(out.read_text())["seed"] == 123


@pytest.mark.parametrize("env,seed,message", [
    ("abc", 7, "error: STARPROD_SEED must be an integer, got 'abc'\n"),
    (None, "x", "error: the spec's 'seed' must be an integer, got 'x'\n"),
    (None, 1.5, "error: the spec's 'seed' must be an integer, got 1.5\n"),
    (None, True, "error: the spec's 'seed' must be an integer, got True\n"),
])
def test_verify_seed_that_is_no_integer_exits_2_naming_its_source(runner, tmp_path, monkeypatch,
                                                                  env, seed, message):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({**SMALL_SPEC, "seed": seed}))
    if env is None:
        monkeypatch.delenv("STARPROD_SEED", raising=False)
    else:
        monkeypatch.setenv("STARPROD_SEED", env)
    result = runner.invoke(main, ["verify", "--spec", str(spec_path)])
    assert result.exit_code == 2
    assert result.stderr == message


def test_verify_unknown_catalog_exits_2(runner, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"runs": [
        {"catalog": "moyal", "probes": [{"kind": "overlaps"}]}]}))
    result = runner.invoke(main, ["verify", "--spec", str(spec_path)])
    assert result.exit_code == 2


def test_verify_run_without_catalog_or_phi_exits_2(runner, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"runs": [{"probes": [{"kind": "overlaps"}]}]}))
    result = runner.invoke(main, ["verify", "--spec", str(spec_path)])
    assert result.exit_code == 2


def test_eval_symmetrized_exact(runner):
    result = runner.invoke(main, ["eval", "--catalog", "symmetrized_log_canonical",
                                  "--d", "2", "--param", "q=const:3/2",
                                  "--ring", "rational", "--lhs", "x1", "--rhs", "x2"])
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "4/5*x1*x2"


def test_eval_phi_respects_declared_ring(runner, tmp_path):
    table = {"dimension": 2, "kind": "x", "ring": "rational",
             "parameters": {"q": {"rule": "constant", "value": "5/4"}},
             "relations": [{"j": 2, "i": 1, "tail": "(q-1)*x1*x2"}]}
    path = tmp_path / "exact.json"
    path.write_text(json.dumps(table))
    result = runner.invoke(main, ["eval", "--phi", str(path),
                                  "--lhs", "x2", "--rhs", "x1"])
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "5/4*x1*x2"


def test_verify_with_phi_table_run(runner, tmp_path):
    table = {"dimension": 3, "kind": "x", "ring": "series", "truncation_order": 4,
             "parameters": {"q": "exp_i"},
             "relations": [{"j": 2, "i": 1, "tail": "(q-1)*x1*x2"},
                           {"j": 3, "i": 1, "tail": "(q-1)*x1*x3"},
                           {"j": 3, "i": 2, "tail": "(q-1)*x2*x3"}]}
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps(table))
    spec = {"schema": "starprod/1", "seed": 5, "runs": [
        {"phi": str(table_path), "ring": "series", "truncation": 4,
         "probes": [{"kind": "overlaps"}, {"kind": "jacobi"},
                    {"kind": "first_order", "pairs": 10, "max_degree": 2},
                    {"kind": "oracle", "max_degree": 2}]}]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["verify", "--spec", str(spec_path),
                                  "--out", str(out)])
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    assert len(report["suites"]) == 4 and report["pass"] is True


# -- table-file faults are config errors: exit 2, one error line, no traceback

MISSING_KEY = {"dimension": 2, "ring": "rational",
               "relations": [{"j": 2, "tail": "x1*x2"}]}
DUPLICATED = {"dimension": 2, "ring": "rational",
              "relations": [{"j": 2, "i": 1, "tail": "x1*x2"},
                            {"j": 2, "i": 1, "tail": "2*x1*x2"}]}
TABLE_FAULTS = {"missing_file": (None, "cannot read table file"),
                "missing_key": (MISSING_KEY, "lacks field 'i'"),
                "duplicated": (DUPLICATED, "given twice")}


def _table_path(tmp_path, fault):
    table, _ = TABLE_FAULTS[fault]
    path = tmp_path / "table.json"
    if table is not None:
        path.write_text(json.dumps(table))
    return path


def _assert_config_failure(result, message):
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no exception escaped
    assert result.stderr.startswith("error: ")
    assert message in result.stderr


@pytest.mark.parametrize("fault", sorted(TABLE_FAULTS))
def test_eval_table_file_fault_exits_2(runner, tmp_path, fault):
    path = _table_path(tmp_path, fault)
    result = runner.invoke(main, ["eval", "--phi", str(path), "--lhs", "x2", "--rhs", "x1"])
    _assert_config_failure(result, TABLE_FAULTS[fault][1])


@pytest.mark.parametrize("fault", sorted(TABLE_FAULTS))
def test_verify_table_file_fault_exits_2(runner, tmp_path, fault):
    path = _table_path(tmp_path, fault)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"runs": [{"phi": str(path),
                                               "probes": [{"kind": "overlaps"}]}]}))
    result = runner.invoke(main, ["verify", "--spec", str(spec_path)])
    _assert_config_failure(result, TABLE_FAULTS[fault][1])


def test_verify_table_whose_tail_does_not_parse_exits_2(runner, tmp_path):
    # x5 does not exist in dimension 2: the spec fails when it is loaded,
    # as `star eval --phi` does, not as a crashed suite
    table = {"dimension": 2, "ring": "rational",
             "relations": [{"j": 2, "i": 1, "tail": "x5"}]}
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"runs": [{"phi": str(path),
                                               "probes": [{"kind": "overlaps"}]}]}))
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["verify", "--spec", str(spec_path), "--out", str(out)])
    _assert_config_failure(result, "generator index 5 out of range 1..2")
    assert not out.exists()
    result = runner.invoke(main, ["eval", "--phi", str(path), "--lhs", "x2", "--rhs", "x1"])
    _assert_config_failure(result, "generator index 5 out of range 1..2")


# -- a division by an exact zero in polynomial text is a parse error: exit 2,
# at the divisor's position, whether the text is an operand or a table tail

DIVISIONS_BY_ZERO = {"x1/0": 3, "0^-1*x1": 0, "1/0*x1*x2": 2}


@pytest.mark.parametrize("ring", ["rational", "complex"])
@pytest.mark.parametrize("text", sorted(DIVISIONS_BY_ZERO))
def test_division_by_zero_exits_2(runner, tmp_path, ring, text):
    message = "cannot divide: "
    position = f"(at position {DIVISIONS_BY_ZERO[text]})"
    result = runner.invoke(main, ["eval", "--catalog", "log_canonical", "--ring", ring,
                                  "--param", "q=constant:5/4", "--hbar", "0.3",
                                  "--lhs", text, "--rhs", "x2"])
    _assert_config_failure(result, message)
    assert position in result.stderr
    table = {"dimension": 2, "ring": ring, "relations": [{"j": 2, "i": 1, "tail": text}]}
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    result = runner.invoke(main, ["eval", "--phi", str(path), "--lhs", "x2", "--rhs", "x1"])
    _assert_config_failure(result, message)
    assert position in result.stderr
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"runs": [{"phi": str(path),
                                               "probes": [{"kind": "overlaps"}]}]}))
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["verify", "--spec", str(spec_path), "--out", str(out)])
    _assert_config_failure(result, message)
    assert position in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("catalog, hbar, lhs, rhs", [
    ("log_canonical", "nan", "x2", "x1"),
    ("wick_log_canonical", "inf", "w2^3", "w1^3"),
    ("wick_log_canonical", "0.3,-inf", "w2", "w1"),
])
def test_non_finite_hbar_exits_2(runner, tmp_path, catalog, hbar, lhs, rhs):
    bad = hbar.split(",")[-1]
    result = runner.invoke(main, ["eval", "--catalog", catalog, "--hbar", hbar,
                                  "--lhs", lhs, "--rhs", rhs])
    _assert_config_failure(result, f"hbar must be finite, got {bad!r}")
    spec_path = tmp_path / "spec.json"
    # json writes NaN and Infinity literals, which json.load reads back
    spec_path.write_text(json.dumps({"runs": [{"catalog": catalog, "hbar": [0.3, float(bad)],
                                               "probes": [{"kind": "overlaps"}]}]}))
    result = runner.invoke(main, ["verify", "--spec", str(spec_path)])
    _assert_config_failure(result, f"hbar must be finite, got {float(bad)!r}")
    result = runner.invoke(main, ["gram", "--hbar", bad, "--z", "1,1"])
    assert result.exit_code == 2
    assert f"hbar must be finite, got {float(bad)!r}" in result.stderr


def test_run_spec_hbar_text_is_one_value(runner, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"runs": [{"catalog": "log_canonical", "d": 2, "hbar": "12",
                                               "probes": [{"kind": "oracle", "max_degree": 1}]}]}))
    result = runner.invoke(main, ["verify", "--spec", str(spec_path), "--json"])
    assert result.exit_code == 0
    assert [row["hbar"] for row in json.loads(result.stdout)["suites"]] == [12.0]


@pytest.mark.parametrize("catalog, hbar, lhs, rhs", [
    # q = e^400 is finite but q^9 is not: the product holds NaN
    ("wick_log_canonical", "-400", "w2^3", "w1^3"),
    ("wick_log_canonical", "0.3,-400", "w2^3", "w1^3"),
    # e^800 overflows in the parameter itself
    ("wick_log_canonical", "-800", "w2^3", "w1^3"),
    # q^400 = e^2000 raises inside the product
    ("log_canonical", "-5", "x2^20", "x1^20"),
    # and an operand can overflow as it is parsed
    ("log_canonical", "0.3", "1e200^2*x1", "x2"),
])
def test_float_overflow_exits_1_naming_catalog_and_hbar(runner, catalog, hbar, lhs, rhs):
    result = runner.invoke(main, ["eval", "--catalog", catalog, "--param", "q=exp_neg",
                                  "--hbar", hbar, "--lhs", lhs, "--rhs", rhs])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no exception escaped
    last = float(hbar.split(",")[-1])
    assert result.stderr == f"error: float overflow in {catalog} at hbar={last!r}\n"
    assert result.stdout == ""


@pytest.mark.parametrize("command, hbar", [("gram", "800"), ("gns", "300"), ("gram", "-800")])
def test_gram_and_gns_overflow_exit_1(runner, command, hbar):
    result = runner.invoke(main, [command, "--hbar", hbar, "--z", "1+1i,1-1i", "--degree", "2"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no exception escaped
    assert result.stderr == f"error: float overflow in wick_log_canonical at hbar={float(hbar)!r}\n"


def test_missing_catalog_parameters_exit_2(runner, tmp_path):
    result = runner.invoke(main, ["eval", "--catalog", "nonquadratic", "--param", "N=1",
                                  "--param", "q=exp_i", "--hbar", "0.3",
                                  "--lhs", "x3", "--rhs", "x2"])
    _assert_config_failure(result, "missing: p, r")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"runs": [
        {"catalog": "quantum_weyl", "params": {"q": "exp_i"}, "hbar": [0.3],
         "probes": [{"kind": "oracle", "max_degree": 1}]}]}))
    result = runner.invoke(main, ["verify", "--spec", str(spec_path)])
    _assert_config_failure(result, "catalog quantum_weyl needs parameters p, q; missing: p")


# -- one failure policy for every command: (command, fault) -> (arguments, exit
# code, first stderr line); "{bad}" stands for a file holding malformed JSON,
# "{list}" for one holding a JSON list, and "{spec}" for a run spec whose one
# run reads "{bad}" as its table file.
# A removable singularity is no fault: it exits 0 with nothing on stderr.

MALFORMED = ("error: {bad}Expecting property name enclosed in double quotes: "
             "line 1 column 2 (char 1)")
NOT_ANTIDIAGONAL = "error: point must satisfy z_i = conj(z_(d+1-i))"
NOT_UTF8 = ("error: {utf16}: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte")
FAILURE_POLICY = {
    ("eval", "hbar_not_a_number"): (
        ["--catalog", "log_canonical", "--hbar", "abc", "--lhs", "x1", "--rhs", "x2"],
        2, "error: bad --hbar value 'abc'"),
    ("eval", "genuine_pole"): (
        ["--catalog", "symmetrized_log_canonical", "--d", "2", "--ring", "rational",
         "--param", "q=const:-1", "--lhs", "x1", "--rhs", "x2"],
        1, "error: coefficient has a pole: q is a primitive root of unity of order 2"),
    ("eval", "removable_singularity"): (
        ["--catalog", "symmetrized_log_canonical", "--d", "3", "--ring", "rational",
         "--param", "q=const:-1", "--lhs", "x1*x2", "--rhs", "x3^2"], 0, None),
    ("eval", "malformed_table"): (["--phi", "{bad}", "--lhs", "x1", "--rhs", "x1"],
                                  2, MALFORMED.format(bad="{bad}: ")),
    ("verify", "malformed_spec"): (["--spec", "{bad}"], 2, MALFORMED.format(bad="{bad}: ")),
    ("verify", "malformed_table"): (["--spec", "{spec}"], 2, MALFORMED.format(bad="{bad}: ")),
    ("report", "malformed_json"): (["{bad}"], 2, MALFORMED.format(bad="{bad}: ")),
    ("report", "json_not_an_object"): (["{list}"], 2,
                                       "error: {list}: expected a JSON object, got list"),
    ("report", "directory"): (["{dir}"], 2, "error: {dir}: is a directory, not a JSON file"),
    ("report", "not_utf8"): (["{utf16}"], 2, NOT_UTF8),
    ("eval", "not_utf8_table"): (["--phi", "{utf16}", "--lhs", "x1", "--rhs", "x1"], 2, NOT_UTF8),
    ("verify", "not_utf8_spec"): (["--spec", "{utf16}"], 2, NOT_UTF8),
    ("verify", "directory_spec"): (["--spec", "{dir}"], 2,
                                   "error: {dir}: is a directory, not a JSON file"),
    ("verify", "run_not_an_object"): (["--spec", "{run_int}"], 2,
                                      "error: run 0: expected a JSON object, got int"),
    ("verify", "runs_not_a_list"): (["--spec", "{runs_str}"], 2,
                                    "error: runs: expected a JSON list, got str"),
    ("verify", "probe_not_an_object"): (["--spec", "{probe_int}"], 2,
                                        "error: run 0, probe 1: expected a JSON object, got int"),
    ("gram", "point_not_antidiagonal"): (["--hbar", "0.5", "--z", "1+1i,1+1i"],
                                         2, NOT_ANTIDIAGONAL),
    ("gns", "point_not_antidiagonal"): (["--hbar", "0.5", "--z", "1+1i,1+1i"],
                                        2, NOT_ANTIDIAGONAL),
}


@pytest.mark.parametrize("command, fault", sorted(FAILURE_POLICY))
def test_failure_policy(runner, tmp_path, command, fault):
    args, code, first_line = FAILURE_POLICY[command, fault]
    bad = tmp_path / "bad.json"
    contents = {
        "{bad}": "{not json",
        "{list}": "[1]",
        "{spec}": json.dumps({"runs": [{"phi": str(bad), "probes": [{"kind": "overlaps"}]}]}),
        "{run_int}": json.dumps({"runs": [1]}),
        "{runs_str}": json.dumps({"runs": "x"}),
        "{probe_int}": json.dumps({"runs": [{"catalog": "log_canonical",
                                             "probes": [{"kind": "overlaps"}, 7]}]}),
    }
    files = {"{dir}": tmp_path}
    for name, text in contents.items():
        files[name] = tmp_path / f"{name[1:-1]}.json"
        files[name].write_text(text)
    # a UTF-16 byte order mark, as some editors save JSON
    files["{utf16}"] = tmp_path / "utf16.json"
    files["{utf16}"].write_bytes(b"\xff\xfe{\x00}\x00")

    def fill(text):
        for name, path in files.items():
            text = text.replace(name, str(path))
        return text

    result = runner.invoke(main, [command] + [fill(a) for a in args])
    assert result.exit_code == code
    if first_line is None:
        assert result.stderr == "" and result.stdout == "3*x1*x2*x3^2\n"
        return
    assert isinstance(result.exception, SystemExit)  # no exception escaped
    assert result.stderr.splitlines()[0] == fill(first_line)
    assert result.stdout == ""
