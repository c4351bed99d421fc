"""Self-tests of the benchmark.  Run with ``python3 -m pytest perfbench``."""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.import_package()

import tracing  # noqa: E402
import workloads as W  # noqa: E402
from nucleatrace import nuclear, spaces, spectral  # noqa: E402

SPEC = json.loads(run.SPEC_PATH.read_text())
LAYERS = json.loads((Path(__file__).resolve().parent / "layers.json").read_text())
E2E = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def test_spec_matches_workloads_and_layer_map():
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)
    assert PER_LAYER == [m for row in LAYERS for m in row["metrics"]]
    assert {"ops_per_s", "op_p50_ms", "op_p90_ms", "setup_s", "pass_frac", "peak_rss_mb",
            "bracket_rel_width"} == set(E2E)
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def _tiny_run(workload, trace, out_dir, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", out_dir)
    period = len(W.WORKLOADS[workload].period)
    out = run.measure(workload, 3, 0.0, trace, min_ops=2 * period, setup_samples=1)
    res = out["result"]
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert list(res["metrics"]) == (PER_LAYER if trace else E2E)
    assert all(math.isfinite(m["value"]) for m in res["metrics"].values())
    assert res["attempted"] == 2 * period
    assert out["environment"]["seed"] == 3 and out["environment"]["workload"] == workload
    return {k: m["value"] for k, m in res["metrics"].items()}, res


@pytest.mark.parametrize("workload", list(W.WORKLOADS))
def test_tiny_run_emits_every_end_to_end_metric(workload, tmp_path, monkeypatch):
    values, res = _tiny_run(workload, False, tmp_path, monkeypatch)
    assert values["pass_frac"] == 1.0 - res["failed"] / res["attempted"]
    assert all(values[m] > 0.0 for m in E2E)
    width = values["bracket_rel_width"]
    assert (0.0 < width < 1.0) if workload == "norm_brackets" else width == 1.0


def test_tiny_traced_runs_emit_every_per_layer_metric(tmp_path, monkeypatch):
    reached = set()
    for workload in W.WORKLOADS:
        values, _ = _tiny_run(workload, True, tmp_path, monkeypatch)
        assert values["trace.overhead_frac"] != 0.0
        reached |= {k for k, v in values.items() if v != 0.0}
    # every metric is measured somewhere, so none is a misspelt name reading 0;
    # no op takes a closed-form operator-norm route (p_in = 1, 2 -> 2, inf -> inf)
    closed_form = {"spaces.operator_norm.exact.calls", "spaces.operator_norm.exact.total_s"}
    assert reached == set(PER_LAYER) - closed_form


def test_one_command_runs_every_workload():
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", "all", "--seed", "4",
         "--seconds", "0", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    *envs, last = (json.loads(line) for line in proc.stdout.strip().splitlines())
    assert set(last["metrics"]) == {
        f"{w}.{m}" for w in W.WORKLOADS for m in PER_LAYER}
    assert [e["environment"]["workload"] for e in envs] == list(W.WORKLOADS)
    for e in envs:
        env = e["environment"]
        assert env["seed"] == 4 and env["nproc"] >= 1 and env["numpy"] and env["openblas"]
        assert env["OPENBLAS_NUM_THREADS"] == env["OMP_NUM_THREADS"] == "1"
        assert env["NUCLEATRACE_THREADS"] is None


def test_bare_benchmark_directory_refuses_to_run(tmp_path):
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trace_audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


# --- output checks reject corrupted results ---------------------------------


def _op(kind, seed, index, tmp_path):
    inputs = kind.prepare(seed, index, tmp_path / "op.json")
    return inputs, kind.collect(inputs, kind.call(inputs))


def test_swapped_bracket_ends_are_rejected(tmp_path):
    A, res = _op(W.ASCENT_8, 1, 1, tmp_path)
    assert W.ASCENT_8.check(A, res) == []
    assert W.ASCENT_8.check(A, spaces.NormBracket(res.upper, res.lower))


def test_sign_route_must_match_full_enumeration(tmp_path):
    A, res = _op(W.SIGN_12, 1, 0, tmp_path)
    assert W.SIGN_12.check(A, res) == []
    off = res.lower * (1.0 + 1e-10)
    assert W.SIGN_12.check(A, spaces.NormBracket(off, off))
    assert W.SIGN_12.check(A, spaces.NormBracket(res.lower, off))


def test_perturbed_improver_output_is_rejected(tmp_path):
    inputs, (new, before, after) = _op(W.IMPROVE_3, 1, 4, tmp_path)
    assert W.IMPROVE_3.check(inputs, (new, before, after)) == []
    X = new.vector_matrix()
    X[0, 0] *= 1.0 + 1e-6
    moved = nuclear.Representation.from_arrays(
        new.coefficients, new.functional_matrix(), X, new.domain, new.codomain)
    assert any("induced matrix" in p for p in W.IMPROVE_3.check(inputs, (moved, before, after)))
    assert W.IMPROVE_3.check(inputs, (new, before, before * 1.01))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3(d): the improver sweeps from rebalance(z), "
                   "which can have a higher bracket value than z, and keeps that start")
def test_improver_never_worsens_an_unbalanced_input():
    """The defect that the improver ops avoid by drawing balanced inputs."""
    r, ip = W._bracket_index_params(1.5)
    z = W._draw_representation(W.op_rng(1, 54), 3, 1.5)
    inputs = (z, nuclear.NuclearIndex.bracket_lower(r, ip))
    assert W.IMPROVE_3.check(inputs, W.IMPROVE_3.call(inputs)) == []


def test_bracket_quasi_norm_outside_its_bracket_is_rejected(tmp_path):
    inputs, res = _op(W.QUASI_6_P15, 1, 2, tmp_path)
    assert W.QUASI_6_P15.check(inputs, res) == []
    assert W.QUASI_6_P15.check(inputs, (res[0] * 10.0, res[1]))
    assert W.QUASI_6_P15.check(inputs, (res[0], res[1] * 0.1))


def test_cli_checks_reject_exit_code_count_and_oracle_gap(tmp_path):
    argv, res = _op(W.TRACE_AUDIT, 1, 0, tmp_path)
    assert W.TRACE_AUDIT.check(argv, res) == []
    assert W.TRACE_AUDIT.check(argv, W.CliResult(1, res.report))
    short = {**res.report, "records": res.report["records"][1:]}
    assert W.TRACE_AUDIT.check(argv, W.CliResult(0, short))
    gap = json.loads(json.dumps(res.report))
    next(r for r in gap["records"] if r["n"] == 4)["oracle_gap"] = 1e-6
    assert W.TRACE_AUDIT.check(argv, W.CliResult(0, gap))


def test_approx_projection_bracket_swapped_is_rejected(tmp_path):
    argv, res = _op(W.APPROX, 1, 3, tmp_path)
    assert W.APPROX.check(argv, res) == []
    bad = json.loads(json.dumps(res.report))
    rec = bad["records"][0]
    rec["projection_lower"], rec["projection_upper"] = rec["projection_upper"], rec["projection_lower"]
    assert rec["projection_lower"] > rec["projection_upper"]
    assert W.APPROX.check(argv, W.CliResult(0, bad))


def test_raising_op_is_a_failed_op(tmp_path, monkeypatch):
    def boom(A):
        raise RuntimeError("boom")

    monkeypatch.setattr(spaces, "operator_norm", boom)
    o = W.run_op(W.WORKLOADS["norm_brackets"], 1, 1, tmp_path / "op.json")
    assert o.failed and "boom" in o.problems[0] and o.args["n"] == 8


# --- failure log and replay -------------------------------------------------


def test_failed_ops_are_logged_with_a_replay_command(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    bad = W.Outcome(7, "holder", ["holder", "--seed", "9"], 0.01, ["exit code 1"], "", [])
    ok = W.Outcome(8, "lorentz", None, 0.01, [], "{}", [])
    run.log_failures("sequence_suite", 5, [ok, bad])
    entry = json.loads((tmp_path / "failures.jsonl").read_text())
    assert entry["op"] == 7 and entry["seed"] == 5 and entry["args"] == ["holder", "--seed", "9"]
    assert entry["replay"].endswith("--workload sequence_suite --seed 5 --replay-op 7")


def test_replay_reruns_one_op_alone(tmp_path):
    o = W.run_op(W.WORKLOADS["sequence_suite"], 5, 2, tmp_path / "op.json")
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", "sequence_suite", "--seed", "5",
         "--replay-op", "2"],
        stdout=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["op"] == 2 and out["kind"] == "factorize" and out["problems"] == []
    assert out["body"] == o.body


# --- tracing ----------------------------------------------------------------


def test_self_times_of_nested_spans_add_up_to_op_time(tmp_path):
    tracer = tracing.Tracer()
    original = nuclear.quasi_norm
    tracer.install()
    try:
        assert spectral.representation_quasi_norm is nuclear.quasi_norm is not original
        for name, index in (("trace_audit", 0), ("norm_brackets", 1), ("norm_brackets", 3),
                            ("sequence_suite", 2)):
            W.run_op(W.WORKLOADS[name], 2, index, tmp_path / "op.json", tracer.op_span)
    finally:
        tracer.uninstall()
    assert nuclear.quasi_norm is original and spectral.representation_quasi_norm is original
    a = tracer.arrays()
    own = tracer.self_times()
    roots = np.flatnonzero(a["parent"] < 0)
    assert len(roots) == 4
    for r in roots:
        in_op = a["op"] == a["op"][r]
        assert np.all(own[in_op] >= -1e-9)
        assert abs(own[in_op].sum() - (a["end"][r] - a["start"][r])) <= 1e-9
    names = set(tracer.by_name())
    assert {"cli.invoke", "experiments.run", "spectral.eigenvalues", "spaces.operator_norm.ascent",
            "approximation.build_approximant", "sequences.factor_l1_lorentz"} <= names


def test_operator_norm_routes_and_sign_vertices():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for n, p_in, p_out in ((12, math.inf, 3.0), (8, 1.5, 3.0), (32, 1.5, 3.0), (5, 1.0, 3.0),
                               (6, 1.5, math.inf)):
            A = spaces.OperatorMatrix(np.eye(n), spaces.AmbientSpace(n, p_in), spaces.AmbientSpace(n, p_out))
            spaces.operator_norm(A)
    finally:
        tracer.uninstall()
    m = tracer.metrics(PER_LAYER)
    assert m["spaces.operator_norm.sign_enum.calls"] == 1
    assert m["spaces.operator_norm.ascent.calls"] == 3
    assert m["spaces.operator_norm.exact.calls"] == 1
    assert m["spaces.operator_norm.sign_vertices"] == 2**11 + 2**7
