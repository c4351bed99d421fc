"""Closed-loop benchmark of nucleatrace, one workload per process.

    python3 perfbench/run.py --workload trace_audit --seed 1 --seconds 30 --trace 0

Workloads are defined in ``workloads.py`` and listed with their reasons in
``BENCHMARK.json``.  One caller runs ops back to back; each op's inputs
derive from (seed, op index).  BLAS is pinned to one thread and
``NUCLEATRACE_THREADS`` is removed from the environment.

``--trace 0`` times ops until ``--seconds`` of op time have passed (whole
periods, at least ``MIN_OPS`` ops) and reports the end-to-end metrics of
``BENCHMARK.json``.  ``--trace 1`` runs a fixed number of ops sized from
``--seconds`` twice, untraced and then traced, and reports the per-layer
metrics.

On a shared virtual machine single-core speed can drift by 1.5x over tens
of seconds (seen on a 2-vCPU 2.1 GHz Xeon VM whose physical cores other
tenants use), so every op is preceded by a
fixed reference kernel, ``speed_probe``, and op latencies are scaled to
the speed at which that kernel takes ``PROBE_NOMINAL_S``: each latency is
multiplied by ``PROBE_NOMINAL_S`` over the median probe time of the nine
ops around it.  Raw latencies are kept in the diagnostics.  ``setup_s`` is
raw: it is mostly imports, which track the probe poorly.

Every op's output is checked; the last stdout line is the JSON
result, the line before it the environment block and diagnostics.  Failed
ops go to ``.perfbench_run/failures.jsonl`` with a command that replays
one op alone (``--replay-op``).  ``--workload all`` runs every workload,
each in its own process.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".perfbench_run"

# at least ten op latencies lie beyond the 90th percentile
MIN_OPS = 110
SETUP_SAMPLES = 5
# the timed part stops here whatever --seconds asks, so a run ends within 180 s
LOOP_LIMIT_S = 120.0
CHILD_TIMEOUT_S = 170.0
# speed_probe() time on a 2.1 GHz Xeon vCPU in its fast phase
PROBE_NOMINAL_S = 3.0e-3
PROBE_WINDOW = 4


def speed_probe() -> float:
    """Seconds taken by a fixed mix of interpreter work and small BLAS calls,
    like the package's own inner loops."""
    import numpy as np

    A = np.linspace(-1.0, 1.0, 256).reshape(16, 16)
    v = np.ones(16)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(250):
        v = A @ v
        v = v / float(np.max(np.abs(v)))
        acc += float(np.sum(np.abs(v) ** 3.0)) ** (1.0 / 3.0)
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise RuntimeError("speed probe diverged")
    return elapsed


def scaled_latencies(outcomes: list) -> list[float]:
    """Op latencies scaled to nominal speed by the probes of nearby ops."""
    probes = [o.probe_s for o in outcomes]
    return [
        o.latency_s * PROBE_NOMINAL_S
        / statistics.median(probes[max(0, i - PROBE_WINDOW): i + PROBE_WINDOW + 1])
        for i, o in enumerate(outcomes)
    ]


def pin_threads() -> None:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ.pop("NUCLEATRACE_THREADS", None)


def import_package() -> None:
    """Put the checkout's src/ first on sys.path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "nucleatrace" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no nucleatrace sources under {src}")
    sys.path.insert(0, str(src))
    import nucleatrace

    if Path(nucleatrace.__file__).resolve().parent != (src / "nucleatrace").resolve():
        raise SystemExit(f"perfbench: imported nucleatrace from {nucleatrace.__file__}, not {src}")


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        **{k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "NUCLEATRACE_THREADS")},
        "workload": workload,
        "seed": seed,
    }


def scratch_file() -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR / f"op-{os.getpid()}.json"


def warm_up(workload, out_path: Path) -> list:
    """One op of each kind on seed-independent inputs."""
    from workloads import WARMUP_SEED, run_op

    return [run_op(workload, WARMUP_SEED, i, out_path)
            for i in workload.first_of_each_kind()]


def op_loop(workload, seed: int, out_path: Path, *, seconds: float = math.inf,
            min_ops: int = 0, count: int | None = None, span=None) -> list:
    """Run ops 0, 1, ... until ``count`` ops, or until ``seconds`` of op time
    and ``min_ops`` ops have passed at a period boundary."""
    from workloads import run_op

    period = len(workload.period)
    replayed = set(workload.first_of_each_kind())
    outcomes = []
    busy = 0.0
    began = time.perf_counter()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i % period == 0 and i >= min_ops and busy >= seconds:
            break
        if time.perf_counter() - began > LOOP_LIMIT_S:
            break
        probe = speed_probe()
        o = run_op(workload, seed, i, out_path, span)
        o.probe_s = probe
        if i not in replayed:
            o.body = ""  # only replayed ops keep their body, so memory stays flat
        busy += o.latency_s
        outcomes.append(o)
        i += 1
    return outcomes


def replay_problems(workload, seed: int, outcomes: list, out_path: Path) -> list[str]:
    """Replay the first op of each kind; its body must match byte for byte."""
    from workloads import run_op

    problems = []
    for i in workload.first_of_each_kind():
        again = run_op(workload, seed, i, out_path)
        if again.body != outcomes[i].body:
            problems.append(f"op {i} ({again.kind}): replayed body differs")
    return problems


def setup_seconds(workload: str, seed: int, samples: int) -> list[float]:
    """Time from spawning a fresh process to its first timed op, per sample."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            stdout=subprocess.PIPE, text=True,
        ) as child:
            ready = child.stdout.readline()
            times.append(time.perf_counter() - t0)
            try:
                child.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                child.kill()
                child.communicate()
                raise
        if ready.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up process failed (exit {child.returncode})")
    return times


def bracket_rel_width(outcomes: list) -> tuple[float, int]:
    """Mean (upper - lower) / upper over the non-degenerate brackets of ``outcomes``.

    With no such bracket, 1.0: the width of the uninformative bracket [0, upper].
    """
    widths = [(hi - lo) / hi for o in outcomes for lo, hi in o.brackets if hi != lo and hi > 0.0]
    return (statistics.fmean(widths) if widths else 1.0), len(widths)


def log_failures(workload: str, seed: int, outcomes: list) -> list[dict]:
    failures = []
    for o in outcomes:
        if not o.failed:
            continue
        entry = {
            "workload": workload, "seed": seed, "op": o.index, "kind": o.kind,
            "args": o.args, "problems": o.problems,
            "replay": f"python3 perfbench/run.py --workload {workload} --seed {seed} --replay-op {o.index}",
        }
        failures.append(entry)
        print(f"perfbench: FAILED op {o.index} ({o.kind}): {o.problems[0][:300]}\n  replay: {entry['replay']}",
              file=sys.stderr)
    if failures:
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / "failures.jsonl", "a") as fh:
            for entry in failures:
                fh.write(json.dumps(entry) + "\n")
    return failures


def measure(workload_name: str, seed: int, seconds: float, trace: bool, *,
            min_ops: int = MIN_OPS, setup_samples: int = SETUP_SAMPLES) -> dict:
    """One benchmark run in this process; returns the result and diagnostics."""
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    spec = json.loads(SPEC_PATH.read_text())
    setups = [] if trace else setup_seconds(workload_name, seed, setup_samples)
    out_path = scratch_file()
    problems = [f"warm-up op {o.index} ({o.kind}): {o.problems[0]}"
                for o in warm_up(workload, out_path) if o.failed]
    diagnostics: dict = {}
    try:
        if not trace:
            outcomes = op_loop(workload, seed, out_path, seconds=seconds, min_ops=min_ops)
            lat_ms = [x * 1e3 for x in scaled_latencies(outcomes)]
            cuts = statistics.quantiles(lat_ms, n=100, method="inclusive")
            p50, p90 = cuts[49], cuts[89]
            width, brackets = bracket_rel_width(outcomes[:min_ops])
            attempted = len(outcomes)
            failed = sum(o.failed for o in outcomes)
            values = {
                "ops_per_s": attempted / sum(lat_ms) * 1e3,
                "op_p50_ms": p50,
                "op_p90_ms": p90,
                "setup_s": statistics.median(setups),
                "pass_frac": 1.0 - failed / attempted,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "bracket_rel_width": width,
            }
            raw_ms = [o.latency_s * 1e3 for o in outcomes]
            diagnostics = {"samples": attempted, "beyond_p90": sum(x > p90 for x in lat_ms),
                           "fail_frac": failed / attempted, "brackets": brackets,
                           "raw_ops_per_s": attempted / sum(raw_ms) * 1e3,
                           "raw_op_p50_ms": statistics.median(raw_ms),
                           "median_probe_s": statistics.median(o.probe_s for o in outcomes),
                           "setup_samples_s": setups}
            metric_specs = spec["end_to_end"]
        else:
            from tracing import Tracer

            count = len(workload.period) * max(1, math.ceil(seconds / 2 / workload.period_seconds))
            untraced = op_loop(workload, seed, out_path, count=count)
            tracer = Tracer()
            tracer.install()
            try:
                traced = op_loop(workload, seed, out_path, count=count, span=tracer.op_span)
            finally:
                tracer.uninstall()
            outcomes = untraced + traced
            untraced_s = sum(scaled_latencies(untraced))
            traced_s = sum(scaled_latencies(traced))
            metric_specs = spec["per_layer"]
            values = tracer.metrics([m["name"] for m in metric_specs])
            values["trace.overhead_frac"] = 1.0 - (len(traced) / traced_s) / (len(untraced) / untraced_s)
            attempted = len(outcomes)
            failed = sum(o.failed for o in outcomes)
            OUT_DIR.mkdir(exist_ok=True)
            tracer.dump(OUT_DIR / f"spans-{workload_name}-{seed}.npz")
            diagnostics = {"ops_per_phase": count, "spans": len(tracer.start),
                           "untraced_s": untraced_s, "traced_s": traced_s}
        problems += replay_problems(workload, seed, outcomes, out_path)
    finally:
        out_path.unlink(missing_ok=True)
    failures = log_failures(workload_name, seed, outcomes)
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    mismatch = {m["name"] for m in metric_specs} ^ set(values)
    if mismatch:
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: {sorted(mismatch)}")
    return {
        "result": {
            "correct": failed == 0 and not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in metric_specs},
        },
        "environment": environment(workload_name, seed),
        "diagnostics": {**diagnostics, "problems": problems, "failures": len(failures)},
    }


def run_all(args) -> dict:
    """Every workload in its own process; metrics are prefixed by workload."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        print(lines[-2])
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    return combined


def replay(workload_name: str, seed: int, index: int) -> int:
    from workloads import WORKLOADS, describe_args, run_op

    workload = WORKLOADS[workload_name]
    out_path = scratch_file()
    try:
        kind = workload.kind(index)
        o = run_op(workload, seed, index, out_path)
        args = describe_args(kind, kind.prepare(seed, index, out_path))
    finally:
        out_path.unlink(missing_ok=True)
    print(json.dumps({"workload": workload_name, "seed": seed, "op": index, "kind": o.kind,
                      "args": args, "latency_ms": o.latency_s * 1e3, "problems": o.problems,
                      "body": o.body}))
    return 1 if o.failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--replay-op", type=int, default=None, help="run this one op alone and check it")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    pin_threads()
    import_package()
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    if args.setup_only:
        out_path = scratch_file()
        try:
            warm_up(WORKLOADS[args.workload], out_path)
        finally:
            out_path.unlink(missing_ok=True)
        print("ready", flush=True)
        return 0
    if args.replay_op is not None:
        return replay(args.workload, args.seed, args.replay_op)
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(run, indent=1) + "\n")
    print(json.dumps({"environment": run["environment"], "diagnostics": run["diagnostics"]}))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
