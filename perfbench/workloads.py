"""Operations, inputs and output checks of the three benchmark workloads.

An op is one call a user makes: an in-process invocation of
``nucleatrace.cli.main`` where the command line reaches the work, and one
public library call elsewhere.  Op ``i`` of a workload draws its inputs
from ``SeedSequence([seed, i])`` and runs the kind at position
``i % len(period)`` of the workload's period, so every run is a sequence of
whole periods over a fixed mix of kinds.

Every kind splits an op into ``prepare`` (input generation, untimed),
``call`` (the timed call), ``collect`` (reading what the call produced,
untimed), ``check`` (independent output checks, returning problems) and
``body`` (deterministic bytes used to compare a replay with the original).
"""
from __future__ import annotations

import json
import math
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import click
import numpy as np

from nucleatrace import cli, nuclear, spaces, spectral, tolerances

# Op inputs for warm-up come from this key instead of the workload seed,
# so set-up does the same work for every seed.
WARMUP_SEED = 0x5E7


def op_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def op_cli_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _lp(v: np.ndarray, p: float) -> float:
    a = np.abs(np.asarray(v, dtype=float))
    if a.size == 0:
        return 0.0
    if math.isinf(p):
        return float(a.max())
    m = float(a.max())
    return 0.0 if m == 0.0 else m * float(np.sum((a / m) ** p) ** (1.0 / p))


def _bracket_problems(lower: float, upper: float, what: str) -> list[str]:
    if not (math.isfinite(lower) and math.isfinite(upper)):
        return [f"{what}: non-finite bracket ({lower!r}, {upper!r})"]
    if lower > upper + tolerances.slack(upper):
        return [f"{what}: lower {lower!r} exceeds upper {upper!r}"]
    return []


# --- command line kinds -----------------------------------------------------


@dataclass(frozen=True)
class CliResult:
    exit_code: int
    report: dict | None  # parsed --out file, None if it was not written
    error: str = ""


@dataclass(frozen=True)
class CliKind:
    """One nucleatrace subcommand run in-process with ``--out``."""

    name: str
    argv: tuple[str, ...]
    records: int
    extra_check: Callable[[dict], list[str]] | None = None

    def prepare(self, seed: int, index: int, out_path: Path) -> list[str]:
        out_path.unlink(missing_ok=True)
        return [*self.argv, "--seed", str(op_cli_seed(seed, index)), "--out", str(out_path)]

    def call(self, argv: list[str]) -> CliResult:
        try:
            cli.main(argv, prog_name="nucleatrace", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            return CliResult(exc.exit_code, None, exc.format_message())
        return CliResult(code, None)

    def collect(self, argv: list[str], raw: CliResult) -> CliResult:
        out = Path(argv[-1])
        if not out.exists():
            return raw
        return CliResult(raw.exit_code, json.loads(out.read_text()), raw.error)

    def check(self, argv: list[str], res: CliResult) -> list[str]:
        if res.exit_code != 0:
            return [f"exit code {res.exit_code} {res.error}".strip()]
        if res.report is None:
            return ["no report written"]
        records = res.report.get("records", [])
        got = res.report.get("aggregate", {}).get("records")
        if len(records) != self.records or got != self.records:
            return [f"expected {self.records} records, got {len(records)} (aggregate {got})"]
        return self.extra_check(res.report) if self.extra_check else []

    def body(self, res: CliResult) -> str:
        if res.report is None:
            return json.dumps({"exit_code": res.exit_code})
        body = {k: v for k, v in res.report.items() if k != "wall_time_s"}
        return json.dumps(body, sort_keys=True, separators=(",", ":"))

    def brackets(self, res: CliResult) -> list[tuple[float, float]]:
        if res.report is None:
            return []
        return [
            (float(r["projection_lower"]), float(r["projection_upper"]))
            for r in res.report["records"]
            if "projection_lower" in r
        ]


ORACLE_GAP_LIMIT = 1e-7


def _trace_audit_check(report: dict) -> list[str]:
    problems = []
    for r in report["records"]:
        if r["n"] != 4:
            continue
        gap = r.get("oracle_gap")
        if gap is None or not (gap <= ORACLE_GAP_LIMIT):
            problems.append(f"trial {r['trial']} p={r['p']}: oracle gap {gap!r} at n=4")
    return problems


def _approx_check(report: dict) -> list[str]:
    problems = []
    for r in report["records"]:
        problems += _bracket_problems(
            float(r["projection_lower"]), float(r["projection_upper"]), "projection bracket"
        )
    return problems


# --- library kinds ----------------------------------------------------------


def _draw_representation(rng: np.random.Generator, n: int, p: float) -> nuclear.Representation:
    space = spaces.AmbientSpace(n, p)
    lam = np.sort(rng.uniform(0.0, 1.0, size=n))[::-1]
    F = rng.standard_normal((n, n))
    X = rng.standard_normal((n, n))
    return nuclear.Representation.from_arrays(lam, F, X, space, space)


def _bracket_index_params(p: float) -> tuple[float, float]:
    """(r, index p) tied to the space exponent: r = 1/(1 + |1/2 - 1/p|), index p in [1, 2]."""
    return spectral.trace_formula_exponent(p), min(p, spaces.dual_exponent(p))


def _all_sign_vertices_norm(A: np.ndarray, p_out: float) -> float:
    """max ||A s||_{p_out} over all 2^n sign vectors s, as one matmul (finite p_out)."""
    n = A.shape[1]
    signs = 1.0 - 2.0 * ((np.arange(2**n)[:, None] >> np.arange(n)) & 1)
    images = A @ signs.T
    return float(np.max(np.sum(np.abs(images) ** p_out, axis=0)) ** (1.0 / p_out))


@dataclass(frozen=True)
class OperatorNormKind:
    """operator_norm of a standard normal n x n matrix from l_p_in to l_p_out."""

    name: str
    n: int
    p_in: float
    p_out: float

    @property
    def exact(self) -> bool:
        return math.isinf(self.p_in) and self.n <= 16

    def prepare(self, seed: int, index: int, out_path: Path) -> spaces.OperatorMatrix:
        A = op_rng(seed, index).standard_normal((self.n, self.n))
        return spaces.OperatorMatrix(
            A, spaces.AmbientSpace(self.n, self.p_in), spaces.AmbientSpace(self.n, self.p_out)
        )

    def call(self, A: spaces.OperatorMatrix) -> spaces.NormBracket:
        return spaces.operator_norm(A)

    def collect(self, A, raw):
        return raw

    def check(self, A: spaces.OperatorMatrix, res) -> list[str]:
        lower, upper = float(res[0]), float(res[1])
        problems = _bracket_problems(lower, upper, "operator norm bracket")
        if self.exact:
            if lower != upper:
                problems.append(f"exact route returned a non-degenerate bracket ({lower!r}, {upper!r})")
            own = _all_sign_vertices_norm(A.entries, self.p_out)
            if abs(upper - own) > 1e-12 * own:
                problems.append(f"sign route {upper!r} disagrees with full enumeration {own!r}")
        return problems

    def body(self, res) -> str:
        return json.dumps([float(res[0]), float(res[1])])

    def brackets(self, res) -> list[tuple[float, float]]:
        return [(float(res[0]), float(res[1]))]


@dataclass(frozen=True)
class BracketQuasiNormKind:
    """BRACKET_LOWER and BRACKET_UPPER quasi-norms of an n-atom representation on l_p^n."""

    name: str
    n: int
    p: float

    def prepare(self, seed: int, index: int, out_path: Path):
        r, ip = _bracket_index_params(self.p)
        z = _draw_representation(op_rng(seed, index), self.n, self.p)
        return z, nuclear.NuclearIndex.bracket_lower(r, ip), nuclear.NuclearIndex.bracket_upper(r, ip)

    def call(self, inputs) -> tuple[float, float]:
        z, lower_index, upper_index = inputs
        return nuclear.quasi_norm(z, lower_index), nuclear.quasi_norm(z, upper_index)

    def collect(self, inputs, raw):
        return raw

    def check(self, inputs, res) -> list[str]:
        """Each value is an l_r mass times a weak norm W of a vector system y_k.

        W is at least max_k ||y_k|| (pair y_k with its norming functional)
        and at most the l_p' norm of (||y_k||)_k.
        """
        z, lower_index, _ = inputs
        r, p_prime = lower_index.r, spaces.dual_exponent(lower_index.p)
        lam = z.coefficients
        F, X = z.functional_matrix(), z.vector_matrix()
        f_norms = np.array([_lp(f, z.domain.dual().exponent) for f in F])
        x_norms = np.array([_lp(x, z.codomain.exponent) for x in X])
        problems = []
        for label, value, mass_norms, weak_norms in (
            ("BRACKET_LOWER", res[0], f_norms, x_norms),
            ("BRACKET_UPPER", res[1], x_norms, f_norms),
        ):
            mass = float(np.sum((lam * mass_norms) ** r) ** (1.0 / r))
            lo, hi = mass * float(weak_norms.max()), mass * _lp(weak_norms, p_prime)
            if not math.isfinite(value) or value < lo - tolerances.slack(lo) or value > hi + tolerances.slack(hi):
                problems.append(f"{label} {value!r} outside [{lo!r}, {hi!r}]")
        return problems

    def body(self, res) -> str:
        return json.dumps([float(res[0]), float(res[1])])

    def brackets(self, res) -> list[tuple[float, float]]:
        return []


def _draw_balanced_representation(rng: np.random.Generator, n: int, p: float) -> nuclear.Representation:
    """A drawn representation with every functional and vector of norm one.

    ``improve_representation`` first rebalances its input into this form and
    then sweeps from there.  On an input not in this form, rebalancing can
    raise the bracket value, and the improver then returns a representation
    worse than its input (ROADMAP item 3(d)); the improver check flags that.
    """
    space = spaces.AmbientSpace(n, p)
    lam = np.sort(rng.uniform(0.0, 1.0, size=n))[::-1]
    F = rng.standard_normal((n, n))
    X = rng.standard_normal((n, n))
    f_norms = np.array([_lp(f, spaces.dual_exponent(p)) for f in F])
    x_norms = np.array([_lp(x, p) for x in X])
    return nuclear.Representation.from_arrays(
        lam * f_norms * x_norms, F / f_norms[:, None], X / x_norms[:, None], space, space
    )


def _induced(z: nuclear.Representation) -> np.ndarray:
    return (z.vector_matrix().T * z.coefficients) @ z.functional_matrix()


IMPROVER_DRIFT_LIMIT = 1e-9


@dataclass(frozen=True)
class ImproverKind:
    """improve_representation(sweeps=1) on BRACKET_LOWER of a balanced n-atom representation on l_p^n."""

    name: str
    n: int
    p: float

    def prepare(self, seed: int, index: int, out_path: Path):
        r, ip = _bracket_index_params(self.p)
        z = _draw_balanced_representation(op_rng(seed, index), self.n, self.p)
        return z, nuclear.NuclearIndex.bracket_lower(r, ip)

    def call(self, inputs):
        z, index = inputs
        return nuclear.improve_representation(z, index, sweeps=1)

    def collect(self, inputs, raw):
        return raw

    def check(self, inputs, res) -> list[str]:
        z, index = inputs
        new, before, after = res
        problems = []
        if not (after <= before):
            problems.append(f"returned value {after!r} exceeds input value {before!r}")
        recomputed = nuclear.quasi_norm(new, index)
        if recomputed > before + tolerances.slack(before):
            problems.append(f"result quasi-norm {recomputed!r} exceeds input value {before!r}")
        M0, M1 = _induced(z), _induced(new)
        drift = float(np.linalg.norm(M1 - M0) / np.linalg.norm(M0))
        if not (drift <= IMPROVER_DRIFT_LIMIT):
            problems.append(f"induced matrix moved by {drift!r} relative Frobenius")
        return problems

    def body(self, res) -> str:
        new, before, after = res
        return json.dumps(
            {
                "before": float(before),
                "after": float(after),
                "coefficients": new.coefficients.tolist(),
                "functionals": new.functional_matrix().tolist(),
                "vectors": new.vector_matrix().tolist(),
            }
        )

    def brackets(self, res) -> list[tuple[float, float]]:
        return []


# --- workloads --------------------------------------------------------------

TRACE_AUDIT = CliKind(
    "trace_audit",
    ("trace-audit", "--trials", "5", "--dims", "4,8,16,32", "--p", "1,1.5,2,4,inf"),
    records=5 * 4 * 5,
    extra_check=_trace_audit_check,
)
APPROX = CliKind(
    "approx",
    ("approx", "--profile", "random", "--dims", "32", "--p", "4", "--trials", "1"),
    records=1,
    extra_check=_approx_check,
)
HOLDER = CliKind("holder", ("holder", "--trials", "200"), records=200)
LORENTZ = CliKind("lorentz", ("lorentz", "--trials", "200", "--length", "256"), records=200)
FACTORIZE = CliKind("factorize", ("factorize", "--trials", "1"), records=1)

SIGN_12 = OperatorNormKind("sign_route", 12, math.inf, 3.0)
ASCENT_8 = OperatorNormKind("ascent_route", 8, 1.5, 3.0)
ASCENT_32 = OperatorNormKind("ascent_route", 32, 1.5, 3.0)
QUASI_6_P15 = BracketQuasiNormKind("bracket_quasi_norms", 6, 1.5)
QUASI_6_P4 = BracketQuasiNormKind("bracket_quasi_norms", 6, 4.0)
IMPROVE_3 = ImproverKind("improver", 3, 1.5)


@dataclass(frozen=True)
class Workload:
    name: str
    period: tuple[Any, ...]
    # seconds one period takes on the reference machine, used only to size
    # the fixed op count of a traced run
    period_seconds: float

    def kind(self, index: int):
        return self.period[index % len(self.period)]

    def first_of_each_kind(self) -> list[int]:
        seen: dict[str, int] = {}
        for i, k in enumerate(self.period):
            seen.setdefault(k.name, i)
        return sorted(seen.values())


WORKLOADS = {
    w.name: w
    for w in (
        Workload("trace_audit", (TRACE_AUDIT,), 0.085),
        # two ops of each of the five kinds per period; the improver is a
        # fifth of all ops, so op_p90_ms lands inside the improver ops and
        # op_p50_ms among single brackets.  Both improver ops are n=3: the
        # cost of one improver op varies by about 30 % with the drawn
        # vectors, and a mix of two sizes puts op_p90_ms between their
        # latency clusters, where it moved by up to 19 % from seed to seed.
        Workload(
            "norm_brackets",
            (SIGN_12, ASCENT_8, QUASI_6_P15, APPROX, IMPROVE_3,
             SIGN_12, ASCENT_32, QUASI_6_P4, APPROX, IMPROVE_3),
            1.65,
        ),
        Workload("sequence_suite", (HOLDER, LORENTZ, FACTORIZE), 0.072),
    )
}


@dataclass
class Outcome:
    """What one op did: latency of the timed call, problems found, body."""

    index: int
    kind: str
    args: Any
    latency_s: float
    problems: list[str]
    body: str
    brackets: list[tuple[float, float]]
    probe_s: float = math.nan  # speed_probe() time just before the op

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def describe_args(kind, inputs) -> Any:
    """The op's exact arguments in JSON form, for the failure log."""
    if isinstance(kind, CliKind):
        return list(inputs)
    if isinstance(kind, OperatorNormKind):
        return {"kind": kind.name, "n": kind.n, "p_in": kind.p_in, "p_out": kind.p_out,
                "matrix": inputs.entries.tolist()}
    z = inputs[0]
    return {"kind": kind.name, "n": kind.n, "p": kind.p,
            "indices": [[ix.variant, ix.r, ix.p] for ix in inputs[1:]],
            "coefficients": z.coefficients.tolist(),
            "functionals": z.functional_matrix().tolist(),
            "vectors": z.vector_matrix().tolist()}


def run_op(workload: Workload, seed: int, index: int, out_path: Path, span=None) -> Outcome:
    """Prepare, time, collect and check op ``index``; never raises for op failures.

    ``span`` optionally wraps the timed call (the traced run's op span).
    """
    kind = workload.kind(index)
    inputs = kind.prepare(seed, index, out_path)
    t0 = time.perf_counter()
    try:
        if span is None:
            raw = kind.call(inputs)
        else:
            with span(index):
                raw = kind.call(inputs)
    except Exception:  # an op that raises is a failed op, and the loop goes on
        latency = time.perf_counter() - t0
        return Outcome(index, kind.name, describe_args(kind, inputs), latency,
                       [f"raised: {traceback.format_exc()}"], "", [])
    latency = time.perf_counter() - t0
    try:
        res = kind.collect(inputs, raw)
        problems = kind.check(inputs, res)
        body, brackets = kind.body(res), kind.brackets(res)
    except Exception:
        problems, body, brackets = [f"checking raised: {traceback.format_exc()}"], "", []
    return Outcome(index, kind.name, describe_args(kind, inputs) if problems else None,
                   latency, problems, body, brackets)
