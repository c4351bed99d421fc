"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line
so a teed pytest run doubles as the acceptance report.
"""
import math
import time

import numpy as np
import pytest

from nucleatrace import (
    AmbientSpace,
    NuclearIndex,
    Padded,
    Representation,
    Vector,
    build_approximant,
    eigenvalues,
    factor_l1_lorentz,
    holder_product_bound,
    nilpotent_check,
    select_rank,
    sharpness_witness,
    similarity_spectrum_check,
    trace_formula_exponent,
    trace_perturbation_bound,
)
from nucleatrace.experiments import ExperimentConfig, run


def report(number: int, name: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"acceptance criterion {number} failed{tail}"


def random_rep(rng, n, p, atoms):
    space = AmbientSpace(n, p)
    lam = np.sort(rng.uniform(0.0, 1.0, size=atoms))[::-1]
    F = rng.standard_normal((atoms, n))
    X = rng.standard_normal((atoms, n))
    return Representation.from_arrays(lam, F, X, space, space)


def test_criterion_1_holder_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence([2024, 1]))
    pairs = []
    for _ in range(10_000):
        la = int(rng.integers(1, 65))
        lb = int(rng.integers(1, 65))
        pairs.append(
            (
                rng.standard_normal(la) * float(rng.uniform(0.1, 10.0)),
                rng.standard_normal(lb) * float(rng.uniform(0.1, 10.0)),
            )
        )
    # one zero-padded stack per side, each row with its stored length
    a, b = (Padded(np.zeros((len(pairs), 64)), np.array([p[j].size for p in pairs])) for j in (0, 1))
    for i, pair in enumerate(pairs):
        for stack, x in zip((a, b), pair):
            stack.rows[i, : x.size] = x
    l1 = np.array([float(np.sum(np.abs(x))) for x, _ in pairs])
    worst_defect = math.inf
    worst_witness = 0.0
    ok = True
    for s in (0.5, 2.0 / 3.0, 0.9, 1.0):
        lhs, rhs, holds = holder_product_bound(a, b, s)
        scaled = (rhs - lhs) / np.maximum(1.0, rhs)
        worst_defect = min(worst_defect, scaled.min())
        if not holds.all() or (scaled < -1e-9).any():
            ok = False
        wl, _, _ = holder_product_bound(a, Padded(sharpness_witness(a, s), a.lengths), s)
        gap = np.abs(wl - l1) / np.maximum(1.0, l1)
        worst_witness = max(worst_witness, gap.max())
        if (gap > 1e-9).any():
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed <= 30.0
    report(
        1,
        "holder suite",
        ok,
        f"worst defect {worst_defect:.2e}, worst witness gap "
        f"{worst_witness:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_factorization_suite():
    L = 4096
    k = np.arange(1, L + 1, dtype=float)
    betas = np.linspace(1.6, 3.0, 100)
    ok = True
    worst_ratio = 0.0
    for beta in betas:
        d = k ** (-beta)
        alpha, gamma, cert = factor_l1_lorentz(d, 2.0 / 3.0)
        if not np.all(alpha * gamma == d):
            ok = False
        half = cert.weighted_tail[L // 2 :]
        if not np.all(np.diff(half) <= 0.0):
            ok = False
        worst_ratio = max(worst_ratio, cert.final_to_quarter_ratio)
        if cert.final_to_quarter_ratio > 0.5:
            ok = False
    report(
        2,
        "factorization suite",
        ok,
        f"100 inputs, worst tail ratio {worst_ratio:.4f}",
    )


def test_criterion_3_trace_formula_audit():
    cfg = ExperimentConfig(
        subcommand="trace-audit",
        seed=33,
        trials=500,
        dims=(4, 8, 16, 32),
        p=(1.0, 1.5, 2.0, 4.0, math.inf),
    )
    rep = run(cfg)
    ok = (
        rep.aggregate["fail_count"] == 0
        and rep.aggregate["records"] == 500 * 4 * 5
    )
    oracle_gaps = [
        r["oracle_gap"] for r in rep.records if r["oracle_gap"] is not None
    ]
    ok = ok and len(oracle_gaps) >= 2500 and max(oracle_gaps) <= 1e-7
    report(
        3,
        "trace-formula audit",
        ok,
        f"max defect {rep.aggregate['max_defect']:.2e}, "
        f"max oracle gap {max(oracle_gaps):.2e}",
    )


def test_criterion_4_eigenvalue_type_probe():
    dims = (8, 16, 32, 64, 128, 256, 512)
    rep = run(ExperimentConfig(subcommand="eigen-type", dims=dims, p=(1.0,)))
    ratios = [r["ratio"] for r in rep.records]
    first_max = max(ratios[: (len(dims) + 1) // 2])
    upper = ratios[(len(dims) + 1) // 2 :]
    verdict = rep.aggregate["verdict"]
    ok = (
        verdict == "BOUNDED"
        and not rep.failed
        and all(r["s"] == 2.0 / 3.0 and r["beta"] == 1.5 for r in rep.records)
        and max(upper) <= 1.05 * first_max
    )
    report(
        4,
        "eigenvalue-type probe",
        ok,
        f"verdict {verdict}, ratios {[round(r, 3) for r in ratios]}",
    )


def test_criterion_5_nilpotent_exclusion():
    rng = np.random.default_rng(np.random.SeedSequence([2024, 5]))
    ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 17))
        mat = np.triu(rng.integers(-9, 10, size=(n, n)).astype(float), 1)
        if rng.integers(2):
            mat = mat.T  # strictly lower triangular half the time
        if float(np.trace(mat)) != 0.0:
            ok = False
        if float(np.max(np.abs(eigenvalues(mat)))) > 1e-8:
            ok = False
        check = nilpotent_check(mat)
        if check.applied and check.square_norm == 0.0 and check.trace == 1.0:
            ok = False  # the excluded configuration
    report(5, "nilpotent exclusion", ok, "1000 strictly triangular matrices")


def test_criterion_6_rank_selection_and_guarantee():
    space = AmbientSpace(256, 2.0)
    xs = []
    for n in range(1, 257):
        e = np.zeros(256)
        e[n - 1] = 1.0 / n
        xs.append(Vector(e, space))
    _, cert = build_approximant(xs, 0.1, space, 0.5)
    ok = cert.cutoff == 120 and cert.sup_error <= 0.1
    ok = ok and select_rank([1.0 / n for n in range(1, 257)], 0.1, 0.5) == 120

    rng = np.random.default_rng(np.random.SeedSequence([2024, 6]))
    dim = 128
    sp = AmbientSpace(dim, 2.0)
    guarantee_count = 0
    for _ in range(50):
        beta = float(rng.uniform(0.75, 2.5))
        vecs = []
        for n in range(1, dim + 1):
            g = rng.standard_normal(dim)
            g /= np.linalg.norm(g)
            vecs.append(Vector(float(n) ** (-beta) * g, sp))
        _, c = build_approximant(vecs, 0.1, sp, 0.5)
        if c.guarantee_regime:
            guarantee_count += 1
            if c.sup_error > 0.1 + 1e-10:
                ok = False
    ok = ok and guarantee_count >= 25
    report(
        6,
        "rank selection and sup-error guarantee",
        ok,
        f"cutoff {cert.cutoff}, sup error {cert.sup_error:.5f}, "
        f"{guarantee_count}/50 profiles in guarantee regime",
    )


def test_criterion_7_trace_perturbation():
    rng = np.random.default_rng(np.random.SeedSequence([2024, 7]))
    ok = True
    worst = -math.inf
    s_grid = (0.5, 2.0 / 3.0, 0.9, 1.0)
    p_grid = (1.0, 1.5, 2.0, 4.0, math.inf)
    for i in range(1000):
        n = int(rng.integers(2, 9))
        p = p_grid[i % len(p_grid)]
        s = s_grid[i % len(s_grid)]
        z = random_rep(rng, n, p, atoms=int(rng.integers(1, 6)))
        R = rng.standard_normal((n, n)) * float(rng.uniform(0.1, 3.0))
        defect, bound = trace_perturbation_bound(z, R, s)
        worst = max(worst, defect - bound)
        if defect > bound + 1e-10:
            ok = False
    report(7, "trace perturbation bound", ok, f"worst defect-bound {worst:.2e}")


def test_criterion_8_ab_ba_coincidence():
    rng = np.random.default_rng(np.random.SeedSequence([2024, 8]))
    ok = True
    worst = 0.0
    for _ in range(500):
        m = int(rng.integers(2, 13))
        n = int(rng.integers(2, 13))
        A = rng.standard_normal((m, n))
        B = rng.standard_normal((n, m))
        rep = similarity_spectrum_check(A, B)
        worst = max(worst, rep.max_mismatch)
        if not rep.matched or rep.max_mismatch > 1e-8:
            ok = False
    report(8, "AB/BA spectrum coincidence", ok, f"worst mismatch {worst:.2e}")


def test_criterion_9_determinism():
    configs = [
        ExperimentConfig(subcommand="holder", seed=17, trials=20),
        ExperimentConfig(
            subcommand="trace-audit", seed=17, trials=5, dims=(4, 8), p=(1.0, 2.0)
        ),
        ExperimentConfig(subcommand="approx", seed=17, trials=3, profile="random",
                         dims=(32,)),
        ExperimentConfig(subcommand="factorize", seed=17, trials=3,
                         truncation=512),
    ]
    ok = True
    for cfg in configs:
        if run(cfg).body_text() != run(cfg).body_text():
            ok = False
    report(9, "byte-identical report bodies", ok, "4 configs, repeat runs")
