import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucleatrace import spectral
from nucleatrace import (
    AmbientSpace,
    NuclearIndex,
    OperatorMatrix,
    Representation,
    audit_trace_formula,
    characteristic_roots,
    eigenvalue_type_probe,
    eigenvalues,
    induced_matrix,
    match_spectra,
    nilpotent_check,
    nuclear_trace,
    similarity_spectrum_check,
    trace_formula_exponent,
)

L2 = lambda n: AmbientSpace(n, 2.0)


def diag_rep(lambdas, space):
    eye = np.eye(space.dim)[: len(lambdas)]
    return Representation.from_arrays(lambdas, eye, eye, space, space)


def strict_upper(rng, n):
    mat = np.triu(rng.integers(-5, 6, size=(n, n)).astype(float), 1)
    return mat


class TestEigenvalues:
    def test_diagonal(self):
        vals = eigenvalues(np.diag([3.0, 1.0, 0.0]))
        np.testing.assert_allclose(vals, [3.0, 1.0, 0.0], atol=1e-14)

    def test_nilpotent(self):
        vals = eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
        np.testing.assert_array_equal(vals, [0.0, 0.0])

    def test_rotation_conjugate_pair(self):
        vals = eigenvalues(np.array([[0.0, -1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(vals, [-1.0j, 1.0j], atol=1e-14)

    def test_sorted_by_modulus(self):
        vals = eigenvalues(np.diag([1.0, -3.0, 2.0]))
        assert list(np.abs(vals)) == [3.0, 2.0, 1.0]

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            eigenvalues(np.ones((2, 3)))


class TestCharacteristicRoots:
    def test_squared_zero(self):
        roots = characteristic_roots(np.array([[0.0, 1.0], [0.0, 0.0]]))
        np.testing.assert_allclose(roots, [0.0, 0.0], atol=1e-14)

    def test_rotation(self):
        roots = characteristic_roots(np.array([[0.0, -1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(sorted(roots.imag), [-1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(roots.real, [0.0, 0.0], atol=1e-12)

    def test_zero_matrix(self):
        np.testing.assert_array_equal(
            characteristic_roots(np.zeros((3, 3))), np.zeros(3)
        )

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            characteristic_roots(np.eye(17))

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2 ** 31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_qr_solver(self, n, seed):
        mat = np.random.default_rng(seed).standard_normal((n, n))
        matched, worst = match_spectra(
            eigenvalues(mat),
            characteristic_roots(mat),
            rel=1e-7,
            abs_floor=1e-7,
        )
        assert matched, f"worst gap {worst}"


class TestSpectralSum:
    """The spectrum is a sorted complex array; its sum is the spectral sum."""

    def test_real_values(self):
        vals = eigenvalues(np.diag([0.0, 3.0, 1.0]))
        assert vals.dtype == complex
        np.testing.assert_array_equal(vals, [3.0, 1.0, 0.0])
        assert np.sum(vals) == 4.0 + 0.0j

    def test_conjugate_cancellation(self):
        vals = eigenvalues(np.array([[0.0, -1.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(vals, [-1.0j, 1.0j])
        assert np.sum(vals) == 0.0 + 0.0j

    def test_empty(self):
        for shape in [(0, 0), (3, 0, 0)]:
            vals = eigenvalues(np.zeros(shape))
            assert vals.dtype == complex and vals.shape == shape[:-1]
            np.testing.assert_array_equal(np.sum(vals, axis=-1), np.zeros(shape[:-2]))

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_imaginary_part_is_noise_for_real_input(self, seed):
        rng = np.random.default_rng(seed)
        vals = eigenvalues(rng.standard_normal((6, 6)))
        total = np.sum(vals)
        scale = 1.0 + float(np.sum(np.abs(vals)))
        assert abs(total.imag) <= 1e-9 * scale


class TestMatchSpectra:
    def test_pads_with_zeros(self):
        ok, worst = match_spectra([1.0 + 0.0j], [1.0 + 0.0j, 0.0j, 0.0j])
        assert ok and worst == 0.0

    def test_detects_mismatch(self):
        ok, worst = match_spectra([1.0 + 0.0j], [2.0 + 0.0j])
        assert not ok and worst == 1.0

    def test_conjugate_order_robust(self):
        u = np.array([1.0j, -1.0j, 0.5])
        v = np.array([-1.0j, 0.5, 1.0j])
        ok, worst = match_spectra(u, v)
        assert ok and worst <= 1e-15


class TestAuditTraceFormula:
    def test_diagonal_rep(self):
        z = diag_rep([0.5, 1.0 / 3.0], L2(2))
        report = audit_trace_formula(z, NuclearIndex.absolutely_summable(1.0))
        assert report.nuclear_trace == pytest.approx(5.0 / 6.0, rel=1e-15)
        assert report.spectral_sum.real == pytest.approx(5.0 / 6.0, rel=1e-12)
        assert report.defect <= 1e-12
        assert report.passed

    def test_nilpotent_atom(self):
        sp = L2(2)
        z = Representation.from_arrays([1.0], [[1.0, 0.0]], [[0.0, 1.0]], sp, sp)
        report = audit_trace_formula(z, NuclearIndex.absolutely_summable(1.0))
        assert report.nuclear_trace == 0.0
        assert report.spectral_sum == 0.0 + 0.0j
        assert report.defect == 0.0
        assert report.passed

    def test_random_rank3_with_oracle(self):
        rng = np.random.default_rng(42)
        space = AmbientSpace(5, 4.0)
        lam = np.sort(rng.uniform(0.1, 1.0, 3))[::-1]
        z = Representation.from_arrays(
            lam,
            rng.standard_normal((3, 5)),
            rng.standard_normal((3, 5)),
            space,
            space,
        )
        s = trace_formula_exponent(4.0)
        report = audit_trace_formula(z, NuclearIndex.absolutely_summable(s))
        assert report.defect <= 1e-8 * (1.0 + report.frobenius)
        assert report.passed
        M = induced_matrix(z)
        matched, _ = match_spectra(
            eigenvalues(M),
            characteristic_roots(M.entries),
            rel=1e-7,
            abs_floor=1e-7,
        )
        assert matched

    def test_zero_rep_has_no_ratio(self):
        sp = L2(2)
        z = Representation.from_arrays([0.0], np.eye(2)[:1], np.eye(2)[:1], sp, sp)
        report = audit_trace_formula(z, NuclearIndex.absolutely_summable(1.0))
        assert report.quasi_norm == 0.0
        assert report.ratio is None
        assert report.passed


def _rank_deficient(rng, n, p):
    """Induced matrix of a representation with fewer atoms than n."""
    space = AmbientSpace(n, p)
    m = n // 2
    lam = np.sort(rng.uniform(0.0, 1.0, m))[::-1]
    z = Representation.from_arrays(
        lam, rng.standard_normal((m, n)), rng.standard_normal((m, n)), space, space
    )
    return induced_matrix(z).entries


JORDAN_4 = np.eye(4) + np.diag(np.ones(3), 1)
ONE_BY_ONE = np.array([[[2.0]], [[0.0]], [[-3.0]], [[1e-300]]])


def _mixed_stack():
    """A 4x4 stack: a Jordan block, a zero matrix, rank-deficient and full matrices."""
    rng = np.random.default_rng(11)
    return np.stack([
        JORDAN_4,
        np.zeros((4, 4)),
        _rank_deficient(rng, 4, 1.5),
        _rank_deficient(rng, 4, math.inf),
        rng.standard_normal((4, 4)),
        1e-200 * rng.standard_normal((4, 4)),
    ])


class TestStackForms:
    """Each row of a stack gives the bits of its single call."""

    def test_jordan_block_runs_to_the_iteration_cap(self, monkeypatch):
        # the mixed stack's Jordan row still moves at the last allowed step,
        # so the other rows stop long before it
        full = characteristic_roots(JORDAN_4)
        monkeypatch.setattr(spectral, "_DK_MAX_ITERS", spectral._DK_MAX_ITERS - 1)
        assert not np.array_equal(characteristic_roots(JORDAN_4), full)

    def test_characteristic_roots(self):
        stack = _mixed_stack()
        roots = characteristic_roots(stack)
        assert roots.shape == (len(stack), 4)
        np.testing.assert_array_equal(roots, [characteristic_roots(m) for m in stack])
        np.testing.assert_array_equal(roots[1], np.zeros(4))
        grid = characteristic_roots(stack[:4].reshape(2, 2, 4, 4))
        np.testing.assert_array_equal(grid.reshape(4, 4), roots[:4])
        np.testing.assert_array_equal(
            characteristic_roots(ONE_BY_ONE), [characteristic_roots(m) for m in ONE_BY_ONE]
        )

    def test_eigenvalues_and_sums(self):
        for stack in (_mixed_stack(), ONE_BY_ONE):
            vals = eigenvalues(stack)
            singles = [eigenvalues(m) for m in stack]
            assert vals.shape == stack.shape[:-1]
            np.testing.assert_array_equal(vals, singles)
            np.testing.assert_array_equal(np.sum(vals, axis=-1), [np.sum(v) for v in singles])

    def test_single_forms_refuse_stacks_where_they_take_matrices_only(self):
        with pytest.raises(ValueError):
            nilpotent_check(np.zeros((2, 3, 3)))
        with pytest.raises(ValueError):
            characteristic_roots(np.zeros((2, 3, 4)))

    def test_audit_stack_matches_single_calls(self):
        rng = np.random.default_rng(5)
        reps, indices = [], []
        for p in (1.0, 1.5, math.inf):
            for atoms in (4, 2):
                for s in (0.5, 2.0 / 3.0):
                    space = AmbientSpace(4, p)
                    lam = np.sort(rng.uniform(0.0, 1.0, atoms))[::-1]
                    reps.append(Representation.from_arrays(
                        lam, rng.standard_normal((atoms, 4)), rng.standard_normal((atoms, 4)),
                        space, space,
                    ))
                    indices.append(NuclearIndex.absolutely_summable(s))
        indices[1] = NuclearIndex.lorentz(0.5, 2.0)
        indices[2] = NuclearIndex.bracket_upper(1.0, 1.5)
        reports = audit_trace_formula(reps, indices, tolerance_scale=1e-9)
        singles = [audit_trace_formula(z, i, tolerance_scale=1e-9) for z, i in zip(reps, indices)]
        assert reports == tuple(singles)
        for r, one, z in zip(reports, singles, reps):
            M = induced_matrix(z)
            np.testing.assert_array_equal(r.matrix, M.entries)
            np.testing.assert_array_equal(r.spectrum, one.spectrum)
            assert r.frobenius == np.linalg.norm(M.entries) and r.nuclear_trace == nuclear_trace(z)

    def test_audit_of_stacks_gives_each_rows_report(self):
        rng = np.random.default_rng(8)
        reps, indices, rows = [], [], []
        for p, shape, atoms, idx in (
            (1.5, (3,), 4, NuclearIndex.absolutely_summable(0.75)),
            (2.0, (), 2, NuclearIndex.absolutely_summable(1.0)),
            (math.inf, (2, 2), 3, NuclearIndex.lorentz(0.5, 2.0)),
            (1.0, (1,), 4, NuclearIndex.bracket_lower(1.0, 1.5)),
        ):
            space = AmbientSpace(4, p)
            lam = np.sort(rng.uniform(0.1, 1.0, shape + (atoms,)), axis=-1)[..., ::-1]
            F = rng.standard_normal(shape + (atoms, 4))
            X = rng.standard_normal(shape + (atoms, 4))
            reps.append(Representation(lam, F, X, space, space))
            indices.append(idx)
            for l, f, x in zip(lam.reshape(-1, atoms), F.reshape(-1, atoms, 4), X.reshape(-1, atoms, 4)):
                rows.append(audit_trace_formula(Representation(l, f, x, space, space), idx))
        reports = audit_trace_formula(reps, indices)
        assert reports == tuple(rows)
        for r, one in zip(reports, rows):
            np.testing.assert_array_equal(r.matrix, one.matrix)
            np.testing.assert_array_equal(r.spectrum, one.spectrum)

    @pytest.mark.parametrize("n", [3, 8, 16])
    def test_audit_stack_frobenius_is_each_matrix_norm(self, n):
        rng = np.random.default_rng(n)
        space = AmbientSpace(n, 1.5)
        reps = [
            Representation.from_arrays(
                rng.uniform(0.1, 1.0, n), rng.standard_normal((n, n)),
                rng.standard_normal((n, n)), space, space,
            )
            for _ in range(40)
        ]
        reports = audit_trace_formula(reps, [NuclearIndex.absolutely_summable(0.75)] * 40)
        assert [r.frobenius for r in reports] == [np.linalg.norm(induced_matrix(z).entries) for z in reps]

    def test_audit_stack_validation(self):
        rng = np.random.default_rng(6)
        idx = NuclearIndex.absolutely_summable(1.0)
        z4, z3 = (
            Representation.from_arrays(
                [1.0], rng.standard_normal((1, n)), rng.standard_normal((1, n)), L2(n), L2(n)
            )
            for n in (4, 3)
        )
        assert audit_trace_formula([], []) == ()
        with pytest.raises(ValueError):
            audit_trace_formula([z4, z4], [idx])
        with pytest.raises(ValueError):
            audit_trace_formula([z4, z3], [idx, idx])
        stack = Representation(np.ones((2, 1)), np.stack([z4.F, z4.F]), np.stack([z4.X, z4.X]), L2(4), L2(4))
        with pytest.raises(ValueError):
            audit_trace_formula(stack, idx)
        with pytest.raises(ValueError):
            audit_trace_formula([stack, z3], [idx, idx])


def _reference_durand_kerner(coeffs, cap):
    """Durand-Kerner without the cycle exit: each row runs to its stop test or to `cap`.

    Returns the roots and the step each row stopped at.
    """
    k, n = coeffs.shape[0], coeffs.shape[-1] - 1
    radius = 1.0 + np.max(np.abs(coeffs[:, 1:]), axis=-1)
    j = np.arange(n)
    W = radius[:, None] * np.exp(2j * np.pi * (j + 0.25) / n)
    C = coeffs.astype(complex)
    live = np.arange(k)
    steps = np.full(k, cap)
    for step in range(1, cap + 1):
        w, c = W[live], C[live]
        pw = np.zeros_like(w)
        for i in range(n + 1):
            pw = pw * w + c[:, i, None]
        D = w[:, :, None] - w[:, None, :]
        D[:, j, j] = 1.0
        delta = pw / np.prod(D, axis=-1)
        w = w - delta
        W[live] = w
        done = np.max(np.abs(delta), axis=-1) <= 1e-16 * (1.0 + np.max(np.abs(w), axis=-1))
        steps[live[done]] = step
        live = live[~done]
        if live.size == 0:
            break
    return W, steps


def _trace_audit_matrix(seed, trial, j, n=4):
    """The induced matrix of trace-audit's j-th draw at the first entry n of dims."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
    for _ in range(j + 1):
        lam = np.sort(rng.uniform(0.0, 1.0, size=n))[::-1]
        F = rng.standard_normal((n, n))
        X = rng.standard_normal((n, n))
    return (X.T * lam) @ F


def _oracle_coeffs(mats):
    """The scaled characteristic polynomials characteristic_roots iterates on."""
    scale = np.max(np.abs(mats), axis=(-2, -1))
    return spectral._char_poly_coeffs(mats / scale[:, None, None])


# rows of the benchmark's trace-audit draws (p = 1, 1.5, 2, 4, inf): one stops at
# step 13; two never meet the stop test and repeat an earlier step's roots from
# step 32 with period 2, and from step 17 with period 78
STOPS = _trace_audit_matrix(1, 0, 0)
PERIOD_2 = _trace_audit_matrix(1, 1, 4)
PERIOD_78 = _trace_audit_matrix(116, 2, 1)


class TestCycleExit:
    """Rows whose roots cycle leave early with the roots they have at the cap."""

    @pytest.mark.parametrize("cap", [499, 500, 501])
    def test_matches_the_loop_without_cycle_exit(self, cap, monkeypatch):
        monkeypatch.setattr(spectral, "_DK_MAX_ITERS", cap)
        benchmark_rows = np.stack([STOPS, PERIOD_2, PERIOD_78])
        _, steps = _reference_durand_kerner(_oracle_coeffs(benchmark_rows), cap)
        assert steps[0] < 20 and list(steps[1:]) == [cap, cap]
        mixed = _mixed_stack()
        for mats in (benchmark_rows, mixed[np.any(mixed != 0.0, axis=(-2, -1))]):
            coeffs = _oracle_coeffs(mats)
            want, _ = _reference_durand_kerner(coeffs, cap)
            assert spectral._durand_kerner(coeffs).tobytes() == want.tobytes()
            for i in range(len(coeffs)):
                assert spectral._durand_kerner(coeffs[i:i + 1]).tobytes() == want[i:i + 1].tobytes()

    @pytest.mark.parametrize("mat, period", [(PERIOD_2, 2), (PERIOD_78, 78)])
    def test_a_cycling_row_leaves_long_before_a_huge_cap(self, mat, period, monkeypatch):
        coeffs = _oracle_coeffs(mat[None])
        cap = 10 ** 7
        monkeypatch.setattr(spectral, "_DK_MAX_ITERS", cap)
        start = time.perf_counter()
        got = spectral._durand_kerner(coeffs)
        assert time.perf_counter() - start < 1.0
        # the roots repeat with `period` well before step 500, so the cap's
        # roots are those of the congruent cap near 500
        want, _ = _reference_durand_kerner(coeffs, 500 + (cap - 500) % period)
        assert got.tobytes() == want.tobytes()


class TestEigenvalueTypeProbe:
    def test_power_diagonal_on_l1(self):
        index = NuclearIndex.absolutely_summable(2.0 / 3.0)

        def gen(n):
            space = AmbientSpace(n, 1.0)
            lam = np.arange(1, n + 1, dtype=float) ** -1.5
            eye = np.eye(n)
            return Representation.from_arrays(lam, eye, eye, space, space)

        probe = eigenvalue_type_probe(gen, index, [8, 16, 32, 64, 128, 256, 512])
        assert probe.verdict == "BOUNDED"
        assert len(probe.reports) == 7
        ratios = [r.ratio for r in probe.reports]
        assert all(r is not None for r in ratios)
        # the ratio sequence decreases for this family
        assert all(b < a for a, b in zip(ratios, ratios[1:]))

    def test_quadratic_diagonal_on_l2(self):
        index = NuclearIndex.absolutely_summable(1.0)

        def gen(n):
            space = AmbientSpace(n, 2.0)
            lam = np.arange(1, n + 1, dtype=float) ** -2.0
            eye = np.eye(n)
            return Representation.from_arrays(lam, eye, eye, space, space)

        probe = eigenvalue_type_probe(gen, index, [8, 16, 32, 64])
        assert probe.verdict == "BOUNDED"

    def test_zero_family_skipped(self):
        index = NuclearIndex.absolutely_summable(0.5)

        def gen(n):
            space = AmbientSpace(n, 2.0)
            return Representation.from_arrays(
                [0.0], np.eye(n)[:1], np.eye(n)[:1], space, space
            )

        probe = eigenvalue_type_probe(gen, index, [2, 4, 8])
        assert probe.verdict == "SKIPPED"
        assert all(r.ratio is None for r in probe.reports)
        assert all(r.quasi_norm == 0.0 for r in probe.reports)

    def test_empty_dims_rejected(self):
        with pytest.raises(ValueError):
            eigenvalue_type_probe(
                lambda n: diag_rep([1.0], L2(n)),
                NuclearIndex.absolutely_summable(1.0),
                [],
            )


class TestSimilarity:
    def test_identity_pair(self):
        sp = L2(3)
        I = OperatorMatrix(np.eye(3), sp, sp)
        report = similarity_spectrum_check(I, I)
        assert report.matched and report.max_mismatch <= 1e-14

    def test_rank_one_rectangular(self):
        row = OperatorMatrix(np.array([[1.0, 0.0, 0.0]]), L2(3), L2(1))
        col = OperatorMatrix(np.array([[1.0], [0.0], [0.0]]), L2(1), L2(3))
        report = similarity_spectrum_check(row, col)
        assert report.matched
        assert report.dim_ab == 1 and report.dim_ba == 3

    def test_random_rectangular(self):
        rng = np.random.default_rng(77)
        A = OperatorMatrix(rng.standard_normal((4, 7)), L2(7), L2(4))
        B = OperatorMatrix(rng.standard_normal((7, 4)), L2(4), L2(7))
        report = similarity_spectrum_check(A, B)
        assert report.matched
        assert report.max_mismatch <= 1e-8

    def test_shape_mismatch(self):
        A = OperatorMatrix(np.ones((2, 3)), L2(3), L2(2))
        with pytest.raises(ValueError):
            similarity_spectrum_check(A, A)


class TestNilpotentCheck:
    def test_strict_triangular_trace_and_spectrum(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            mat = strict_upper(rng, 6)
            assert float(np.trace(mat)) == 0.0
            assert float(np.max(np.abs(eigenvalues(mat)))) <= 1e-8

    def test_zero_matrix_passes(self):
        report = nilpotent_check(np.zeros((3, 3)))
        assert report.applied and report.passed

    def test_shift_skipped(self):
        shift = np.diag(np.ones(4), 1)  # 5x5, squares to nonzero
        report = nilpotent_check(shift)
        assert not report.applied
        assert report.passed is None
        assert report.note == "not 2-nilpotent, skipped"

    def test_rank_one_square_zero(self):
        u = np.array([1.0, 1.0, 0.0])
        v = np.array([1.0, -1.0, 0.0])
        mat = np.outer(u, v)  # trace v . u = 0, squares to zero
        report = nilpotent_check(mat)
        assert report.applied
        assert report.trace == 0.0
        assert report.passed

    def test_outer_product_square_zero(self):
        # not triangular, so eigvals returns +-2.0e-8 rather than exact zeros
        report = nilpotent_check(np.outer([1.0, 2.0, 3.0], [3.0, 0.0, -1.0]))
        assert report.applied and report.square_norm == 0.0 and report.trace == 0.0
        assert report.passed

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** 20, 2.0 ** -20, 1e6])
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_square_zero_products_pass(self, n, scale):
        # A = U W^t with W^t U = 0 in integers: W = det(G) V - U adj(G) U^t V,
        # G = U^t U; the entries stay small enough for A @ A to be exactly 0
        # at these scales
        rng = np.random.default_rng([31, n])
        for _ in range(12):
            U = rng.integers(-1, 2, size=(n, max(1, n // 3))).astype(float)
            V = rng.integers(-1, 2, size=U.shape).astype(float)
            G = U.T @ U
            det = np.linalg.det(G)
            adj = np.round(det * np.linalg.inv(G)) if det else np.zeros_like(G)
            W = np.round(det) * V - U @ adj @ (U.T @ V)
            mat = scale * (U @ W.T)
            report = nilpotent_check(mat)
            assert report.applied and report.square_norm == 0.0
            assert report.passed

    def test_unit_trace_configuration_never_applies(self):
        # any matrix with square zero has trace zero; probe a family
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            mat = strict_upper(rng, n)
            report = nilpotent_check(mat)
            if report.applied:
                assert not (report.square_norm == 0.0 and report.trace == 1.0)


class TestTraceFormulaExponent:
    @pytest.mark.parametrize(
        "p,expected",
        [
            (1.0, 2.0 / 3.0),
            (1.5, 6.0 / 7.0),
            (2.0, 1.0),
            (4.0, 0.8),
            (math.inf, 2.0 / 3.0),
        ],
    )
    def test_values(self, p, expected):
        assert trace_formula_exponent(p) == pytest.approx(expected, rel=1e-14)

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            trace_formula_exponent(0.5)
