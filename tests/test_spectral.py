import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucleatrace import experiments, spectral
from nucleatrace.experiments import ExperimentConfig, run
from nucleatrace import (
    AmbientSpace,
    NuclearIndex,
    Representation,
    audit_trace_formula,
    characteristic_roots,
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_refuses_non_finite_entries(self, bad):
        mat = np.array([[bad, 1.0], [0.0, 1.0]])
        for A in (mat, np.stack([np.eye(2), mat])):
            with pytest.raises(ValueError, match="finite"):
                eigenvalues(A)


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

    def test_known_roots(self):
        np.testing.assert_allclose(characteristic_roots(np.diag(np.arange(1.0, 7.0))),
                                   np.arange(6.0, 0.0, -1.0), rtol=1e-10)
        # a triangular matrix has the product of (x - d_i) as its characteristic polynomial
        d = np.array([3.0, -2.0, 1.5, -0.5, 0.25])
        T = np.diag(d) + np.triu(np.random.default_rng(3).integers(-3, 4, (5, 5)).astype(float), 1)
        np.testing.assert_allclose(characteristic_roots(T), [3.0, -2.0, 1.5, -0.5, 0.25], rtol=1e-12)
        # (x^2 - 2x + 5)(x + 3)(x - 1/2): a conjugate pair among real roots
        B = np.diag([1.0, 1.0, -3.0, 0.5])
        B[0, 1], B[1, 0], B[0, 3] = -2.0, 2.0, 1.0
        np.testing.assert_allclose(characteristic_roots(B), [-3.0, 1.0 - 2.0j, 1.0 + 2.0j, 0.5], rtol=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_refuses_non_finite_entries(self, bad):
        mat = np.eye(3)
        mat[1, 2] = bad
        stack = np.stack([np.eye(3), mat, np.zeros((3, 3))])
        for A in (mat, stack, stack.reshape(1, 3, 3, 3), np.full((1, 1), bad)):
            with pytest.raises(ValueError, match="finite"):
                characteristic_roots(A)

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


def _reference_match_spectra(u, v, rel=1e-6, abs_floor=1e-8):
    """The list greedy, one pair of spectra at a time."""
    a = list(spectral._sort_spectrum(np.asarray(u, dtype=complex)))
    b = list(spectral._sort_spectrum(np.asarray(v, dtype=complex)))
    while len(a) < len(b):
        a.append(0.0 + 0.0j)
    while len(b) < len(a):
        b.append(0.0 + 0.0j)
    remaining = list(b)
    worst = 0.0
    ok = True
    for x in a:
        dists = [abs(x - y) for y in remaining]
        i = int(np.argmin(dists))
        y = remaining.pop(i)
        d = abs(x - y)
        worst = max(worst, d)
        if d > max(abs_floor, rel * max(abs(x), abs(y))):
            ok = False
    return ok, worst


def _assert_rows_match_reference(u, v, rel=1e-6, abs_floor=1e-8):
    """Each row of the stacked call has the bits of the list greedy on that row, at its own floor."""
    matched, worst = match_spectra(u, v, rel=rel, abs_floor=abs_floor)
    assert matched.shape == worst.shape == np.shape(u)[:-1]
    floors = np.broadcast_to(abs_floor, matched.shape)
    for idx in np.ndindex(matched.shape):
        ok, gap = _reference_match_spectra(u[idx], v[idx], rel=rel, abs_floor=floors[idx])
        assert (matched[idx], worst[idx].tobytes()) == (ok, np.float64(gap).tobytes()), idx


class TestStackedMatch:
    """The stacked matcher pairs as the list greedy does, bit for bit."""

    def test_trace_audit_oracle_pairs(self, monkeypatch):
        calls = []

        def recording(u, v, **tol):
            calls.append((u, v, tol))
            return match_spectra(u, v, **tol)

        monkeypatch.setattr(experiments, "match_spectra", recording)
        cfg = ExperimentConfig(subcommand="trace-audit", seed=0, trials=100, dims=(4,),
                               p=(1.0, 1.5, 2.0, 4.0, math.inf))
        assert all(r["pass"] for r in run(cfg).records)
        (u, v, tol), = calls
        assert u.shape == v.shape == (500, 4)
        assert tol["abs_floor"].shape == (500,)
        _assert_rows_match_reference(u, v, **tol)

    def test_one_call_per_oracle_dimension(self, monkeypatch):
        calls = []

        def recording(u, v, **tol):
            calls.append(u.shape)
            return match_spectra(u, v, **tol)

        monkeypatch.setattr(experiments, "match_spectra", recording)
        run(ExperimentConfig(subcommand="trace-audit", trials=3, dims=(2, 7, 6, 2), p=(1.5, 3.0)))
        assert calls == [(6, 2), (6, 6), (6, 2)]

    def test_unequal_lengths(self):
        rng = np.random.default_rng(8)
        for m, n in [(2, 5), (5, 2), (1, 4), (3, 3), (6, 1)]:
            A, B = rng.standard_normal((40, m, n)), rng.standard_normal((40, n, m))
            _assert_rows_match_reference(eigenvalues(A @ B), eigenvalues(B @ A))
            _assert_rows_match_reference(eigenvalues(A @ B), eigenvalues(B @ A), rel=1e-7, abs_floor=1e-7)
        for u, v in [([1.0, 2.0], [2.0]), ([3.0], [0.0, 3.0, 0.0]), ([], [1.0j, -1.0j])]:
            assert match_spectra(u, v) == _reference_match_spectra(u, v)

    def test_conjugate_pairs_and_repeated_values(self):
        u = np.array([[1.0 + 2.0j, 1.0 - 2.0j, 0.5, 0.5], [2.0, 2.0, 2.0, -2.0], [1.0j, -1.0j, 1.0, -1.0]])
        v = np.array([[0.5, 1.0 - 2.0j, 0.5, 1.0 + 2.0j], [-2.0, 2.0 + 1e-9, 2.0, 2.0 - 1e-9],
                      [-1.0, 1.0j, -1.0j, 1.0 + 1e-7]])
        _assert_rows_match_reference(u, v)
        _assert_rows_match_reference(v, u)
        _assert_rows_match_reference(u, np.round(u[::-1] + 1e-12, 9))

    def test_distances_that_overflow(self):
        big = 1e308
        cases = [
            ([big, -big], [-big, big]),
            ([big, big], [-big, -big]),  # every distance is inf
            ([big * (1 + 1j), -big], [-big * (1 + 1j)]),
            ([big, big * 1j, -big * 1j], [big, -big, 0.5]),
        ]
        with np.errstate(over="ignore"):
            for u, v in cases:
                for pair in ((u, v), (v, u)):
                    assert match_spectra(*pair) == _reference_match_spectra(*pair)
            assert match_spectra([big, big], [-big, -big]) == (False, math.inf)

    def test_empty_spectra(self):
        assert match_spectra([], []) == (True, 0.0)
        matched, worst = match_spectra(np.zeros((2, 0)), np.zeros((2, 0)))
        assert matched.tolist() == [True, True] and worst.tolist() == [0.0, 0.0]
        matched, worst = match_spectra(np.zeros((0, 3)), np.zeros((0, 2)))
        assert matched.shape == worst.shape == (0,)

    def test_stack_rows_are_row_calls(self):
        rng = np.random.default_rng(4)
        for n, m in [(5, 5), (5, 3), (2, 4)]:
            u = rng.standard_normal((2, 3, n)) + 1j * rng.standard_normal((2, 3, n))
            v = rng.standard_normal((2, 3, m)) + 1j * rng.standard_normal((2, 3, m))
            v[..., : min(n, m)] = u[..., : min(n, m)] + 1e-9
            for x, y in ((u, v), (u, np.conj(u))):
                matched, worst = match_spectra(x, y)
                for idx in np.ndindex(2, 3):
                    single = match_spectra(x[idx], y[idx])
                    assert type(single[0]) is bool and type(single[1]) is float
                    assert (matched[idx], worst[idx]) == single
            _assert_rows_match_reference(u, v)

    def test_refuses_mismatched_leading_shapes(self):
        for u, v in [(np.zeros((2, 3)), np.zeros((3, 3))), (1.0, [1.0]), ([1.0], 1.0)]:
            with pytest.raises(ValueError):
                match_spectra(u, v)

    def test_nan_fails(self):
        assert _reference_match_spectra([math.nan], [1.0]) == (True, 0.0)
        ok, worst = match_spectra([math.nan], [1.0])
        assert ok is False and math.isnan(worst)
        rng = np.random.default_rng(2)
        u = rng.standard_normal((4, 3)) + 0j
        v = u + 1e-12
        v[1, 0] = 5.0
        u[2, 1] = complex(math.nan, 0.0)
        matched, worst = match_spectra(u, v)
        assert not matched[2] and math.isnan(worst[2])
        for row in (0, 1, 3):
            assert (matched[row], worst[row]) == _reference_match_spectra(u[row], v[row])
        assert matched.tolist() == [True, False, False, True]


class TestAuditTraceFormula:
    def test_no_tolerance_option(self):
        assert list(inspect.signature(audit_trace_formula).parameters) == ["reps", "indices"]

    def test_diagonal_rep(self):
        z = diag_rep([0.5, 1.0 / 3.0], L2(2))
        audit = audit_trace_formula(z, NuclearIndex.absolutely_summable(1.0))
        assert audit.nuclear_trace[0] == pytest.approx(5.0 / 6.0, rel=1e-15)
        assert audit.spectral_sum[0].real == pytest.approx(5.0 / 6.0, rel=1e-12)
        assert audit.defect[0] <= 1e-12
        assert audit.passed.tolist() == [True]

    def test_nilpotent_atom(self):
        sp = L2(2)
        z = Representation.from_arrays([1.0], [[1.0, 0.0]], [[0.0, 1.0]], sp, sp)
        audit = audit_trace_formula(z, NuclearIndex.absolutely_summable(1.0))
        assert audit.nuclear_trace.tolist() == [0.0]
        assert audit.spectral_sum.tolist() == [0.0 + 0.0j]
        assert audit.defect.tolist() == [0.0]
        assert audit.passed.tolist() == [True]

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
        audit = audit_trace_formula(z, NuclearIndex.absolutely_summable(s))
        assert audit.defect[0] <= 1e-8 * audit.frobenius[0]
        assert audit.passed.tolist() == [True]
        M = induced_matrix(z)
        np.testing.assert_array_equal(audit.matrices, [M])
        matched, _ = match_spectra(
            eigenvalues(M),
            characteristic_roots(M),
            rel=1e-7,
            abs_floor=1e-7,
        )
        assert matched

    def test_zero_rep_has_no_ratio(self):
        # the quasi-norm vanishes, so trace-audit writes no ratio; a zero
        # defect passes against a zero Frobenius norm
        sp = L2(2)
        z = Representation.from_arrays([0.0], np.eye(2)[:1], np.eye(2)[:1], sp, sp)
        audit = audit_trace_formula(z, NuclearIndex.absolutely_summable(1.0))
        assert audit.quasi_norm.tolist() == [0.0]
        assert audit.defect.tolist() == audit.frobenius.tolist() == [0.0]
        assert audit.passed.tolist() == [True]

    def test_columns_of_a_single_representation(self):
        z = diag_rep([0.5, 0.25, 0.125], L2(3))
        audit = audit_trace_formula(z, NuclearIndex.absolutely_summable(1.0))
        for name in ("nuclear_trace", "spectral_sum", "defect", "eigen_l1", "quasi_norm", "frobenius", "passed"):
            assert getattr(audit, name).shape == (1,)
        assert audit.spectral_sum.dtype == complex and audit.passed.dtype == bool
        assert audit.matrices.shape == (1, 3, 3) and audit.spectra.shape == (1, 3)
        np.testing.assert_array_equal(audit.spectra, [[0.5, 0.25, 0.125]])
        assert audit.eigen_l1.tolist() == [0.875]

    @pytest.mark.parametrize("seed", range(6))
    def test_rule_is_scale_invariant(self, seed, monkeypatch):
        # a power-of-two scale leaves the defect relative to the Frobenius
        # norm about where it was, a few 1e-16, so the verdict may not
        # change with it; an absolute floor would pass the scaled copy
        monkeypatch.setattr(spectral, "_DEFECT_RULE", 1e-17)
        rng = np.random.default_rng([17, seed])
        space = AmbientSpace(6, 1.5)
        lam = np.sort(rng.uniform(0.1, 1.0, 6))[::-1]
        F, X = rng.standard_normal((6, 6)), rng.standard_normal((6, 6))
        idx = NuclearIndex.absolutely_summable(0.75)
        big, tiny = (
            audit_trace_formula(Representation(c * lam, F, X, space, space), idx)
            for c in (1.0, 2.0 ** -60)
        )
        np.testing.assert_array_equal(tiny.matrices, 2.0 ** -60 * big.matrices)
        assert tiny.passed.tolist() == big.passed.tolist() == [False]

    def test_frobenius_of_scaled_functionals_is_finite_and_exact(self):
        # np.linalg.norm squares the entries, so at 1e160 it reads inf, and a rule
        # and floor taken from it would pass any defect and any root
        rng = np.random.default_rng(0)
        space, idx = AmbientSpace(4, 2.0), NuclearIndex.absolutely_summable(1.0)
        lam, F, X = [1.0, 0.5, 0.25], rng.standard_normal((3, 4)), rng.standard_normal((3, 4))

        def audit_and_oracle(c):
            audit = audit_trace_formula(Representation(lam, c * F, X, space, space), idx)
            floor = 1e-7 * audit.frobenius  # trace-audit's oracle floor
            matched, _ = match_spectra(audit.spectra, characteristic_roots(audit.matrices), rel=1e-7, abs_floor=floor)
            return audit, floor, matched

        base, base_floor, base_matched = audit_and_oracle(1.0)
        assert base.frobenius.tolist() == [np.linalg.norm(base.matrices[0])]
        big, _, big_matched = audit_and_oracle(1e160)
        assert np.isfinite(big.frobenius).all()
        assert big.frobenius[0] == pytest.approx(1e160 * base.frobenius[0], rel=1e-14)
        assert big.passed.tolist() == base.passed.tolist() == [True]
        assert big_matched.tolist() == base_matched.tolist() == [True]
        for k in (530, -530):
            audit, floor, matched = audit_and_oracle(2.0 ** k)
            assert np.isfinite(audit.frobenius).all() and audit.frobenius[0] > 0.0
            assert audit.frobenius.tolist() == np.ldexp(base.frobenius, k).tolist()
            assert floor.tolist() == np.ldexp(base_floor, k).tolist()
            assert audit.passed.tolist() == base.passed.tolist()
            assert matched.tolist() == base_matched.tolist()


class TestFrobenius:
    """The one Frobenius kernel behind every norm of the module."""

    def test_bits_of_np_linalg_norm_in_range(self):
        rng = np.random.default_rng(3)
        for k in (-300, 0, 300):
            stack = np.ldexp(rng.standard_normal((2, 3, 5, 4)), k)
            fro = spectral._frobenius(stack)
            assert fro.shape == (2, 3)
            assert fro.ravel().tolist() == [np.linalg.norm(M) for M in stack.reshape(-1, 5, 4)]

    def test_exact_where_the_squares_leave_the_double_range(self):
        M = np.array([[3.0, -4.0]])
        for k in (-1070, -600, 600, 1020):
            assert spectral._frobenius(np.ldexp(M, k)) == np.ldexp(5.0, k)
        assert spectral._frobenius(np.full((2, 2), 1.5e308)) == math.inf
        assert spectral._frobenius(np.zeros((0, 0))) == 0.0
        assert spectral._frobenius(np.zeros((2, 3, 3))).tolist() == [0.0, 0.0]

    @staticmethod
    def _each_norm(stack):
        """np.linalg.norm of each matrix, at the power of two that puts its largest entry in [1/2, 1)."""
        out = []
        for M in stack.reshape((-1,) + stack.shape[-2:]):
            e = int(np.frexp(np.max(np.abs(M), initial=0.0))[1])
            with np.errstate(over="ignore"):
                out.append(float(np.ldexp(np.linalg.norm(np.ldexp(M, -e)), e)))
        return out

    @pytest.mark.parametrize("shape", [(7, 1, 1), (5, 1, 9), (5, 9, 1), (4, 3, 8), (3, 17, 5), (2, 40, 33)])
    def test_each_matrix_has_the_bits_of_np_linalg_norm(self, shape):
        rng = np.random.default_rng(sum(shape))
        stack = rng.standard_normal(shape) * np.exp(rng.uniform(-20.0, 20.0, (shape[0], 1, 1)))
        assert spectral._frobenius(stack).tolist() == [np.linalg.norm(M) for M in stack]

    def test_one_matrix_has_the_bits_of_np_linalg_norm_in_any_memory_order(self):
        # np.linalg.norm sums a matrix in memory order: a transposed or reversed
        # view keeps the bits of that order
        rng = np.random.default_rng(11)
        for m, n in [(1, 1), (2, 3), (7, 5), (33, 18), (64, 64)]:
            M = rng.standard_normal((m, n))
            for view in (M, M.T, M[::-1], M[:, ::-1], np.asfortranarray(M)):
                assert spectral._frobenius(view) == np.linalg.norm(view)

    def test_zero_matrices_in_a_stack_are_zero(self):
        rng = np.random.default_rng(12)
        stack = rng.standard_normal((6, 4, 5))
        stack[[0, 3, 5]] = 0.0
        fro = spectral._frobenius(stack)
        assert fro[[0, 3, 5]].tolist() == [0.0, 0.0, 0.0]
        assert fro.tolist() == [np.linalg.norm(M) for M in stack]

    @pytest.mark.filterwarnings("error")
    def test_extreme_scales_have_the_bits_of_the_scaled_norm(self):
        # squares of entries near 1e300 overflow and near 1e-300 or subnormal
        # underflow; each matrix is normed at its own power of two
        rng = np.random.default_rng(13)
        base = rng.standard_normal((5, 6, 7))
        scales = np.array([1e300, 1.7e308 / 8.0, 1e-300, 5e-324 * 2.0 ** 20, 5e-324])
        stack = base * scales[:, None, None]
        fro = spectral._frobenius(stack)
        assert fro.tolist() == self._each_norm(stack)
        assert np.all(np.isfinite(fro)) and np.all(fro > 0.0)
        # an all-subnormal matrix is exact, by the exact 3-4-5 triangle
        tiny = np.ldexp(np.array([[[3.0, -4.0]]]), -1070)
        assert spectral._frobenius(tiny).tolist() == [np.ldexp(5.0, -1070)]

    @pytest.mark.filterwarnings("error")
    def test_norms_past_the_double_range_read_inf_without_a_warning(self):
        stack = np.stack([np.full((3, 3), 1.5e308), np.eye(3), np.full((1, 3), -1e308).repeat(3, axis=0)])
        fro = spectral._frobenius(stack)
        assert fro.tolist() == [math.inf, math.sqrt(3.0), math.inf]


def _rank_deficient(rng, n, p):
    """Induced matrix of a representation with fewer atoms than n."""
    space = AmbientSpace(n, p)
    m = n // 2
    lam = np.sort(rng.uniform(0.0, 1.0, m))[::-1]
    z = Representation.from_arrays(
        lam, rng.standard_normal((m, n)), rng.standard_normal((m, n)), space, space
    )
    return induced_matrix(z)


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

    def test_audit_stack_matches_single_calls(self, monkeypatch):
        monkeypatch.setattr(spectral, "_DEFECT_RULE", 1e-9)
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
        audit = audit_trace_formula(reps, indices)
        singles = [audit_trace_formula(z, i) for z, i in zip(reps, indices)]
        _assert_rows_of(audit, singles)
        np.testing.assert_array_equal(audit.matrices, [induced_matrix(z) for z in reps])
        assert audit.frobenius.tolist() == [np.linalg.norm(induced_matrix(z)) for z in reps]
        assert audit.nuclear_trace.tolist() == [nuclear_trace(z) for z in reps]

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
        _assert_rows_of(audit_trace_formula(reps, indices), rows)
        # a stack on its own is the sequence of one
        _assert_rows_of(audit_trace_formula(reps[2], indices[2]), rows[4:8])

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
        audit = audit_trace_formula(reps, [NuclearIndex.absolutely_summable(0.75)] * 40)
        assert audit.frobenius.tolist() == [np.linalg.norm(induced_matrix(z)) for z in reps]

    def test_audit_stack_validation(self):
        rng = np.random.default_rng(6)
        idx = NuclearIndex.absolutely_summable(1.0)
        z4, z3 = (
            Representation.from_arrays(
                [1.0], rng.standard_normal((1, n)), rng.standard_normal((1, n)), L2(n), L2(n)
            )
            for n in (4, 3)
        )
        with pytest.raises(ValueError, match="at least one"):
            audit_trace_formula([], [])
        with pytest.raises(ValueError, match="one index per"):
            audit_trace_formula([z4, z4], [idx])
        with pytest.raises(ValueError, match="one dimension"):
            audit_trace_formula([z4, z3], [idx, idx])
        stack = Representation(np.ones((2, 1)), np.stack([z4.F, z4.F]), np.stack([z4.X, z4.X]), L2(4), L2(4))
        with pytest.raises(ValueError, match="one dimension"):
            audit_trace_formula([stack, z3], [idx, idx])
        rect = Representation.from_arrays([1.0], np.ones((1, 3)), np.ones((1, 4)), L2(3), L2(4))
        with pytest.raises(ValueError, match="one dimension"):
            audit_trace_formula(rect, idx)


def _assert_rows_of(audit, singles):
    """Each row of `audit` holds the bits of the single audit in its place."""
    for name in ("nuclear_trace", "spectral_sum", "defect", "eigen_l1", "quasi_norm", "frobenius", "passed",
                 "matrices", "spectra"):
        column, rows = getattr(audit, name), np.concatenate([getattr(one, name) for one in singles])
        assert column.shape == rows.shape and column.tobytes() == rows.tobytes()


def _trace_audit_matrix(seed, trial, j, n=4):
    """The induced matrix of trace-audit's j-th draw at the first entry n of dims."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
    for _ in range(j + 1):
        lam = np.sort(rng.uniform(0.0, 1.0, size=n))[::-1]
        F = rng.standard_normal((n, n))
        X = rng.standard_normal((n, n))
    return (X.T * lam) @ F


# rows of the benchmark's trace-audit draws (p = 1, 1.5, 2, 4, inf) on which the
# former iterative root finder stopped at step 13, or never met its stop test
# and cycled with period 2 or 78 until its step cap
STOPS = _trace_audit_matrix(1, 0, 0)
PERIOD_2 = _trace_audit_matrix(1, 1, 4)
PERIOD_78 = _trace_audit_matrix(116, 2, 1)


class TestFormerCyclers:
    """Rows that once ran a root iteration to its cap get roots like any other."""

    def test_match_eigenvalues(self):
        rows = np.stack([STOPS, PERIOD_2, PERIOD_78])
        matched, worst = match_spectra(eigenvalues(rows), characteristic_roots(rows), rel=1e-7, abs_floor=1e-7)
        assert matched.tolist() == [True] * 3, worst
        np.testing.assert_array_equal(characteristic_roots(rows), [characteristic_roots(m) for m in rows])


class TestEigenvalueTypeProbe:
    """eigen-type: the diagonal family k**-beta audited at each dimension."""

    def test_power_diagonal_on_l1(self):
        report = run(ExperimentConfig(subcommand="eigen-type", dims=(8, 16, 32, 64, 128, 256, 512), p=(1.0,)))
        assert report.aggregate["verdict"] == "BOUNDED"
        assert len(report.records) == 7
        assert all(r["s"] == 2.0 / 3.0 and r["beta"] == 1.5 for r in report.records)
        ratios = [r["ratio"] for r in report.records]
        # the ratio sequence decreases for this family
        assert all(b < a for a, b in zip(ratios, ratios[1:]))

    def test_quadratic_diagonal_on_l2(self):
        report = run(ExperimentConfig(subcommand="eigen-type", dims=(8, 16, 32, 64), p=(2.0,), beta=2.0))
        assert [r["s"] for r in report.records] == [1.0] * 4
        assert report.aggregate["verdict"] == "BOUNDED"

    def test_ratios_that_grow_are_unbounded(self):
        report = run(ExperimentConfig(subcommand="eigen-type", dims=(512, 8), p=(1.0,)))
        assert report.aggregate["verdict"] == "UNBOUNDED"
        assert [round(r["ratio"], 4) for r in report.records] == [0.1418, 0.4300]
        assert [r["pass"] for r in report.records] == [False, False]

    def test_one_dimension_is_bounded(self):
        report = run(ExperimentConfig(subcommand="eigen-type", dims=(8,), p=(1.0,)))
        assert report.aggregate["verdict"] == "BOUNDED" and report.records[0]["pass"]

    def test_empty_dims_rejected(self):
        with pytest.raises(ValueError, match="dims"):
            ExperimentConfig(subcommand="eigen-type", dims=())


class TestSimilarity:
    def test_identity_pair(self):
        I = np.eye(3)
        report = similarity_spectrum_check(I, I)
        assert report.matched and report.max_mismatch <= 1e-14

    def test_rank_one_rectangular(self):
        row = np.array([[1.0, 0.0, 0.0]])
        col = np.array([[1.0], [0.0], [0.0]])
        report = similarity_spectrum_check(row, col)
        assert report.matched
        assert report.dim_ab == 1 and report.dim_ba == 3

    def test_random_rectangular(self):
        rng = np.random.default_rng(77)
        A = rng.standard_normal((4, 7))
        B = rng.standard_normal((7, 4))
        report = similarity_spectrum_check(A, B)
        assert report.matched
        assert report.max_mismatch <= 1e-8

    def test_shape_mismatch(self):
        A = np.ones((2, 3))
        with pytest.raises(ValueError):
            similarity_spectrum_check(A, A)

    @pytest.mark.parametrize("A, B", [
        (np.ones((2, 3)), np.ones((3, 3))),
        (np.ones(3), np.ones(3)),
        (np.ones((2, 2, 3)), np.ones((2, 3, 2))),
        (np.ones((1, 2, 3)), np.ones((3, 2))),
        (np.ones((2, 3)), np.ones((1, 3, 2))),
        (np.float64(1.0), np.float64(1.0)),
    ])
    def test_refuses_what_does_not_compose_both_ways(self, A, B):
        with pytest.raises(ValueError, match="composable both ways"):
            similarity_spectrum_check(A, B)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_refuses_non_finite_entries(self, bad):
        A = np.ones((2, 3))
        A[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            similarity_spectrum_check(A, np.ones((3, 2)))

    def test_verdict_is_scale_free(self):
        # an absolute floor of 1e-8 left the padded zeros of most of these pairs
        # unmatched at scale 2^40; every pair matches with 1000 times less slack
        rng = np.random.default_rng(1)
        pairs = []
        for _ in range(300):
            m, n = (int(x) for x in rng.integers(2, 9, size=2))
            pairs.append((rng.standard_normal((m, n)), rng.standard_normal((n, m))))
        verdicts = [[similarity_spectrum_check(np.ldexp(A, k), B).matched for A, B in pairs] for k in (-40, 0, 40)]
        assert verdicts == [[True] * 300] * 3

    def test_floor_is_finite_and_scale_covariant(self, monkeypatch):
        # a Frobenius norm from np.linalg.norm squares the entries: at 1e160 it
        # read inf, so the floor was inf and the check could not fail
        floors = []
        match = spectral.match_spectra

        def recording(u, v, **kwargs):
            floors.append(kwargs["abs_floor"])
            return match(u, v, **kwargs)

        monkeypatch.setattr(spectral, "match_spectra", recording)
        rng = np.random.default_rng(0)
        A, B = rng.standard_normal((3, 5)), rng.standard_normal((5, 3))
        assert similarity_spectrum_check(1e160 * A, 1e-160 * B).matched
        assert math.isfinite(floors[-1]) and floors[-1] <= 1e-6
        similarity_spectrum_check(A, B)
        base = floors[-1]
        for k in (-600, -530, 530, 600):
            similarity_spectrum_check(np.ldexp(A, k), np.ldexp(B, -k))
            assert floors[-1] == base
            similarity_spectrum_check(np.ldexp(A, k), B)
            assert floors[-1] == np.ldexp(base, k)


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

    def test_no_tolerance_option(self):
        assert list(inspect.signature(nilpotent_check).parameters) == ["A"]
        assert not nilpotent_check(np.eye(2)).applied

    def test_tiny_shift_is_not_2_nilpotent(self):
        # the square's one nonzero entry, 1e-320, underflows in its norm
        shift = 1e-160 * np.diag(np.ones(2), 1)
        assert (shift @ shift)[0, 2] > 0.0 and np.linalg.norm(shift @ shift) == 0.0
        report = nilpotent_check(shift)
        assert not report.applied and report.passed is None
        assert report.note == "not 2-nilpotent, skipped"
        assert report.square_norm > 0.0  # the norm is taken at unit scale
        # at 1e-150 the square is a normal number, and the label was right already
        assert not nilpotent_check(1e-150 * np.diag(np.ones(2), 1)).applied

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_refuses_non_finite_entries(self, bad):
        for mat in (np.array([[bad]]), np.array([[0.0, bad], [0.0, 0.0]]), np.array([[1.0, 0.0], [0.0, bad]])):
            with pytest.raises(ValueError, match="finite"):
                nilpotent_check(mat)

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

    @pytest.mark.parametrize("scale", [1e200, 0.1, 1e-200])
    def test_square_zero_at_any_scale_passes_without_warning(self, scale):
        # the products cancel only in pairs: 1e200**2 overflows, and 0.1**2
        # leaves a rounding error behind when fused with its negative
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = nilpotent_check(scale * np.outer([1.0, 1.0], [1.0, -1.0]))
        assert report.applied and report.square_norm == 0.0 and report.trace == 0.0
        assert report.passed

    def test_wide_range_square_is_not_lost(self):
        # the square is the identity; scaling to max|A| alone would flush
        # the 1e-200 entry and read the square as zero
        report = nilpotent_check(np.array([[0.0, 1e200], [1e-200, 0.0]]))
        assert not report.applied and report.passed is None
        assert report.square_norm == pytest.approx(math.sqrt(2.0))
        # a square-zero matrix with the same spread is still applied
        wide = np.zeros((4, 4))
        wide[0, 1], wide[2, 3] = 1e300, 1e-300
        assert nilpotent_check(wide).applied

    def test_square_rounding_to_zero_is_not_2_nilpotent(self):
        # (A^2)[0, 2] = a^2 - b = 2^-104 exactly, but a * a rounds to b
        a, b = 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51
        mat = np.zeros((4, 4))
        mat[0, 1], mat[1, 2], mat[0, 3], mat[3, 2] = a, a, -b, 1.0
        assert a * a - b == 0.0
        report = nilpotent_check(mat)
        assert not report.applied
        assert report.square_norm == 2.0 ** -104

    def test_empty_matrix_passes(self):
        assert nilpotent_check(np.zeros((0, 0))).passed

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
