import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucleatrace import (
    AmbientSpace,
    NuclearIndex,
    Representation,
    Vector,
    audit_trace_formula,
    dual_exponent,
    improve_representation,
    induced_matrix,
    lp_norm,
    nuclear_trace,
    quasi_norm,
    rebalance,
    trace_perturbation_bound,
    vector_norm,
    weak_norm_bracket,
)
from nucleatrace.tolerances import REL_TOL

L2 = lambda n: AmbientSpace(n, 2.0)


def diag_rep(lambdas, space):
    n = space.dim
    eye = np.eye(n)[: len(lambdas)]
    return Representation.from_arrays(lambdas, eye, eye, space, space)


def random_rep(rng, n, p, atoms=None):
    space = AmbientSpace(n, p)
    m = atoms if atoms is not None else n
    lam = np.sort(rng.uniform(0.0, 1.0, size=m))[::-1]
    F = rng.standard_normal((m, n))
    X = rng.standard_normal((m, n))
    return Representation.from_arrays(lam, F, X, space, space)


def stack_of(reps):
    """The stack of single representations that share spaces and atom count, in order."""
    first = reps[0]
    return Representation(
        np.stack([z.coefficients for z in reps]),
        np.stack([z.F for z in reps]),
        np.stack([z.X for z in reps]),
        first.domain,
        first.codomain,
    )


def _reference_improve(z, index, sweeps=2, accepted=None):
    """The bracket sweep of improve_representation, one candidate at a time through quasi_norm.

    Each accepted rescaling is appended to `accepted`, if given, as
    (sweep, atom, factor).
    """
    before = quasi_norm(z, index)
    current = rebalance(z)
    best_val = quasi_norm(current, index)
    for sweep in range(max(sweeps, 0)):
        changed = False
        for i in range(current.atom_count):
            for c in [0.25, 0.5, 0.75, 1.5, 2.0, 4.0]:
                F = current.F.copy()
                X = current.X.copy()
                F[i] *= c
                X[i] /= c
                cand = Representation(
                    current.coefficients, F, X, current.domain, current.codomain
                )
                val = quasi_norm(cand, index)
                if val < best_val:
                    best_val = val
                    current = cand
                    changed = True
                    if accepted is not None:
                        accepted.append((sweep, i, c))
        if not changed:
            break
    return current, before, min(before, best_val)


class TestNuclearIndex:
    def test_s_variant_range(self):
        NuclearIndex.absolutely_summable(1.0)
        NuclearIndex.absolutely_summable(0.1)
        with pytest.raises(ValueError):
            NuclearIndex.absolutely_summable(1.5)
        with pytest.raises(ValueError):
            NuclearIndex.absolutely_summable(0.0)

    def test_lorentz_admissibility(self):
        NuclearIndex.lorentz(0.5, 2.0)
        NuclearIndex.lorentz(0.5, math.inf)
        NuclearIndex.lorentz(1.0, 1.0)
        NuclearIndex.lorentz(1.0, 0.5)
        with pytest.raises(ValueError):
            NuclearIndex.lorentz(1.0, 2.0)  # r = 1 admits only w <= 1
        with pytest.raises(ValueError):
            NuclearIndex.lorentz(1.5, 1.0)

    def test_bracket_ranges(self):
        NuclearIndex.bracket_lower(1.0, 2.0)
        NuclearIndex.bracket_upper(0.5, 1.0)
        with pytest.raises(ValueError):
            NuclearIndex.bracket_lower(0.5, 3.0)
        with pytest.raises(ValueError):
            NuclearIndex.bracket_upper(2.0, 2.0)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            NuclearIndex("WHATEVER", s=0.5)


class TestRepresentation:
    def test_keeps_atoms_in_order_with_zeros(self):
        sp = L2(3)
        lam, F, X = np.array([0.0, 1.0, 2.0]), np.eye(3), -np.eye(3)
        z = Representation.from_arrays(lam, F, X, sp, sp)
        np.testing.assert_array_equal(z.coefficients, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(z.F, F)
        np.testing.assert_array_equal(z.X, X)
        assert z.atom_count == 3
        np.testing.assert_array_equal(z.magnitudes(), [0.0, 1.0, 2.0])
        # the arrays are copies
        assert not any(np.shares_memory(a, b) for a, b in ((z.coefficients, lam), (z.F, F), (z.X, X)))

    def test_empty_representation(self):
        sp = L2(2)
        z = Representation.from_arrays(np.zeros(0), np.zeros((0, 2)), np.zeros((0, 2)), sp, sp)
        assert z.atom_count == 0
        np.testing.assert_array_equal(induced_matrix(z), np.zeros((2, 2)))
        assert nuclear_trace(z) == 0.0
        stack = Representation(np.zeros((2, 0)), np.zeros((2, 0, 2)), np.zeros((2, 0, 2)), sp, sp)
        assert stack.atom_count == 0
        np.testing.assert_array_equal(induced_matrix(stack), np.zeros((2, 2, 2)))
        np.testing.assert_array_equal(nuclear_trace(stack), [0.0, 0.0])

    def test_atom_shape_validation(self):
        sp_in, sp_out = L2(2), L2(3)
        good_f, good_x = np.ones((2, 2)), np.ones((2, 3))
        for F, X in (
            (np.ones((2, 3)), good_x),  # functionals sized for the codomain
            (good_f, np.ones((2, 2))),  # vectors sized for the domain
            (np.ones((1, 2)), good_x),  # fewer functionals than coefficients
            (good_f, np.ones(6)),  # flat vector array
        ):
            with pytest.raises(ValueError):
                Representation([1.0, 0.5], F, X, sp_in, sp_out)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_atoms_rejected(self, bad):
        sp = L2(2)
        with pytest.raises(ValueError):
            Representation.from_arrays([1.0], [[bad, 0.0]], [[1.0, 0.0]], sp, sp)
        with pytest.raises(ValueError):
            Representation.from_arrays([1.0], [[1.0, 0.0]], [[0.0, bad]], sp, sp)
        with pytest.raises(ValueError):
            Representation.from_arrays([bad], [[1.0, 0.0]], [[1.0, 0.0]], sp, sp)

    def test_row_wise_norms_match_per_atom_loop(self):
        rng = np.random.default_rng(17)
        for p in (1.0, 1.5, 2.0, 4.0, math.inf):
            z = random_rep(rng, 5, p, atoms=4)
            atoms = list(zip(z.coefficients, z.F, z.X))
            mags = [l * lp_norm(f, dual_exponent(p)) * lp_norm(x, p) for l, f, x in atoms]
            np.testing.assert_allclose(z.magnitudes(), mags, rtol=1e-15)
            # with R = 0 the bound is the split weights' mass times the largest scaled vector
            zero = np.zeros((5, 5))
            weights = [l ** 0.5 * lp_norm(f, dual_exponent(p)) for l, f, _ in atoms]
            worst = max(lp_norm(l ** 0.5 * x, p) for l, _, x in atoms)
            _, bound = trace_perturbation_bound(z, zero, 0.5)
            assert bound == pytest.approx(sum(weights) * worst, rel=1e-14)

    def test_negative_coefficient_rejected(self):
        sp = L2(2)
        with pytest.raises(ValueError):
            Representation.from_arrays(
                [-1.0], np.eye(2)[:1], np.eye(2)[:1], sp, sp
            )


class TestRepresentationStack:
    INDICES = [
        NuclearIndex.absolutely_summable(0.6),
        NuclearIndex.lorentz(0.5, math.inf),
        NuclearIndex.bracket_lower(1.0, 1.5),
        NuclearIndex.bracket_upper(0.5, 2.0),
    ]

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, math.inf])
    @pytest.mark.parametrize("atoms", [1, 2, 4])
    def test_rows_match_single_representations(self, p, atoms):
        rng = np.random.default_rng([7, atoms])
        reps = [random_rep(rng, 3, p, atoms=atoms) for _ in range(4)]
        stack = stack_of(reps)
        assert stack.coefficients.shape == (4, atoms) and stack.atom_count == atoms
        np.testing.assert_array_equal(nuclear_trace(stack), [nuclear_trace(z) for z in reps])
        np.testing.assert_array_equal(induced_matrix(stack), [induced_matrix(z) for z in reps])
        np.testing.assert_array_equal(stack.magnitudes(), [z.magnitudes() for z in reps])
        for idx in self.INDICES:
            np.testing.assert_array_equal(quasi_norm(stack, idx), [quasi_norm(z, idx) for z in reps])

    def test_rows_keep_their_atoms_in_order(self):
        sp = L2(2)
        lam = np.array([[1.0, 3.0, 2.0], [3.0, 0.0, 1.0]])
        F = np.arange(12.0).reshape(2, 3, 2)
        z = Representation(lam, F, -F, sp, sp)
        np.testing.assert_array_equal(z.coefficients, lam)
        np.testing.assert_array_equal(z.F, F)
        np.testing.assert_array_equal(z.X, -F)
        assert not np.shares_memory(z.F, F)
        lam = np.array([[2.0, 1.0], [1.0, 1.0]])
        F = np.ones((2, 2, 2))
        z = Representation(lam, F, F, sp, sp)  # the arrays are still copied
        assert not (np.shares_memory(z.coefficients, lam) or np.shares_memory(z.F, F))

    def test_zero_atoms_and_unsorted_rows_match_single_representations(self):
        rng = np.random.default_rng(11)
        reps = [random_rep(rng, 3, 1.5, atoms=4) for _ in range(3)]
        # zero coefficients, ahead of and between positive ones, in rows not sorted by coefficient
        coefficients = [[0.0, 0.3, 0.9, 0.0], [0.2, 0.7, 0.0, 0.5], [0.0, 0.0, 0.0, 0.0]]
        reps = [Representation(lam, z.F, z.X, z.domain, z.codomain) for lam, z in zip(coefficients, reps)]
        stack = stack_of(reps)
        np.testing.assert_array_equal(stack.coefficients, coefficients)
        np.testing.assert_array_equal(induced_matrix(stack), [induced_matrix(z) for z in reps])
        np.testing.assert_array_equal(nuclear_trace(stack), [nuclear_trace(z) for z in reps])
        np.testing.assert_array_equal(stack.magnitudes(), [z.magnitudes() for z in reps])
        for idx in self.INDICES:
            np.testing.assert_array_equal(quasi_norm(stack, idx), [quasi_norm(z, idx) for z in reps])

    def test_empty_rows(self):
        sp = AmbientSpace(3, 1.5)
        empty = Representation.from_arrays([0.0], np.ones((1, 3)), np.ones((1, 3)), sp, sp)
        stack = stack_of([empty, empty])
        np.testing.assert_array_equal(nuclear_trace(stack), [0.0, 0.0])
        np.testing.assert_array_equal(induced_matrix(stack), np.zeros((2, 3, 3)))
        for idx in self.INDICES:
            np.testing.assert_array_equal(quasi_norm(stack, idx), [0.0, 0.0])

    def test_rejects_what_cannot_stack(self):
        sp = L2(2)
        with pytest.raises(ValueError):
            # F rows of another atom count than the coefficients
            Representation(np.ones((2, 2)), np.ones((2, 3, 2)), np.ones((2, 2, 2)), sp, sp)
        with pytest.raises(ValueError):
            # X rows of another dimension than the codomain
            Representation(np.ones((2, 2)), np.ones((2, 2, 2)), np.ones((2, 2, 3)), sp, sp)
        with pytest.raises(ValueError):
            Representation(np.float64(1.0), np.ones(2), np.ones(2), sp, sp)

    def test_single_representation_functions_refuse_a_stack(self):
        # rebalance would otherwise merge the rows' atoms into one representation
        rng = np.random.default_rng(4)
        reps = [random_rep(rng, 3, 1.5, atoms=3) for _ in range(2)]
        stack = stack_of(reps)
        R = np.eye(3)
        for call in (
            lambda: rebalance(stack),
            lambda: improve_representation(stack, NuclearIndex.bracket_lower(1.0, 1.5)),
            lambda: improve_representation(stack, NuclearIndex.absolutely_summable(0.6)),
            lambda: trace_perturbation_bound(stack, R, 0.5),
        ):
            with pytest.raises(ValueError, match="not a stack"):
                call()


class TestInducedMatrix:
    def test_rank_one_projector(self):
        z = diag_rep([1.0], L2(2))
        np.testing.assert_array_equal(
            induced_matrix(z), [[1.0, 0.0], [0.0, 0.0]]
        )

    def test_nilpotent_shift(self):
        sp = L2(2)
        z = Representation.from_arrays(
            [1.0], [[1.0, 0.0]], [[0.0, 1.0]], sp, sp
        )
        np.testing.assert_array_equal(
            induced_matrix(z), [[0.0, 0.0], [1.0, 0.0]]
        )

    def test_diagonal(self):
        z = diag_rep([0.5, 0.5], L2(2))
        np.testing.assert_array_equal(
            induced_matrix(z), np.diag([0.5, 0.5])
        )

    def test_single_is_the_array_of_its_stack_of_one(self):
        rng = np.random.default_rng(3)
        dom, cod = AmbientSpace(3, 1.5), AmbientSpace(5, 4.0)
        z = Representation(rng.uniform(0.1, 1.0, 4), rng.standard_normal((4, 3)),
                           rng.standard_normal((4, 5)), dom, cod)
        M = induced_matrix(z)
        assert type(M) is np.ndarray and M.shape == (5, 3)
        one = induced_matrix(Representation(z.coefficients[None], z.F[None], z.X[None], dom, cod))
        assert one.shape == (1, 5, 3) and M.tobytes() == one[0].tobytes()


class TestNuclearTrace:
    def test_unit_atom(self):
        assert nuclear_trace(diag_rep([1.0], L2(2))) == 1.0

    def test_off_diagonal_atom(self):
        sp = L2(2)
        z = Representation.from_arrays([1.0], [[1.0, 0.0]], [[0.0, 1.0]], sp, sp)
        assert nuclear_trace(z) == 0.0

    def test_two_half_atoms(self):
        assert nuclear_trace(diag_rep([0.5, 0.5], L2(2))) == 1.0

    def test_rectangular_rejected(self):
        sp_in = L2(2)
        sp_out = L2(3)
        z = Representation.from_arrays(
            [1.0], [[1.0, 0.0]], [[1.0, 0.0, 0.0]], sp_in, sp_out
        )
        with pytest.raises(ValueError):
            nuclear_trace(z)


class TestSplit:
    """The atom split behind trace_perturbation_bound, seen with R = 0.

    The displacement of each scaled vector lambda**(1-s) x is then the
    vector itself, so the bound is the weights' mass times its norm.
    """

    @staticmethod
    def bound(z, s):
        return trace_perturbation_bound(z, np.zeros((2, 2)), s)

    def test_unit_fixed_point(self):
        for s in (0.5, 2.0 / 3.0, 1.0):
            assert self.bound(diag_rep([1.0], L2(2)), s) == (1.0, 1.0)

    def test_eighth_atom(self):
        defect, bound = self.bound(diag_rep([0.125], L2(2)), 2.0 / 3.0)
        assert defect == 0.125
        # weight (1/8)^(2/3) = 0.25 is exact in floats, scaled vector (1/8)^(1/3) e_1
        assert bound == pytest.approx(0.25 * 0.5, rel=1e-15)

    def test_invalid_s(self):
        for s in (0.0, -0.5, 1.5, math.nan):
            with pytest.raises(ValueError):
                self.bound(diag_rep([1.0], L2(2)), s)


class TestQuasiNorm:
    def test_single_unit_atom(self):
        z = diag_rep([1.0], L2(2))
        assert quasi_norm(z, NuclearIndex.absolutely_summable(2.0 / 3.0)) == 1.0

    def test_two_atom_s_value(self):
        z = diag_rep([1.0, 0.125], L2(2))
        val = quasi_norm(z, NuclearIndex.absolutely_summable(2.0 / 3.0))
        assert val == pytest.approx(1.3975424859373686, rel=1e-14)

    def test_bracket_lower_single_atom(self):
        z = diag_rep([1.0], L2(2))
        assert quasi_norm(z, NuclearIndex.bracket_lower(2.0 / 3.0, 2.0)) == 1.0

    def test_lorentz_variant_uses_magnitudes(self):
        z = diag_rep([1.0, 0.5], L2(2))
        val = quasi_norm(z, NuclearIndex.lorentz(0.5, math.inf))
        # max(1^2 * 1, 2^2 * 0.5) = 2
        assert val == 2.0

    def test_empty_rep_zero(self):
        sp = L2(2)
        z = Representation.from_arrays([0.0], np.eye(2)[:1], np.eye(2)[:1], sp, sp)
        assert quasi_norm(z, NuclearIndex.absolutely_summable(0.5)) == 0.0
        assert quasi_norm(z, NuclearIndex.bracket_lower(1.0, 2.0)) == 0.0

    def test_s_value_finite_at_extreme_scales(self):
        # atom norms of 1e-170 and 1e170 overflow or underflow an unscaled l_2 sum
        sp = L2(2)
        z = Representation.from_arrays(
            [1e200, 1e200], 1e-170 * np.eye(2), 1e170 * np.eye(2), sp, sp
        )
        val = quasi_norm(z, NuclearIndex.absolutely_summable(2.0 / 3.0))
        assert math.isfinite(val)
        assert val == pytest.approx(2.0 ** 1.5 * 1e200, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_s_value_of_overflowing_magnitudes_is_inf(self):
        # finite atoms whose magnitude 1e320 overflows: one representation and
        # the stack of it alike
        sp = L2(2)
        z = Representation.from_arrays([1e300], [[1e10, 0.0]], [[1e10, 0.0]], sp, sp)
        idx = NuclearIndex.absolutely_summable(0.5)
        assert quasi_norm(z, idx) == math.inf
        assert quasi_norm(stack_of([z, z]), idx).tolist() == [math.inf, math.inf]

    @pytest.mark.filterwarnings("error")
    def test_lorentz_value_of_overflowing_magnitudes_is_inf(self):
        # the same overflow under the LORENTZ index: inf, not a ValueError
        # about infinite input; a finite row of the stack keeps its bits
        sp = L2(2)
        z = Representation.from_arrays([1e300], [[1e10, 0.0]], [[1e10, 0.0]], sp, sp)
        w = Representation.from_arrays([0.75], [[0.5, 1.0]], [[2.0, -1.0]], sp, sp)
        idx = NuclearIndex.lorentz(0.5, 1.0)
        assert quasi_norm(z, idx) == math.inf
        vals = quasi_norm(stack_of([z, w]), idx)
        assert vals[0] == math.inf and vals[1] == quasi_norm(w, idx)
        assert math.isfinite(vals[1])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("index", [NuclearIndex.absolutely_summable(0.5), NuclearIndex.lorentz(0.5, 1.0)])
    def test_zero_vector_atom_with_overflowing_factors_is_zero(self, index):
        # lambda |x'| overflows to inf before it meets |x| = 0: the magnitude
        # was NaN, the S value NaN and the LORENTZ value a ValueError
        sp = L2(2)
        z = Representation.from_arrays([1e300], [[1e10, 0.0]], [[0.0, 0.0]], sp, sp)
        w = Representation.from_arrays([0.75], [[0.5, 1.0]], [[2.0, -1.0]], sp, sp)
        assert z.magnitudes().tolist() == [0.0]
        assert quasi_norm(z, index) == 0.0
        stack = stack_of([z, w])
        assert stack.magnitudes().tolist() == [[0.0], w.magnitudes().tolist()]
        assert quasi_norm(stack, index).tolist() == [0.0, quasi_norm(w, index)]

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_bracket_pair_encloses_nothing_negative(self, seed):
        rng = np.random.default_rng(seed)
        z = random_rep(rng, 4, 2.0, atoms=3)
        lo = quasi_norm(z, NuclearIndex.bracket_lower(1.0, 2.0))
        hi = quasi_norm(z, NuclearIndex.bracket_upper(1.0, 2.0))
        assert lo >= 0.0 and hi >= 0.0


def _zero_atom_with_overflowing_functional():
    """On l_1.5^2: a zero coefficient whose functional's l_3 norm passes the double range, and a unit atom."""
    sp = AmbientSpace(2, 1.5)
    return Representation([0.0, 1.0], [[1.5e308, 1.5e308], [1.0, 0.0]], [[1.0, 1.0], [0.0, 1.0]], sp, sp)


class TestZeroCoefficientAgainstOverflow:
    """A zero coefficient weighs 0, also against an atom norm or pairing past the double range.

    Each value here was nan, False or a ValueError: 0 * inf is nan.
    """

    S1 = NuclearIndex.absolutely_summable(1.0)

    @pytest.mark.filterwarnings("error")
    def test_magnitude_is_zero(self):
        assert _zero_atom_with_overflowing_functional().magnitudes().tolist() == [0.0, 1.0]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("index", [S1, NuclearIndex.lorentz(0.5, 1.0)], ids=["S", "LORENTZ"])
    def test_magnitude_quasi_norms_are_those_of_the_unit_atom(self, index):
        assert quasi_norm(_zero_atom_with_overflowing_functional(), index) == 1.0

    @pytest.mark.filterwarnings("error")
    def test_trace_is_zero_and_the_audit_passes(self):
        z = _zero_atom_with_overflowing_functional()
        assert nuclear_trace(z) == 0.0
        assert audit_trace_formula(z).passed.tolist() == [True]

    # the l_3 norm of the functional overflows to inf, without a warning
    @pytest.mark.filterwarnings("error")
    def test_bracket_lower_ignores_the_functional_of_a_zero_coefficient(self):
        z = _zero_atom_with_overflowing_functional()
        tame = Representation([0.0, 1.0], [[1.0, 1.0], [1.0, 0.0]], z.X, z.domain, z.codomain)
        index = NuclearIndex.bracket_lower(0.8, 1.5)
        assert quasi_norm(z, index) == quasi_norm(tame, index) == pytest.approx(1.656625389618573, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_trace_perturbation_bound_is_zero(self):
        assert trace_perturbation_bound(_zero_atom_with_overflowing_functional(), np.eye(2), 0.5) == (0.0, 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("r", [0.5, 1.0])
    def test_zero_mass_weighs_zero_against_a_weak_norm_past_the_double_range(self, r):
        sp = AmbientSpace(2, 1.5)
        z = Representation([0.0], [[1.5e308, 1.5e308]], [[1.0, 1.0]], sp, sp)
        assert weak_norm_bracket(z.F, 3.0, sp.dual()) == (math.inf, math.inf)
        assert quasi_norm(z, NuclearIndex.bracket_upper(r, 1.5)) == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1), st.sampled_from([1.0, 1.5, 2.0, 4.0, math.inf]))
    @settings(max_examples=60, deadline=None)
    def test_appended_zero_atom_changes_no_value(self, seed, p):
        rng = np.random.default_rng(seed)
        n, m, rows = int(rng.integers(1, 7)), int(rng.integers(1, 6)), int(rng.integers(1, 4))
        space = AmbientSpace(n, p)
        lam = rng.uniform(0.0, 1.0, (rows, m))
        F, X = rng.standard_normal((rows, m, n)), rng.standard_normal((rows, m, n))
        z = Representation(lam, F, X, space, space)
        zz = Representation(
            np.concatenate([lam, np.zeros((rows, 1))], axis=-1),
            np.concatenate([F, np.full((rows, 1, n), 1.5e308)], axis=-2),
            np.concatenate([X, rng.standard_normal((rows, 1, n))], axis=-2),
            space,
            space,
        )
        mags = zz.magnitudes()
        assert mags[:, :m].tobytes() == z.magnitudes().tobytes()
        assert mags[:, m].tolist() == [0.0] * rows
        for index in (self.S1, NuclearIndex.absolutely_summable(0.5),
                      NuclearIndex.lorentz(0.5, 1.0), NuclearIndex.lorentz(0.5, math.inf)):
            np.testing.assert_allclose(quasi_norm(zz, index), quasi_norm(z, index), rtol=REL_TOL, atol=0.0)
        # the trace and the matrix may cancel, so they are compared at the scale of their terms
        terms = np.abs(lam * np.einsum("...ij,...ij->...i", F, X)).sum(axis=-1)
        assert np.all(np.abs(nuclear_trace(zz) - nuclear_trace(z)) <= REL_TOL * terms)
        mat, mat_zz = induced_matrix(z), induced_matrix(zz)
        assert np.all(np.abs(mat_zz - mat) <= REL_TOL * np.abs(mat).max(axis=(-2, -1), keepdims=True))
        verdicts = [audit_trace_formula(r).passed.tolist() for r in (z, zz)]
        assert verdicts[0] == verdicts[1]


def _pairing_past_the_double_range(sign):
    """On l_2^2: one unit atom whose pairing's terms are +-2.25e308; its trace is 0 with sign -1, past the range with +1."""
    return Representation([1.0], [[1.5e308, 1.5e308]], [[1.5, sign * 1.5]], L2(2), L2(2))


def _sum_past_the_double_range():
    """On l_2^2: two unit atoms whose pairings are 1e308 each; their sum, the trace, is past the range."""
    return Representation([1.0, 1.0], [[1e308, 0.0], [1e308, 0.0]], [[1.0, 0.0], [1.0, 0.0]], L2(2), L2(2))


@pytest.mark.filterwarnings("error")
class TestOverflowingPairing:
    """A pairing whose partial sums overflow is taken at unit scale; only one past the double range reads inf."""

    def test_finite_pairing_whose_terms_overflow_has_its_trace(self):
        z = _pairing_past_the_double_range(-1.0)
        assert nuclear_trace(z) == 0.0
        # 3 * 2**1023 - 2 * 2**1023: both terms overflow, the pairing is 2**1023 exactly
        w = Representation([1.0], [[2.0 ** 1023, 2.0 ** 1023]], [[3.0, -2.0]], L2(2), L2(2))
        assert nuclear_trace(w) == 2.0 ** 1023

    @pytest.mark.parametrize("z, trace", [
        (_pairing_past_the_double_range(-1.0), 0.0),
        (_sum_past_the_double_range(), math.inf),
    ], ids=["terms-overflow", "sum-past-range"])
    def test_stack_row_has_the_bits_of_the_single_call(self, z, trace):
        rng = np.random.default_rng(394)
        m = z.atom_count
        lam, F, X = rng.uniform(0.0, 1.0, (3, m)), rng.standard_normal((3, m, 2)), rng.standard_normal((3, m, 2))
        lam[1], F[1], X[1] = z.coefficients, z.F, z.X
        stacked = nuclear_trace(Representation(lam, F, X, L2(2), L2(2)))
        singles = [nuclear_trace(Representation(lam[i], F[i], X[i], L2(2), L2(2))) for i in range(3)]
        assert stacked.tobytes() == np.array(singles).tobytes()
        assert stacked[1] == trace

    def test_trace_perturbation_defect_is_zero(self):
        # R fixes every vector, so the bound is 0 too, against a weight past the double range
        assert trace_perturbation_bound(_pairing_past_the_double_range(-1.0), np.eye(2), 0.5) == (0.0, 0.0)

    def test_pairing_past_the_double_range_reads_inf(self):
        assert nuclear_trace(_pairing_past_the_double_range(1.0)) == math.inf
        neg = Representation([1.0], [[-1.5e308, -1.5e308]], [[1.5, 1.5]], L2(2), L2(2))
        assert nuclear_trace(neg) == -math.inf
        # finite pairings whose sum passes the range
        assert nuclear_trace(_sum_past_the_double_range()) == math.inf


class TestWeakNorm:
    # one vector, and l_2 with p' = 2, are exact routes: both ends agree

    def test_single_vector(self):
        lo, hi = weak_norm_bracket([[3.0, 4.0]], 1.7, L2(2))
        assert lo == hi == 5.0

    def test_orthonormal_pair(self):
        rows = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        lo, hi = weak_norm_bracket(rows, 2.0, L2(3))
        assert lo == hi == pytest.approx(1.0, rel=1e-12)

    def test_repeated_vector(self):
        rows = [[1.0, 0.0, 0.0]] * 2
        lo, hi = weak_norm_bracket(rows, 2.0, L2(3))
        assert lo == hi == pytest.approx(math.sqrt(2.0), rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_bracket_past_the_double_range_reads_inf(self):
        # the ascent's lower end read nan, and so did the BRACKET_LOWER quasi-norm
        sp = AmbientSpace(3, 1.5)
        Y = [[1e308, 5e307, -1e308], [7e307, -1e308, 1e308]]
        assert weak_norm_bracket(Y, 3.0, sp) == (math.inf, math.inf)
        z = Representation([1.0, 0.5], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], Y, sp, sp)
        assert quasi_norm(z, NuclearIndex.bracket_lower(0.8, 1.5)) == math.inf

    def test_bracket_sound(self):
        rng = np.random.default_rng(5)
        sp = AmbientSpace(4, 3.0)
        rows = rng.standard_normal((3, 4))
        lo, hi = weak_norm_bracket(rows, 1.5, sp)
        assert 0.0 < lo <= hi
        crude = sum(vector_norm(Vector(y, sp)) ** 1.5 for y in rows) ** (1.0 / 1.5)
        assert hi <= crude + 1e-12

    @pytest.mark.parametrize(
        "seed",
        # the functionals of the norm_brackets benchmark's op 1457 at seed 833
        # (n = 6, p = 4): the ascent's lower end alone is 3.2501 there, below
        # the largest row norm 3.3300
        [[833, 1457]] + [[41, i] for i in range(6)],
    )
    @pytest.mark.parametrize("p, p_prime", [(4.0 / 3.0, 4.0), (3.0, 1.5)])
    def test_lower_end_at_least_largest_row_norm(self, seed, p, p_prime):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        rng.uniform(0.0, 1.0, size=6)  # the coefficients, drawn first
        rows = rng.standard_normal((6, 6))
        sp = AmbientSpace(6, p)
        lo, hi = weak_norm_bracket(rows, p_prime, sp)
        assert max(vector_norm(Vector(y, sp)) for y in rows) <= lo <= hi

    @pytest.mark.parametrize("k", [40, 60])
    def test_power_of_two_scaling_is_exact(self, k):
        # the bracket is loose (4.0585 to 4.4850 at scale 1); an absolute floor
        # in the tightness test picks the upper end once the ends fall below 1e-12
        sp = AmbientSpace(4, 3.0)
        Y = np.random.default_rng(3).standard_normal((4, 4))
        F = np.random.default_rng([3, 1]).standard_normal((4, 4))
        lam = [1.0, 0.75, 0.5, 0.25]
        scale = 2.0 ** -k
        lo, hi = weak_norm_bracket(Y, 2.5, sp)
        assert tuple(weak_norm_bracket(Y * scale, 2.5, sp)) == (lo * scale, hi * scale)
        lower = NuclearIndex.bracket_lower(1.0, 5.0 / 3.0)
        upper = NuclearIndex.bracket_upper(1.0, 5.0 / 3.0)
        rep = lambda F, X: Representation.from_arrays(lam, F, X, sp, sp)
        assert quasi_norm(rep(F, Y * scale), lower) == quasi_norm(rep(F, Y), lower) * scale
        assert quasi_norm(rep(Y * scale, F), upper) == quasi_norm(rep(Y, F), upper) * scale

    @pytest.mark.parametrize("rows", [[[1.0, 0.0, 0.0]], [[1.0], [0.0]], [1.0, 0.0], []])
    def test_wrong_shape_rejected(self, rows):
        with pytest.raises(ValueError):
            weak_norm_bracket(rows, 2.0, L2(2))

    @pytest.mark.parametrize("shape", [(1, 2), (3, 2), (2, 1, 2), (2, 3, 2)])
    @pytest.mark.parametrize("p_prime", [0.5, math.nan])
    def test_bad_exponent_rejected(self, shape, p_prime):
        # one vector is exact, but its p' is still checked
        with pytest.raises(ValueError):
            weak_norm_bracket(np.ones(shape), p_prime, L2(2))

    @pytest.mark.parametrize("shape", [(1, 2), (3, 2), (2, 3, 2)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_entries_rejected(self, shape, bad):
        rows = np.ones(shape)
        rows[..., -1, 1] = bad
        with pytest.raises(ValueError):
            weak_norm_bracket(rows, 2.0, L2(2))

    @pytest.mark.parametrize("shape", [(1, 3), (3, 1), (2, 3, 3)])
    def test_last_axis_other_than_home_dim_rejected(self, shape):
        with pytest.raises(ValueError):
            weak_norm_bracket(np.ones(shape), 2.0, L2(2))

    @pytest.mark.parametrize("m", [1, 4])
    @pytest.mark.parametrize("p, p_prime", [(3.0, 1.5), (2.0, 2.0), (1.5, 4.0)])
    def test_stack_gives_each_systems_bracket(self, m, p, p_prime):
        sp = AmbientSpace(3, p)
        Y = np.random.default_rng([9, m]).standard_normal((2, 3, m, 3))
        lo, hi = weak_norm_bracket(Y, p_prime, sp)
        assert lo.shape == hi.shape == (2, 3)
        singles = [weak_norm_bracket(y, p_prime, sp) for y in Y.reshape(6, m, 3)]
        assert lo.ravel().tolist() == [b.lower for b in singles]
        assert hi.ravel().tolist() == [b.upper for b in singles]


class TestTracePerturbation:
    def test_identity_perturbation(self):
        z = diag_rep([1.0, 0.5], L2(2))
        R = np.eye(2)
        defect, bound = trace_perturbation_bound(z, R, 2.0 / 3.0)
        assert defect == 0.0 and bound == 0.0

    def test_zero_perturbation_unit_atom(self):
        z = diag_rep([1.0], L2(2))
        R = np.zeros((2, 2))
        defect, bound = trace_perturbation_bound(z, R, 2.0 / 3.0)
        assert defect == 1.0
        assert bound == 1.0

    def test_nilpotent_atom_slack(self):
        sp = L2(2)
        z = Representation.from_arrays([1.0], [[1.0, 0.0]], [[0.0, 1.0]], sp, sp)
        R = np.zeros((2, 2))
        defect, bound = trace_perturbation_bound(z, R, 2.0 / 3.0)
        assert defect == 0.0
        assert bound == 1.0

    @given(
        st.integers(min_value=0, max_value=2 ** 31 - 1),
        st.sampled_from([0.5, 2.0 / 3.0, 0.9, 1.0]),
        st.sampled_from([1.0, 1.5, 2.0, 4.0, math.inf]),
    )
    @settings(max_examples=100, deadline=None)
    def test_defect_below_bound(self, seed, s, p):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        z = random_rep(rng, n, p, atoms=int(rng.integers(1, 5)))
        R = rng.standard_normal((n, n))
        defect, bound = trace_perturbation_bound(z, R, s)
        assert defect <= bound + 1e-10

    @pytest.mark.parametrize("R", [
        np.array([[1.0, math.nan], [0.0, 1.0]]),
        np.array([[math.inf, 0.0], [0.0, 1.0]]),
        np.eye(3),
        np.ones((2, 3)),
        np.ones(2),
        np.eye(2)[None],
        np.stack([np.eye(2), np.eye(2)]),
    ])
    def test_rejects_a_bad_perturbation(self, R):
        z = diag_rep([1.0, 0.5], L2(2))
        with pytest.raises(ValueError, match="perturbation"):
            trace_perturbation_bound(z, R, 0.5)


class TestRebalance:
    def test_matrix_invariant(self):
        rng = np.random.default_rng(9)
        z = random_rep(rng, 4, 1.5)
        zb = rebalance(z)
        np.testing.assert_allclose(
            induced_matrix(zb), induced_matrix(z), rtol=1e-12
        )
        np.testing.assert_allclose(lp_norm(zb.F, dual_exponent(1.5), axis=1), 1.0, rtol=1e-12)
        np.testing.assert_allclose(lp_norm(zb.X, 1.5, axis=1), 1.0, rtol=1e-12)

    def test_magnitude_quasi_norms_invariant(self):
        rng = np.random.default_rng(13)
        z = random_rep(rng, 3, 2.0)
        zb = rebalance(z)
        idx = NuclearIndex.absolutely_summable(2.0 / 3.0)
        assert quasi_norm(zb, idx) == pytest.approx(
            quasi_norm(z, idx), rel=1e-12
        )

    def test_zero_vector_atom_dropped(self):
        sp = L2(2)
        z = Representation.from_arrays(
            [1.0, 0.5], [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]], sp, sp
        )
        zb = rebalance(z)
        assert zb.atom_count == 1


class TestImprove:
    def test_never_increases_bracket_value(self):
        rng = np.random.default_rng(21)
        idx = NuclearIndex.bracket_lower(1.0, 2.0)
        for _ in range(5):
            z = random_rep(rng, 3, 2.0, atoms=3)
            improved, before, after = improve_representation(z, idx, sweeps=1)
            assert after <= before + 1e-9 * max(1.0, before)
            # the returned representation itself is worth no more than `after`
            assert quasi_norm(improved, idx) <= after * (1.0 + 1e-12)
            np.testing.assert_allclose(
                induced_matrix(improved),
                induced_matrix(z),
                rtol=1e-9,
                atol=1e-12,
            )

    # index p 1 gives p' = inf; home inf takes the l_1 column rule (lower)
    # and the sign route (upper); unbalanced inputs, atom counts unlike n
    @pytest.mark.parametrize(
        "upper, p, home, n, atoms, sweeps",
        [
            (False, 1.0, 1.5, 3, 3, 1),
            (True, 1.0, 3.0, 2, 3, 2),
            (False, 1.5, 3.0, 3, 4, 2),
            (True, 1.5, 4.0, 3, 2, 1),
            (False, 2.0, 4.0, 5, 4, 1),
            (True, 2.0, 1.5, 5, 6, 1),
            (False, 1.5, math.inf, 3, 3, 1),
            (True, 1.5, math.inf, 3, 3, 2),
            (False, 1.0, math.inf, 2, 3, 2),
            (True, 2.0, 3.0, 5, 5, 2),
            (False, 2.0, 1.5, 2, 2, 0),
            (True, 1.0, 4.0, 3, 1, 2),
            (False, 1.5, 1.5, 2, 1, 1),
            (True, 1.5, 3.0, 3, 0, 1),
        ],
    )
    def test_matches_one_candidate_at_a_time(self, upper, p, home, n, atoms, sweeps):
        rng = np.random.default_rng([n, atoms, sweeps])
        z = random_rep(rng, n, home, atoms=atoms)
        idx = (NuclearIndex.bracket_upper if upper else NuclearIndex.bracket_lower)(0.8, p)
        self.assert_matches_reference(z, idx, sweeps)

    @staticmethod
    def assert_matches_reference(z, idx, sweeps):
        """improve_representation equals _reference_improve bit for bit; returns the accepted steps."""
        accepted = []
        got = improve_representation(z, idx, sweeps=sweeps)
        ref = _reference_improve(z, idx, sweeps=sweeps, accepted=accepted)
        for name in ("coefficients", "F", "X"):
            np.testing.assert_array_equal(getattr(got[0], name), getattr(ref[0], name))
        assert got[1:] == ref[1:]
        return accepted

    @pytest.mark.parametrize("upper", [False, True])
    def test_matches_one_candidate_at_a_time_when_rebalance_drops_an_atom(self, upper):
        z = random_rep(np.random.default_rng(1), 3, 3.0, atoms=4)
        F = z.F.copy()
        F[1] = 0.0
        z = Representation(z.coefficients, F, z.X, z.domain, z.codomain)
        assert rebalance(z).atom_count == 3
        idx = (NuclearIndex.bracket_upper if upper else NuclearIndex.bracket_lower)(0.8, 1.5)
        self.assert_matches_reference(z, idx, sweeps=2)

    @pytest.mark.parametrize(
        "upper, sweeps, seed, steps",
        [
            # two rescalings of atom 0 and one of atom 2, in one sweep
            pytest.param(False, 1, 1, [(0, 0, 0.5), (0, 0, 1.5), (0, 2, 1.5)], id="two-atoms"),
            # BRACKET_UPPER whose second sweep accepts rescalings of two atoms; rebalance(z)
            # holds coefficients (3.59, 0.66, 1.40), so atom 1 is the one that a sort by
            # coefficient puts at position 2 (see test_sweep_positions_follow_the_atoms_as_given)
            pytest.param(True, 2, 9, [(0, 0, 1.5), (1, 0, 0.75), (1, 1, 0.75)], id="upper-two-sweeps"),
        ],
    )
    def test_matches_one_candidate_at_a_time_over_rounds(self, upper, sweeps, seed, steps):
        z = random_rep(np.random.default_rng([seed]), 3, 3.0, atoms=3)
        idx = (NuclearIndex.bracket_upper if upper else NuclearIndex.bracket_lower)(0.8, 1.5)
        assert self.assert_matches_reference(z, idx, sweeps=sweeps) == steps

    def test_sweep_positions_follow_the_atoms_as_given(self):
        # the upper-two-sweeps case with its atoms sorted by rebalanced coefficient
        # accepts at sorted position 2 the rescaling that the atoms as given accept at 1
        z = random_rep(np.random.default_rng([9]), 3, 3.0, atoms=3)
        order = np.argsort(-rebalance(z).coefficients, kind="stable")
        np.testing.assert_array_equal(order, [0, 2, 1])
        z_sorted = Representation(z.coefficients[order], z.F[order], z.X[order], z.domain, z.codomain)
        idx = NuclearIndex.bracket_upper(0.8, 1.5)
        sorted_steps = self.assert_matches_reference(z_sorted, idx, sweeps=2)
        assert sorted_steps == [(0, 0, 1.5), (1, 0, 0.75), (1, 2, 0.75)]
        given_steps = self.assert_matches_reference(z, idx, sweeps=2)
        assert given_steps == [(sweep, int(order[k]), c) for sweep, k, c in sorted_steps]

    @pytest.mark.parametrize("sweeps", [True, 1.5, -1, "2", None])
    def test_rejects_bad_sweeps(self, sweeps):
        z = random_rep(np.random.default_rng(3), 3, 2.0)
        for idx in (NuclearIndex.bracket_lower(0.8, 1.5), NuclearIndex.absolutely_summable(0.5)):
            with pytest.raises(ValueError, match="sweeps"):
                improve_representation(z, idx, sweeps=sweeps)

    def test_magnitude_variant_rebalances(self):
        rng = np.random.default_rng(22)
        z = random_rep(rng, 3, 2.0)
        idx = NuclearIndex.absolutely_summable(0.5)
        improved, before, after = improve_representation(z, idx)
        assert after == pytest.approx(before, rel=1e-12)
