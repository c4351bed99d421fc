import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucleatrace import (
    LorentzIndex,
    Padded,
    factor_l1_lorentz,
    holder_product_bound,
    lorentz_quasi_norm,
    sharpness_witness,
)
from nucleatrace import sequences

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
seqs = st.lists(finite_floats, min_size=1, max_size=64).map(np.array)
s_values = st.sampled_from([0.5, 2.0 / 3.0, 0.9, 1.0])

# a documented result (inf for finite overflow, a ValueError for bad input) comes without a warning
pytestmark = pytest.mark.filterwarnings("error")


class TestRearrangement:
    """lorentz_quasi_norm sees only the decreasing rearrangement of |a|."""

    INDICES = [LorentzIndex(1.0), LorentzIndex(2.0, 1.0), LorentzIndex(0.5, 3.0),
               LorentzIndex(math.inf)]

    def test_sorting(self):
        # signs drop and order does not matter: a* = (3, 1, 0)
        for index in self.INDICES:
            assert lorentz_quasi_norm([0.0, -3.0, 1.0], index) == lorentz_quasi_norm(
                [3.0, 1.0, 0.0], index
            )
        assert lorentz_quasi_norm([0.0, -3.0, 1.0], LorentzIndex(2.0, 1.0)) == (
            3.0 + 2.0 ** -0.5
        )

    def test_empty(self):
        for index in self.INDICES:
            assert lorentz_quasi_norm([], index) == 0.0

    def test_constant_fixed_point(self):
        # ties: a* = (5, 5, 5), so weak l_1 is sup_k 5k at k = 3
        assert lorentz_quasi_norm([5.0, 5.0, 5.0], LorentzIndex(1.0)) == 15.0
        assert lorentz_quasi_norm([5.0, 5.0, 5.0], LorentzIndex(math.inf)) == 5.0

    @given(seqs, st.sampled_from(INDICES))
    def test_permutation_invariant(self, a, index):
        perm = np.random.default_rng(0).permutation(a.size)
        value = lorentz_quasi_norm(a, index)
        assert lorentz_quasi_norm(a[perm], index) == value
        assert lorentz_quasi_norm(-a, index) == value


class TestLorentzIndex:
    def test_inf_p_needs_inf_q(self):
        with pytest.raises(ValueError):
            LorentzIndex(math.inf, 2.0)
        LorentzIndex(math.inf, math.inf)

    def test_positive(self):
        with pytest.raises(ValueError):
            LorentzIndex(0.0, 1.0)
        with pytest.raises(ValueError):
            LorentzIndex(1.0, -1.0)


class TestLorentzQuasiNorm:
    def test_single_entry(self):
        assert lorentz_quasi_norm([1.0, 0.0, 0.0], LorentzIndex(2.0)) == 1.0

    def test_two_ones_weak_l1(self):
        # max(1 * 1, 2 * 1) = 2
        assert lorentz_quasi_norm([1.0, 1.0], LorentzIndex(1.0)) == 2.0

    def test_zero_sequence(self):
        assert lorentz_quasi_norm([0.0, 0.0, 0.0], LorentzIndex(0.5, 3.0)) == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", [LorentzIndex(2.0), LorentzIndex(1.5, 3.0)])
    def test_nonfinite_entries_rejected(self, bad, index):
        with pytest.raises(ValueError):
            lorentz_quasi_norm([bad, 1.0], index)

    def test_finite_overflow_is_inf(self):
        assert lorentz_quasi_norm([1e308, 1e308], LorentzIndex(0.5)) == math.inf

    def test_zero_entry_under_an_overflowing_weight_contributes_zero(self):
        # the weight 3**999 is inf, and inf * 0 made the norm nan
        assert lorentz_quasi_norm([1.0, 0.0, 0.0], LorentzIndex(0.001, 1.0)) == 1.0
        np.testing.assert_array_equal(
            lorentz_quasi_norm([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 2.0]], LorentzIndex(0.001, 1.0)),
            [1.0, 0.0, math.inf],
        )

    def test_power_decay_weak(self):
        k = np.arange(1, 257.0)
        assert lorentz_quasi_norm(k ** -0.75, LorentzIndex(2.0)) == 1.0

    def test_harmonic_weak_l2(self):
        k = np.arange(1, 11.0)
        assert lorentz_quasi_norm(1.0 / k, LorentzIndex(2.0)) == pytest.approx(
            1.0, rel=1e-15
        )

    @given(seqs, st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    def test_diagonal_matches_lp(self, a, p):
        direct = float(np.sum(np.abs(a) ** p) ** (1.0 / p))
        assert lorentz_quasi_norm(a, LorentzIndex(p, p)) == pytest.approx(
            direct, rel=1e-12, abs=1e-12
        )

    @given(seqs, st.floats(min_value=0.01, max_value=100.0))
    def test_homogeneous(self, a, c):
        idx = LorentzIndex(1.5, 3.0)
        base = lorentz_quasi_norm(a, idx)
        assert lorentz_quasi_norm(c * a, idx) == pytest.approx(
            c * base, rel=1e-9, abs=1e-12
        )

    @given(
        st.floats(min_value=0.01, max_value=100.0),
        st.integers(min_value=1, max_value=16),
        st.sampled_from([0.5, 1.0, 2.0]),
        st.sampled_from([0.5, 1.0, 2.0, 8.0, math.inf]),
        st.sampled_from([0.5, 1.0, 2.0, 8.0, math.inf]),
    )
    def test_single_atom_norm_is_index_free(self, c, length, p, q1, q2):
        # On a one-atom sequence every (p, q) quasi-norm equals the atom
        # size, so the second-index comparison holds with constant one.
        a = np.zeros(length)
        a[length // 2] = c
        lo = lorentz_quasi_norm(a, LorentzIndex(p, q2))
        hi = lorentz_quasi_norm(a, LorentzIndex(p, q1))
        assert lo == pytest.approx(c, rel=1e-12)
        assert hi == pytest.approx(c, rel=1e-12)
        assert lo <= hi * (1.0 + 1e-9)

    @given(
        seqs,
        st.sampled_from([0.5, 1.0, 2.0]),
        st.sampled_from([0.5, 1.0, 2.0, 8.0, math.inf]),
        st.sampled_from([0.5, 1.0, 2.0, 8.0, math.inf]),
    )
    def test_second_index_ratio_bounded(self, a, p, q1, q2):
        # Norms at two second indices are comparable up to a dimension
        # factor: with n terms, each norm at q2 is at most
        # n^(1/q1 + 1/q2) times the norm at q1 (and conversely), since a
        # single weighted term bounds the sup and n terms bound the sum.
        if q1 > q2:
            q1, q2 = q2, q1
        lo = lorentz_quasi_norm(a, LorentzIndex(p, q2))
        hi = lorentz_quasi_norm(a, LorentzIndex(p, q1))
        n = float(len(a))
        inv = (0.0 if math.isinf(q1) else 1.0 / q1) + (
            0.0 if math.isinf(q2) else 1.0 / q2
        )
        factor = n ** inv
        assert lo <= hi * factor * (1.0 + 1e-9) + 1e-12
        assert hi <= lo * factor * (1.0 + 1e-9) + 1e-12


class TestHolderProductBound:
    def test_single_term_equality(self):
        lhs, rhs, holds = holder_product_bound([1.0, 0.0], [1.0, 0.0], 2.0 / 3.0)
        assert lhs == 1.0 and rhs == 1.0 and holds

    def test_two_term_strict(self):
        lhs, rhs, holds = holder_product_bound([0.9, 0.1], [1.0, 1.0], 2.0 / 3.0)
        assert lhs == pytest.approx(1.2294002983372345, rel=1e-14)
        assert rhs == pytest.approx(1.4142135623730951, rel=1e-14)
        assert holds and lhs < rhs

    def test_witness_equality_pair(self):
        lhs, _, holds = holder_product_bound(
            [0.5, 0.5], [2.0 ** -0.5, 2.0 ** -0.5], 2.0 / 3.0
        )
        assert holds
        assert lhs == pytest.approx(1.0, rel=1e-14)

    def test_length_mismatch_uses_overlap(self):
        lhs, _, _ = holder_product_bound([1.0, 1.0, 5.0], [1.0], 1.0)
        assert lhs == 1.0

    def test_invalid_s(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                holder_product_bound([1.0], [1.0], bad)

    def test_holds_is_scale_free(self, monkeypatch):
        # an equality pair at scale 1e-14, then lhs pushed 1e-6 relative above rhs
        a, b, s = [1e-14, 0.0], [1.0, 0.0], 2.0 / 3.0
        lhs, rhs, holds = holder_product_bound(a, b, s)
        assert lhs == rhs == 1e-14 and holds
        lp_norm = sequences.lp_norm
        monkeypatch.setattr(
            sequences, "lp_norm",
            lambda arr, p, **kw: lp_norm(arr, p, **kw) * (1.0 + 1e-6 if p == s else 1.0),
        )
        lhs, rhs, holds = holder_product_bound(a, b, s)
        assert lhs > rhs and not holds

    def test_large_entries_do_not_overflow(self):
        # ||b||_9 powers 1e40 to 1e360 unless the largest entry is scaled out
        lhs, rhs, holds = holder_product_bound([1e40], [1e40], 0.9)
        assert math.isfinite(rhs) and holds
        assert lhs == pytest.approx(1e80, rel=1e-14)
        assert rhs == pytest.approx(1e80, rel=1e-14)

    @pytest.mark.parametrize("s", [0.5, 1.0])
    @pytest.mark.parametrize(
        "a, b",
        [([math.nan], [1.0]), ([1.0], [math.nan]), ([math.inf], [1.0]),
         ([0.0], [math.inf]), ([1.0, math.nan], [1.0]), ([1.0], [1.0, -math.inf]),
         # past the overlap such an entry meets no lhs term, and a zero norm makes rhs 0
         ([1.0, math.nan], [0.0]), ([0.0], [1.0, math.nan]), ([0.0, math.inf], [0.0])],
    )
    def test_nonfinite_entries_rejected(self, a, b, s):
        with pytest.raises(ValueError):
            holder_product_bound(a, b, s)

    def test_finite_overflow_is_inf(self):
        lhs, rhs, holds = holder_product_bound([1e200], [1e200], 0.5)
        assert lhs == math.inf and rhs == math.inf and holds

    def test_zero_a_against_b_past_the_double_range_bounds_by_zero(self):
        # ||a||_1 ||b||_q was 0 * inf = nan, and the bound failed
        assert holder_product_bound([0.0, 0.0], [1e308, 1e308], 0.5) == (0.0, 0.0, True)
        lhs, rhs, holds = holder_product_bound([[0.0, 0.0], [1.0, 2.0]], [[1e308, 1e308], [1e308, 1e308]], 0.5)
        assert lhs.tolist() == [0.0, math.inf] and rhs.tolist() == [0.0, math.inf]
        assert holds.tolist() == [True, True]

    @given(seqs, seqs, s_values)
    @settings(max_examples=200)
    def test_inequality_always_holds(self, a, b, s):
        lhs, rhs, holds = holder_product_bound(a, b, s)
        assert holds
        assert rhs - lhs >= -1e-9 * max(1.0, rhs)


class TestSharpnessWitness:
    def test_unit_mass(self):
        np.testing.assert_array_equal(
            sharpness_witness([1.0, 0.0], 2.0 / 3.0), [1.0, 0.0]
        )

    def test_split_mass(self):
        b = sharpness_witness([0.5, 0.5], 2.0 / 3.0)
        np.testing.assert_allclose(b, [2.0 ** -0.5, 2.0 ** -0.5], rtol=1e-15)
        assert float(np.sum(b ** 2)) == pytest.approx(1.0, rel=1e-14)

    def test_q_one(self):
        b = sharpness_witness([3.0, 1.0], 0.5)
        np.testing.assert_array_equal(b, [0.75, 0.25])
        lhs, _, _ = holder_product_bound([3.0, 1.0], b, 0.5)
        assert lhs == 4.0

    def test_s_one_uses_flat_witness(self):
        b = sharpness_witness([2.0, 1.0], 1.0)
        np.testing.assert_array_equal(b, [1.0, 1.0])
        lhs, rhs, _ = holder_product_bound([2.0, 1.0], b, 1.0)
        assert lhs == rhs == 3.0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            sharpness_witness([0.0, 0.0], 0.5)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_nonfinite_rejected(self, s, bad):
        with pytest.raises(ValueError, match="finite"):
            sharpness_witness([bad, 1.0], s)

    def test_overflowing_divisor_names_s(self):
        # ||a||_1**(1/q) = 100**199 raised OverflowError
        with pytest.raises(ValueError, match="^s = 0.005 "):
            sharpness_witness([60.0, 40.0], 0.005)
        with pytest.raises(ValueError, match="^s = 0.005 "):
            sharpness_witness(np.array([[0.5, 0.5], [60.0, 40.0]]), 0.005)

    @pytest.mark.parametrize("s", [0.5, 2.0 / 3.0, 0.9])
    def test_overflowing_l1_gives_the_unit_scale_witness(self, s):
        # ||a||_1 overflows; the witness is that of a at 2**-1024, bit for bit
        np.testing.assert_array_equal(sharpness_witness([1e308, 1e308], 0.5), [0.5, 0.5])
        a = np.array([1e308, 5e307, -3e307, 1.0])
        np.testing.assert_array_equal(sharpness_witness(a, s), sharpness_witness(np.ldexp(a, -1024), s))
        rows = np.array([a, [3.0, 1.0, 0.0, 0.0]])
        wit = sharpness_witness(rows, s)
        np.testing.assert_array_equal(wit, [sharpness_witness(row, s) for row in rows])
        assert sequences.lp_norm(wit[0], s / (1.0 - s)) == pytest.approx(1.0, rel=1e-15)

    @given(seqs, s_values)
    @settings(max_examples=200)
    def test_witness_attains_l1_mass(self, a, s):
        if not np.any(a != 0.0):
            return
        b = sharpness_witness(a, s)
        lhs, rhs, holds = holder_product_bound(a, b, s)
        l1 = float(np.sum(np.abs(a)))
        assert holds
        assert abs(lhs - l1) <= 1e-9 * max(1.0, l1)

    @pytest.mark.xfail(strict=True, reason="each a_k b_k rounds up to 5e-324, so lhs 1.5e-323 exceeds rhs 1e-323: "
                                           "holder_product_bound decides subnormal rows at their own scale")
    def test_witness_attains_l1_mass_at_subnormal_scale(self):
        # a draw the property test above can make
        a = np.array([5e-324, 5e-324])
        assert holder_product_bound(a, sharpness_witness(a, 2.0 / 3.0), 2.0 / 3.0)[2]


class TestFactorization:
    def test_power_decay_with_explicit_envelope(self):
        k = np.arange(1, 1025.0)
        alpha, beta, cert = factor_l1_lorentz(
            k ** -2.0, 2.0 / 3.0, epsilon=k ** -0.25
        )
        # alpha ~ k^(-5/4), beta ~ k^(-3/4), product exact
        np.testing.assert_allclose(alpha, k ** -1.25, rtol=1e-12)
        np.testing.assert_allclose(beta, k ** -0.75, rtol=1e-12)
        assert np.all(alpha * beta == k ** -2.0)
        assert cert.non_increasing
        assert np.isfinite(cert.l1_alpha)

    def test_single_atom(self):
        alpha, beta, cert = factor_l1_lorentz([1.0, 0.0, 0.0], 2.0 / 3.0)
        np.testing.assert_array_equal(alpha, [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(beta, [1.0, 0.0, 0.0])
        assert cert.l1_alpha == 1.0

    @pytest.mark.parametrize("d, s", [
        ([1e307, 5e306], 0.1),  # d_2 / beta_2 = 5e306 * 512 overflows
        (np.arange(1, 4097.0) ** -2.0, 0.01),  # k**(1/q) = k**99 overflows
    ])
    def test_split_past_the_double_range_names_s(self, d, s):
        # a RuntimeError here ended the command line in a traceback; the split overflows on its way
        with pytest.raises(ValueError, match=f"^no exact split at s = {s}:"):
            factor_l1_lorentz(d, s)

    @pytest.mark.parametrize("d", [np.zeros(4096), np.r_[1.0, np.zeros(4095)]], ids=["zeros", "one-then-zeros"])
    def test_zero_entry_under_an_overflowing_weight_weighs_zero(self, d):
        # k**(1/q) = k**99 is inf past k = 1300; inf * 0 is nan, but a zero beta_k weighs 0
        alpha, beta, cert = factor_l1_lorentz(d, 0.01)
        np.testing.assert_array_equal(alpha, d)
        np.testing.assert_array_equal(beta, d)
        np.testing.assert_array_equal(cert.weighted_tail, d)
        assert cert.non_increasing

    def test_l1_mass_past_the_double_range_is_inf_without_a_warning(self):
        # every alpha_k is finite and the split exact, but their sum overflows;
        # the module's filterwarnings("error") turns a warning into a failure
        d = 1e307 * np.arange(1, 257.0) ** -2.0
        alpha, beta, cert = factor_l1_lorentz(d, 0.5)
        assert np.all(alpha * beta == d)
        assert np.all(np.isfinite(alpha))
        assert cert.l1_alpha == math.inf

    def test_zero_sequence(self):
        alpha, beta, _ = factor_l1_lorentz([0.0, 0.0], 0.5)
        assert not np.any(alpha)
        assert not np.any(beta)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            factor_l1_lorentz([1.0, 2.0], 0.5)  # increasing
        with pytest.raises(ValueError):
            factor_l1_lorentz([1.0, -0.5], 0.5)  # negative
        with pytest.raises(ValueError):
            factor_l1_lorentz([1.0], 1.0)  # s out of range
        with pytest.raises(ValueError):
            factor_l1_lorentz([1.0, 0.5], 0.5, gamma=-1.0)
        with pytest.raises(ValueError):
            factor_l1_lorentz([1.0, 0.5], 0.5, epsilon=[1.0])  # length

    def test_rejects_nan(self):
        for d in ([math.nan], [1.0, math.nan]):
            with pytest.raises(ValueError):
                factor_l1_lorentz(d, 0.5)

    @pytest.mark.parametrize("d, envelope", [
        ([1.0, 0.5, 0.25], {"epsilon": [1.0, math.nan, 0.1]}),
        ([1.0, 0.5, 0.25], {"epsilon": [math.inf, 1.0, 0.5]}),
        ([1.0, 0.5, 0.25], {"gamma": math.inf}),
        ([1.0, 0.5, 0.25], {"gamma": math.nan}),
        ([1.0, 0.5, 0.25], {"gamma": 800.0}),  # 3**-800 underflows to 0
        ([1e300, 5e-324], {}),  # the default envelope's d_2 / d_1 underflows to 0
    ], ids=["nan_epsilon", "inf_epsilon", "inf_gamma", "nan_gamma", "underflowing_gamma",
            "underflowing_default"])
    def test_rejects_bad_envelope(self, d, envelope):
        with pytest.raises(ValueError):
            factor_l1_lorentz(d, 0.5, **envelope)

    def test_gamma_envelope(self):
        k = np.arange(1, 513.0)
        alpha, beta, cert = factor_l1_lorentz(k ** -1.8, 2.0 / 3.0, gamma=0.3)
        assert np.all(alpha * beta == k ** -1.8)
        assert cert.non_increasing

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
    def test_weighted_tail_never_rises_where_the_cap_binds(self, scale):
        # a flat envelope clips every target to the running cap, where
        # k**(1/q) * (cap / k**(1/q)) can round one ulp above the cap
        k = np.arange(1, 4097.0)
        d = scale * k ** -2.0
        alpha, beta, cert = factor_l1_lorentz(d, 2.0 / 3.0, epsilon=np.full(k.size, 0.5))
        assert np.all(alpha * beta == d)
        assert cert.non_increasing
        assert np.all(np.diff(cert.weighted_tail) <= 0.0)

    @pytest.mark.parametrize("beta_exp", [1.6, 2.0, 2.5, 3.0])
    def test_default_envelope_bit_exact(self, beta_exp):
        k = np.arange(1, 4097.0)
        d = k ** -beta_exp
        alpha, beta, cert = factor_l1_lorentz(d, 2.0 / 3.0)
        assert np.all(alpha * beta == d)
        assert cert.non_increasing
        half = cert.weighted_tail[k.size // 2 :]
        assert np.all(np.diff(half) <= 0.0)
        assert cert.final_to_quarter_ratio <= 0.5


def _reference_pair_down(d, target):
    # one entry at a time, Python floats: the search factor_l1_lorentz vectorizes
    if d == 0.0:
        return 0.0, target
    for t in [0.0] + [2.0 ** -e for e in range(43, 8, -1)]:
        base = target * (1.0 - t)
        if base <= 0.0:
            continue
        b = base
        for _ in range(6):
            a0 = d / b
            for a in (a0, math.nextafter(a0, math.inf), math.nextafter(a0, 0.0)):
                if a * b == d:
                    return a, b
            b = math.nextafter(b, 0.0)
    raise RuntimeError("no exactly representable factor pair near target")


def _reference_factor(d, s, eps):
    """factor_l1_lorentz's pairing loop, one entry at a time, with its certificate fields."""
    L = d.size
    w = _weights(L, s)
    alpha = np.zeros(L)
    beta = np.zeros(L)
    cap = math.inf
    for i in range(L):
        target = min(eps[i], cap)
        a, b = _reference_pair_down(d[i], target / w[i])
        if w[i] * b > cap:
            # search again below the largest t with w * t <= target
            t = target / w[i]
            while w[i] * t > target:
                t = math.nextafter(t, 0.0)
            a, b = _reference_pair_down(d[i], t)
        alpha[i] = a
        beta[i] = 0.0 if eps[i] == 0.0 else b
        if beta[i] > 0.0:
            cap = min(cap, w[i] * beta[i])
    weighted = w * beta
    quarter = max(L // 4 - 1, 0)
    ratio = float(weighted[-1] / weighted[quarter]) if weighted[quarter] > 0.0 else 0.0
    return alpha, beta, weighted, float(np.sum(np.abs(alpha))), bool(np.all(np.diff(weighted) <= 0.0)), ratio


def _weights(L, s):
    q = s / (1.0 - s)
    return np.arange(1, L + 1, dtype=float) ** (1.0 / q)


def _default_envelope(d, s):
    if d[0] == 0.0:
        return np.zeros(d.size)
    return np.minimum.accumulate(np.sqrt(_weights(d.size, s) * d / d[0]))


_K = np.arange(1, 4097.0)
_ZERO_TAIL = np.where(_K <= 2000, _K ** -2.0, 0.0)


class TestFactorizationReference:
    """factor_l1_lorentz gives the bits of its one-entry-at-a-time loop."""

    @staticmethod
    def check(d, s, epsilon=None, gamma=None):
        d = np.asarray(d, dtype=float)
        alpha, beta, cert = factor_l1_lorentz(d, s, epsilon=epsilon, gamma=gamma)
        if epsilon is not None:
            eps = np.asarray(epsilon, dtype=float)
        elif gamma is not None:
            eps = np.arange(1, d.size + 1, dtype=float) ** (-gamma)
        else:
            eps = _default_envelope(d, s)
        ref = _reference_factor(d, s, eps)
        got = (alpha, beta, cert.weighted_tail)
        for g, r in zip(got, ref[:3]):
            assert g.tobytes() == r.tobytes()
        assert (cert.l1_alpha, cert.non_increasing, cert.final_to_quarter_ratio) == ref[3:]

    @pytest.mark.parametrize("s", [0.5, 2.0 / 3.0, 0.9])
    @pytest.mark.parametrize("seed", range(3))
    def test_default_envelope(self, s, seed):
        beta_exp = np.random.default_rng([round(s * 1000), seed]).uniform(1.1, 3.0)
        self.check(_K ** -beta_exp, s)

    def test_gamma_envelope(self):
        self.check(_K ** -1.8, 2.0 / 3.0, gamma=0.3)

    def test_flat_epsilon(self):
        # the running cap binds at almost every entry
        self.check(_K ** -2.0, 2.0 / 3.0, epsilon=np.full(_K.size, 0.5))

    @pytest.mark.parametrize("s", [0.5, 2.0 / 3.0])
    def test_flat_epsilon_low(self, s):
        # here some pairs found against the uncapped target round above the
        # running cap without the cap clipping their target
        self.check(_K ** -3.0, s, epsilon=np.full(_K.size, 0.1))

    def test_epsilon_flat_from_halfway(self):
        self.check(_K ** -2.0, 2.0 / 3.0, epsilon=np.minimum(_K ** -0.25, 2048.0 ** -0.25))

    def test_zero_tail_positive_epsilon(self):
        self.check(_ZERO_TAIL, 2.0 / 3.0, epsilon=_K ** -0.25)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_tail_zero_epsilon(self, zero):
        self.check(_ZERO_TAIL, 2.0 / 3.0, epsilon=np.where(_K <= 2000, _K ** -0.25, zero))

    def test_zero_tail_default_envelope(self):
        # the default envelope is 0 wherever the input is
        self.check(_ZERO_TAIL, 2.0 / 3.0)

    @pytest.mark.parametrize("d", [[3.0], [0.0]])
    def test_length_one(self, d):
        self.check(d, 0.5)
        self.check(d, 0.5, epsilon=[0.7])

    @pytest.mark.parametrize("scale", [1e-318, 1e-310, 1e300])
    def test_extreme_scales(self, scale):
        d = scale * _K ** -2.0
        self.check(d, 2.0 / 3.0)
        self.check(d, 2.0 / 3.0, gamma=0.3)
        self.check(d, 2.0 / 3.0, epsilon=np.full(_K.size, 0.5))


class TestArrayInput:
    """Every sequence function takes arrays of finite entries and refuses the rest.

    The three stack-first functions take a 1-d sequence or a 2-d stack;
    factor_l1_lorentz takes a 1-d sequence only.
    """

    CALLS = {
        "lorentz_quasi_norm": lambda a: lorentz_quasi_norm(a, LorentzIndex(0.5, 1.0)),
        "holder_product_bound": lambda a: holder_product_bound(a, [1.0, 0.5], 0.5),
        "sharpness_witness": lambda a: sharpness_witness(a, 0.5),
        "factor_l1_lorentz": lambda a: factor_l1_lorentz(a, 0.5),
    }
    CASES = [(name, "nan") for name in CALLS] + [("factor_l1_lorentz", "matrix")]

    @pytest.mark.parametrize("name, bad", CASES, ids=[f"{name}-{bad}" for name, bad in CASES])
    def test_rejects(self, name, bad):
        a = np.ones((2, 2)) if bad == "matrix" else np.array([1.0, math.nan])
        with pytest.raises(ValueError, match="one dimensional" if bad == "matrix" else "finite"):
            self.CALLS[name](a)

    @pytest.mark.parametrize("name", [name for name in CALLS if name != "factor_l1_lorentz"])
    def test_rejects_three_axes(self, name):
        with pytest.raises(ValueError, match="2-d stack"):
            self.CALLS[name](np.ones((2, 2, 2)))

    @pytest.mark.parametrize("name", [name for name in CALLS if name != "factor_l1_lorentz"])
    @pytest.mark.parametrize(
        "rows, lengths, match",
        [
            ([[1.0, 2.0], [3.0, 0.0]], [2, 1.0], "integers"),
            ([[1.0, 2.0], [3.0, 0.0]], [2, 3], "integers"),
            ([[1.0, 2.0], [3.0, 0.0]], [2, -1], "integers"),
            ([[1.0, 2.0], [3.0, 4.0]], [2, 1], "zero beyond"),
            ([[1.0, 2.0], [3.0, math.nan]], [2, 1], "zero beyond"),
            ([[1.0, 2.0], [3.0, 0.0]], [2], "one stored length per row"),
            ([1.0, 2.0], [2], "2-d rows"),
        ],
    )
    def test_rejects_bad_padded_stack(self, name, rows, lengths, match):
        with pytest.raises(ValueError, match=match):
            self.CALLS[name](Padded(np.array(rows), np.array(lengths)))

    def test_holder_stacks_pair_row_by_row(self):
        with pytest.raises(ValueError, match="same number of rows"):
            holder_product_bound(np.ones((3, 2)), np.ones((2, 2)), 0.5)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


# numpy's pairwise summation unrolls by 8 and splits blocks above 128
STACK_LENGTHS = (1, 7, 8, 9, 16, 127, 128, 129, 300)


def _padded_stack(rng, lengths, width=None):
    """A Padded stack of Gaussian rows at mixed scales: row 0 zero, row 1 near 1e308."""
    width = max(lengths) if width is None else width
    rows = np.zeros((len(lengths), width))
    for i, n in enumerate(lengths):
        rows[i, :n] = rng.standard_normal(n) * 2.0 ** rng.integers(-40, 40)
    rows[0] = 0.0
    rows[1, : lengths[1]] = np.ldexp(rng.uniform(0.5, 1.0, lengths[1]), 1023)
    return Padded(rows, np.array(lengths))


class TestStacks:
    """A stack gives, row by row, the bits of the 1-d call on each row's stored length."""

    @pytest.mark.parametrize("s", [0.5, 2.0 / 3.0, 0.9, 1.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_holder_and_witness_match_single_calls(self, s, seed):
        rng = np.random.default_rng([11, seed])
        la = [int(x) for x in rng.permutation(STACK_LENGTHS)]
        lb = [int(x) for x in rng.permutation(STACK_LENGTHS)]
        a, b = _padded_stack(rng, la, width=310), _padded_stack(rng, lb)
        b.rows[1] = 0.0  # the pair (1e308-ish, 0) gives inf * 0 on the right side
        lhs, rhs, holds = holder_product_bound(a, b, s)
        live = Padded(a.rows[1:], a.lengths[1:])
        wit = sharpness_witness(live, s)
        wl, wr, wh = holder_product_bound(live, Padded(wit, live.lengths), s)
        for i, (n, m) in enumerate(zip(la, lb)):
            one = holder_product_bound(a.rows[i, :n], b.rows[i, :m], s)
            assert _bits(one[:2]) == _bits([lhs[i], rhs[i]]) and one[2] == holds[i]
            if i == 0:
                continue
            row_wit = sharpness_witness(a.rows[i, :n], s)
            assert _bits(row_wit) == _bits(wit[i - 1, :n]) and not wit[i - 1, n:].any()
            one = holder_product_bound(a.rows[i, :n], row_wit, s)
            assert _bits(one[:2]) == _bits([wl[i - 1], wr[i - 1]]) and one[2] == wh[i - 1]

    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_full_width_stack_is_a_padded_one_with_full_lengths(self, s):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((6, 129)), rng.standard_normal((6, 129))
        full = np.full(6, 129)
        assert _bits(holder_product_bound(a, b, s)[:2]) == _bits(
            holder_product_bound(Padded(a, full), Padded(b, full), s)[:2])
        assert _bits(sharpness_witness(a, s)) == _bits(sharpness_witness(Padded(a, full), s))

    @pytest.mark.parametrize(
        "index", [LorentzIndex(0.5), LorentzIndex(2.0 / 3.0, 1.0), LorentzIndex(0.9, 0.9),
                  LorentzIndex(1.0, 1.0), LorentzIndex(2.0, 0.5), LorentzIndex(math.inf)],
    )
    def test_lorentz_matches_single_calls(self, index):
        rng = np.random.default_rng(7)
        for n in STACK_LENGTHS:
            rows = rng.standard_normal((5, n)) * 2.0 ** rng.integers(-40, 40, (5, 1))
            rows[0] = 0.0
            rows[1] = np.ldexp(rng.uniform(0.5, 1.0, n), 1023)
            got = lorentz_quasi_norm(rows, index)
            assert _bits(got) == _bits([lorentz_quasi_norm(row, index) for row in rows])
        mixed = _padded_stack(rng, list(STACK_LENGTHS), width=301)
        got = lorentz_quasi_norm(mixed, index)
        assert _bits(got) == _bits(
            [lorentz_quasi_norm(row[:n], index) for row, n in zip(mixed.rows, STACK_LENGTHS)])

    def test_fortran_ordered_stack_matches_single_calls(self):
        rng = np.random.default_rng(6)
        a, b = (np.asfortranarray(rng.standard_normal((20, 129))) for _ in range(2))
        index = LorentzIndex(2.0 / 3.0, 1.0)
        assert _bits(lorentz_quasi_norm(a, index)) == _bits([lorentz_quasi_norm(row, index) for row in a])
        lhs, rhs, _ = holder_product_bound(Padded(a, np.full(20, 129)), b, 0.9)
        pairs = np.array([holder_product_bound(x, y, 0.9)[:2] for x, y in zip(a, b)])
        assert _bits([lhs, rhs]) == _bits(pairs.T)

    def test_one_sequence_gives_floats_and_a_stack_arrays(self):
        index = LorentzIndex(0.5)
        assert type(lorentz_quasi_norm([1.0, 2.0], index)) is float
        assert lorentz_quasi_norm([[1.0, 2.0]], index).shape == (1,)
        lhs, rhs, holds = holder_product_bound([1.0, 2.0], [3.0], 0.5)
        assert (type(lhs), type(rhs), type(holds)) == (float, float, bool)
        assert sharpness_witness([1.0, 2.0], 0.5).shape == (2,)
        assert sharpness_witness([[1.0, 2.0]], 0.5).shape == (1, 2)

    def test_empty_stack(self):
        index = LorentzIndex(0.5)
        assert lorentz_quasi_norm(np.zeros((0, 4)), index).shape == (0,)
        lhs, rhs, holds = holder_product_bound(np.zeros((0, 4)), np.zeros((0, 2)), 0.5)
        assert lhs.shape == rhs.shape == holds.shape == (0,)

    def test_zero_row_has_no_witness(self):
        with pytest.raises(ValueError, match="nonzero"):
            sharpness_witness(Padded(np.array([[1.0, 2.0], [0.0, 0.0]]), np.array([2, 1])), 0.5)
