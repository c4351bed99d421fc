import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucleatrace import (
    FiniteSequence,
    LorentzIndex,
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
            lambda arr, p: lp_norm(arr, p) * (1.0 + 1e-6 if p == s else 1.0),
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
         ([0.0], [math.inf]), ([1.0, math.nan], [1.0]), ([1.0], [1.0, -math.inf])],
    )
    def test_nonfinite_entries_rejected(self, a, b, s):
        with pytest.raises(ValueError):
            holder_product_bound(a, b, s)

    def test_finite_overflow_is_inf(self):
        lhs, rhs, holds = holder_product_bound([1e200], [1e200], 0.5)
        assert lhs == math.inf and rhs == math.inf and holds

    @given(seqs, seqs, s_values)
    @settings(max_examples=200)
    def test_inequality_always_holds(self, a, b, s):
        lhs, rhs, holds = holder_product_bound(a, b, s)
        assert holds
        assert rhs - lhs >= -1e-9 * max(1.0, rhs)


class TestSharpnessWitness:
    def test_unit_mass(self):
        np.testing.assert_array_equal(
            sharpness_witness([1.0, 0.0], 2.0 / 3.0).values, [1.0, 0.0]
        )

    def test_split_mass(self):
        b = sharpness_witness([0.5, 0.5], 2.0 / 3.0).values
        np.testing.assert_allclose(b, [2.0 ** -0.5, 2.0 ** -0.5], rtol=1e-15)
        assert float(np.sum(b ** 2)) == pytest.approx(1.0, rel=1e-14)

    def test_q_one(self):
        b = sharpness_witness([3.0, 1.0], 0.5).values
        np.testing.assert_array_equal(b, [0.75, 0.25])
        lhs, _, _ = holder_product_bound([3.0, 1.0], b, 0.5)
        assert lhs == 4.0

    def test_s_one_uses_flat_witness(self):
        b = sharpness_witness([2.0, 1.0], 1.0).values
        np.testing.assert_array_equal(b, [1.0, 1.0])
        lhs, rhs, _ = holder_product_bound([2.0, 1.0], b, 1.0)
        assert lhs == rhs == 3.0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            sharpness_witness([0.0, 0.0], 0.5)

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


class TestFactorization:
    def test_power_decay_with_explicit_envelope(self):
        k = np.arange(1, 1025.0)
        alpha, beta, cert = factor_l1_lorentz(
            k ** -2.0, 2.0 / 3.0, epsilon=k ** -0.25
        )
        # alpha ~ k^(-5/4), beta ~ k^(-3/4), product exact
        np.testing.assert_allclose(alpha.values, k ** -1.25, rtol=1e-12)
        np.testing.assert_allclose(beta.values, k ** -0.75, rtol=1e-12)
        assert np.all(alpha.values * beta.values == k ** -2.0)
        assert cert.non_increasing
        assert np.isfinite(cert.l1_alpha)

    def test_single_atom(self):
        alpha, beta, cert = factor_l1_lorentz([1.0, 0.0, 0.0], 2.0 / 3.0)
        np.testing.assert_array_equal(alpha.values, [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(beta.values, [1.0, 0.0, 0.0])
        assert cert.l1_alpha == 1.0

    def test_zero_sequence(self):
        alpha, beta, _ = factor_l1_lorentz([0.0, 0.0], 0.5)
        assert not np.any(alpha.values)
        assert not np.any(beta.values)

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
        assert np.all(alpha.values * beta.values == k ** -1.8)
        assert cert.non_increasing

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
    def test_weighted_tail_never_rises_where_the_cap_binds(self, scale):
        # a flat envelope clips every target to the running cap, where
        # k**(1/q) * (cap / k**(1/q)) can round one ulp above the cap
        k = np.arange(1, 4097.0)
        d = scale * k ** -2.0
        alpha, beta, cert = factor_l1_lorentz(d, 2.0 / 3.0, epsilon=np.full(k.size, 0.5))
        assert np.all(alpha.values * beta.values == d)
        assert cert.non_increasing
        assert np.all(np.diff(cert.weighted_tail) <= 0.0)

    @pytest.mark.parametrize("beta_exp", [1.6, 2.0, 2.5, 3.0])
    def test_default_envelope_bit_exact(self, beta_exp):
        k = np.arange(1, 4097.0)
        d = k ** -beta_exp
        alpha, beta, cert = factor_l1_lorentz(d, 2.0 / 3.0)
        assert np.all(alpha.values * beta.values == d)
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
        got = (alpha.values, beta.values, cert.weighted_tail)
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


class TestFiniteSequence:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            FiniteSequence(np.array([1.0, math.nan]))

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            FiniteSequence(np.ones((2, 2)))
