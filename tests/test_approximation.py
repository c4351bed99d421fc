import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucleatrace import approximation
from nucleatrace import (
    AmbientSpace,
    NormBracket,
    OperatorMatrix,
    Vector,
    build_approximant,
    lp_norm,
    operator_norm,
    projection_growth_exponent,
    select_rank,
    vector_norm,
)


def scan_oracle(norms, epsilon, alpha):
    # brute force: smallest N with every stored tail entry under the budget
    L = len(norms)
    for N in range(1, L + 2):
        bound = epsilon / (N ** alpha + 1.0)
        if all(norms[n - 1] <= bound for n in range(N, L + 1)):
            return N
    return L + 1


def coordinate_system(dim, p, decay):
    space = AmbientSpace(dim, p)
    xs = []
    for n in range(1, dim + 1):
        e = np.zeros(dim)
        e[n - 1] = float(n) ** (-decay)
        xs.append(Vector(e, space))
    return xs, space


def random_system(dim, p, decay, seed):
    """Directions drawn one vector at a time, unit in l_p, scaled by n**-decay."""
    rng = np.random.default_rng(seed)
    space = AmbientSpace(dim, p)
    xs = []
    for n in range(1, dim + 1):
        g = rng.standard_normal(dim)
        xs.append(Vector(float(n) ** (-decay) * (g / lp_norm(g, p)), space))
    return xs, space


def _reference_approximant(xs, epsilon, space, alpha):
    """The approximant one Vector at a time: per-vector span, projection and residual loop."""
    norms = np.array([vector_norm(v) for v in xs])
    order = tuple(int(i) for i in np.argsort(-norms, kind="stable"))
    N = select_rank(norms[list(order)], epsilon, alpha)
    span = [xs[i] for i in order][:N]
    U, sing, _ = np.linalg.svd(np.stack([v.coords for v in span], axis=1), full_matrices=False)
    if sing.size == 0 or sing[0] == 0.0:
        raise ValueError("span is degenerate after rank filtering")
    Q = U[:, : int(np.sum(sing > 1e-10 * sing[0]))]
    P = Q @ Q.T
    if space.exponent == 2.0:
        bracket = NormBracket(1.0, 1.0)
    else:
        bracket = operator_norm(OperatorMatrix(P, space, space))
    sup_error = 0.0
    for v in xs:
        sup_error = max(sup_error, lp_norm(v.coords - P @ v.coords, space.exponent))
    return P, bracket, N, int(round(float(np.trace(P)))), order, float(sup_error)


def _assert_matches_reference(xs, epsilon, space, alpha=0.5):
    P, cert = build_approximant(xs, epsilon, space, alpha)
    P_ref, bracket, N, rank, order, sup_error = _reference_approximant(xs, epsilon, space, alpha)
    assert P.tobytes() == P_ref.tobytes()
    assert cert.projection_norm_bracket == bracket
    assert type(cert.projection_norm_bracket.lower) is float
    assert (cert.cutoff, cert.rank, cert.order) == (N, rank, order)
    assert type(cert.sup_error) is float and cert.sup_error == sup_error
    return cert


class TestSelectRank:
    def test_harmonic_tail_cutoff(self):
        norms = [1.0 / n for n in range(1, 257)]
        assert select_rank(norms, 0.1, 0.5) == 120
        # the scan really needs 120: the previous cutoff fails
        assert 1.0 / 119 > 0.1 / (119 ** 0.5 + 1.0)
        assert 1.0 / 120 <= 0.1 / (120 ** 0.5 + 1.0)

    def test_flat_alpha(self):
        norms = [1.0 / n for n in range(1, 257)]
        assert select_rank(norms, 0.5, 0.0) == 4

    def test_all_zero(self):
        assert select_rank([0.0, 0.0, 0.0], 0.1, 0.5) == 1

    def test_no_cutoff_in_list(self):
        assert select_rank([1.0, 1.0, 1.0], 0.1, 0.0) == 4

    def test_rejects_nan(self):
        for norms in ([math.nan], [1.0, math.nan]):
            with pytest.raises(ValueError):
                select_rank(norms, 0.1, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            select_rank([1.0], 0.0, 0.5)
        with pytest.raises(ValueError):
            select_rank([1.0], 0.1, 0.6)
        with pytest.raises(ValueError):
            select_rank([0.5, 1.0], 0.1, 0.5)  # increasing
        with pytest.raises(ValueError):
            select_rank([1.0, -1.0], 0.1, 0.5)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=40),
        st.floats(min_value=0.01, max_value=5.0),
        st.sampled_from([0.0, 0.25, 0.5]),
    )
    @settings(max_examples=200)
    def test_matches_scan_oracle(self, raw, epsilon, alpha):
        norms = sorted(raw, reverse=True)
        assert select_rank(norms, epsilon, alpha) == scan_oracle(
            norms, epsilon, alpha
        )


class TestBuildApproximant:
    def test_single_vector_fixed(self):
        space = AmbientSpace(4, 2.0)
        xs = [Vector([1.0, 0.0, 0.0, 0.0], space)]
        R, cert = build_approximant(xs, 0.3, space, 0.5)
        np.testing.assert_allclose(
            R @ xs[0].coords, xs[0].coords, atol=1e-14
        )
        assert cert.sup_error <= 1e-12
        # A unit vector exceeds eps/(1 + 1) = 0.15, so no cutoff in range
        # qualifies and the selector falls back to length + 1.
        assert cert.cutoff == 2
        assert cert.rank == 1
        assert not cert.guarantee_regime

    def test_single_vector_within_guarantee(self):
        space = AmbientSpace(4, 2.0)
        xs = [Vector([0.1, 0.0, 0.0, 0.0], space)]
        _, cert = build_approximant(xs, 0.3, space, 0.5)
        assert cert.cutoff == 1
        assert cert.guarantee_regime
        assert cert.sup_error <= 1e-12

    def test_coordinate_family_frozen_values(self):
        xs, space = coordinate_system(256, 2.0, 1.0)
        R, cert = build_approximant(xs, 0.1, space, 0.5)
        assert cert.cutoff == 120
        assert cert.rank == 120
        # projection onto the leading coordinates, exactly norm one on l_2
        assert cert.projection_norm_bracket == (1.0, 1.0)
        assert cert.sup_error == pytest.approx(1.0 / 121.0, rel=1e-12)
        assert cert.guarantee_regime
        diag = np.diag(R)
        assert np.sum(diag > 0.5) == 120

    def test_slow_decay_exits_guarantee_regime(self):
        xs, space = coordinate_system(64, 2.0, 0.3)
        R, cert = build_approximant(xs, 0.01, space, 0.5)
        assert cert.cutoff == 65  # beyond the stored list
        assert not cert.guarantee_regime
        assert cert.sup_error >= 0.0

    def test_unsorted_input_is_sorted_internally(self):
        space = AmbientSpace(8, 2.0)
        rng = np.random.default_rng(4)
        xs, _ = coordinate_system(8, 2.0, 1.0)
        perm = rng.permutation(8)
        shuffled = [xs[i] for i in perm]
        _, cert_sorted = build_approximant(xs, 0.4, space, 0.5)
        _, cert_shuffled = build_approximant(shuffled, 0.4, space, 0.5)
        assert cert_sorted.cutoff == cert_shuffled.cutoff
        assert cert_shuffled.sup_error == pytest.approx(
            cert_sorted.sup_error, rel=1e-12
        )
        assert list(cert_shuffled.order) == list(np.argsort(perm, kind="stable"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_approximant([], 0.1, AmbientSpace(2, 2.0), 0.5)

    @pytest.mark.parametrize("scale", [2.0 ** -500, 1.0, 2.0 ** 500])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, math.inf])
    def test_sup_error_is_the_largest_residual_norm(self, p, scale):
        rng = np.random.default_rng(11)
        space = AmbientSpace(12, p)
        xs = [Vector(scale * float(n) ** -1.5 * rng.standard_normal(12), space) for n in range(1, 13)]
        P, cert = build_approximant(xs, 2.0 * scale, space, 0.5)
        assert type(P) is np.ndarray and P.shape == (12, 12)
        assert 0 < cert.rank < 12
        # one Vector per residual, as the error used to be measured
        reference = max(vector_norm(Vector(x.coords - P @ x.coords, space)) for x in xs)
        assert cert.sup_error == reference

    @given(
        st.integers(min_value=0, max_value=2 ** 31 - 1),
        st.floats(min_value=0.6, max_value=2.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_guarantee_regime_meets_epsilon(self, seed, decay):
        rng = np.random.default_rng(seed)
        dim = 32
        space = AmbientSpace(dim, 2.0)
        xs = []
        for n in range(1, dim + 1):
            g = rng.standard_normal(dim)
            g /= np.linalg.norm(g)
            xs.append(Vector(float(n) ** (-decay) * g, space))
        _, cert = build_approximant(xs, 0.2, space, 0.5)
        if cert.guarantee_regime:
            assert cert.sup_error <= 0.2 + 1e-10


    def test_violated_guarantee_is_reported_not_raised(self, monkeypatch):
        # a projection that keeps nothing inside its allowance: the regime holds, the promise fails
        monkeypatch.setattr(approximation, "projection_onto_span",
                            lambda rows, p: (np.zeros((rows.shape[1],) * 2), NormBracket(1.0, 1.0)))
        xs, space = coordinate_system(16, 2.0, 1.0)
        _, cert = build_approximant(xs, 0.5, space, 0.5)
        assert cert.guarantee_regime and cert.cutoff == 8
        assert cert.rank == 0 and cert.sup_error == 1.0


class TestRowsMatchReference:
    """Stacking the system into rows changes no bit of the approximant or its certificate."""

    @pytest.mark.parametrize("dim", [1, 2, 8, 32, 64])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, math.inf])
    def test_coordinate_system(self, p, dim):
        xs, space = coordinate_system(dim, p, 1.0)
        _assert_matches_reference(xs, 0.1, space)

    @pytest.mark.parametrize("dim", [1, 2, 8, 32, 64])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, math.inf])
    def test_random_system(self, p, dim):
        for seed, decay, epsilon in ((dim, 1.2, 0.1), (dim + 100, 0.8, 0.3)):
            xs, space = random_system(dim, p, decay, seed)
            _assert_matches_reference(xs, epsilon, space)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, math.inf])
    def test_repeated_row_is_rank_noise(self, p):
        xs, space = random_system(8, p, 1.0, 3)
        xs = [xs[0]] + xs  # the largest vector twice: the leading span has a repeated row
        cert = _assert_matches_reference(xs, 0.05, space)
        assert cert.order[:2] == (0, 1) and cert.cutoff > 2
        assert cert.rank == min(cert.cutoff, len(xs)) - 1

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_zero_span_is_refused_as_by_the_reference(self, p):
        space = AmbientSpace(4, p)
        xs = [Vector(np.zeros(4), space) for _ in range(3)]
        with pytest.raises(ValueError, match="degenerate"):
            _reference_approximant(xs, 0.1, space, 0.5)
        with pytest.raises(ValueError, match="degenerate"):
            build_approximant(xs, 0.1, space, 0.5)

    def test_mixed_dimensions_refused(self):
        xs = [Vector(np.ones(3), AmbientSpace(3, 2.0)), Vector(np.ones(4), AmbientSpace(4, 2.0))]
        with pytest.raises(ValueError):
            build_approximant(xs, 0.1, AmbientSpace(3, 2.0), 0.5)
        with pytest.raises(ValueError, match="mismatch"):
            build_approximant(xs[:1], 0.1, AmbientSpace(4, 2.0), 0.5)

    def test_vectors_homed_outside_space_refused(self):
        # sorted by their l_1 norms these order (0, 1); in l_inf, where they would be projected, (1, 0)
        home = AmbientSpace(4, 1.0)
        xs = [Vector([1.0, 1.0, 1.0, 1.0], home), Vector([1.9, 0.0, 0.0, 0.0], home)]
        with pytest.raises(ValueError, match="home space mismatch"):
            build_approximant(xs, 0.1, AmbientSpace(4, math.inf), 0.5)
        _, cert = build_approximant([Vector(x.coords, AmbientSpace(4, math.inf)) for x in xs], 0.1,
                                    AmbientSpace(4, math.inf), 0.5)
        assert cert.order == (1, 0)


class TestGrowthExponent:
    @pytest.mark.parametrize(
        "p,expected",
        [(1.0, 0.5), (2.0, 0.0), (4.0, 0.25), (math.inf, 0.5)],
    )
    def test_values(self, p, expected):
        assert projection_growth_exponent(p) == pytest.approx(expected, abs=1e-15)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            projection_growth_exponent(0.9)
