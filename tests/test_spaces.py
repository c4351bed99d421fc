import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucleatrace import (
    AmbientSpace,
    OperatorMatrix,
    Vector,
    dual_exponent,
    lp_norm,
    operator_norm,
    projection_onto_span,
    vector_norm,
)
from nucleatrace import spaces
from nucleatrace.spaces import _ascent_lower

P_GRID = [1.0, 1.5, 2.0, 3.0, 4.0, math.inf]


def space(n, p):
    return AmbientSpace(n, p)


def _reference_dual_map(z, p):
    """One vector at a time: unit l_p vector x maximizing <z, x>."""
    if math.isinf(p):
        out = np.sign(z)
        out[out == 0.0] = 1.0
        return out
    if p == 1.0:
        out = np.zeros_like(z)
        i = int(np.argmax(np.abs(z)))
        out[i] = math.copysign(1.0, z[i]) if z[i] != 0.0 else 1.0
        return out
    a = np.abs(z)
    m = float(np.max(a))
    if m == 0.0:
        out = np.zeros_like(z)
        out[0] = 1.0
        return out
    y = np.sign(z) * (a / m) ** (dual_exponent(p) - 1.0)
    return y / lp_norm(y, p)


def _reference_ascent_lower(A, p_in, p_out):
    """Multi-start alternating maximization, one start at a time with early exits."""
    n_out, n_in = A.shape
    q_dual = dual_exponent(p_out)
    starts = []
    for j in np.argsort(-np.linalg.norm(A, axis=0))[: min(8, n_in)]:
        e = np.zeros(n_in)
        e[j] = 1.0
        starts.append(e)
    starts.append(np.ones(n_in))
    rng = np.random.default_rng(0x5EED0F42)
    for _ in range(6):
        starts.append(rng.standard_normal(n_in))
    best = 0.0
    for x0 in starts:
        nx = lp_norm(x0, p_in)
        if nx == 0.0:
            continue
        x = x0 / nx
        for _ in range(60):
            y = A @ x
            val = lp_norm(y, p_out) / lp_norm(x, p_in)
            if val > best:
                best = val
            if val == 0.0:
                break
            g = A.T @ _reference_dual_map(y, q_dual)
            if lp_norm(g, dual_exponent(p_in)) == 0.0:
                break
            x_new = _reference_dual_map(g, p_in)
            if np.allclose(x_new, x, rtol=0.0, atol=1e-15):
                x = x_new
                break
            x = x_new
        y = A @ x
        val = lp_norm(y, p_out) / lp_norm(x, p_in)
        if val > best:
            best = val
    return best


class TestVectorNorm:
    @pytest.mark.parametrize("p", P_GRID)
    def test_unit_vector(self, p):
        v = Vector([1.0, 0.0, 0.0], space(3, p))
        assert vector_norm(v) == 1.0

    def test_pythagorean(self):
        assert vector_norm(Vector([3.0, 4.0], space(2, 2.0))) == 5.0

    def test_l1_sum(self):
        assert vector_norm(Vector([1.0, 1.0, 1.0, 1.0], space(4, 1.0))) == 4.0

    def test_method_matches_function(self):
        v = Vector([1.0, -2.0, 0.5], space(3, 1.5))
        assert v.norm() == vector_norm(v)

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=8))
    def test_norms_nested(self, coords):
        # l_p norms decrease as p grows
        arr = np.array(coords)
        vals = [vector_norm(Vector(arr, space(arr.size, p))) for p in P_GRID]
        for lo, hi in zip(vals[1:], vals[:-1]):
            assert lo <= hi + 1e-9 * max(1.0, hi)


class TestLpNorm:
    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    @pytest.mark.parametrize("p", [0.5, 1.5, 3.0, math.inf])
    def test_extreme_scales(self, p, scale):
        x = np.array([3.0, -1.0, 0.25, 2.0])
        if math.isinf(p):
            ref = 3.0
        else:
            ref = math.fsum(abs(v) ** p for v in x) ** (1.0 / p)
        assert lp_norm(scale * x, p) == pytest.approx(scale * ref, rel=1e-14)

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 3.0, math.inf])
    def test_axis_matches_per_row_calls(self, p):
        rng = np.random.default_rng(4)
        Y = rng.standard_normal((5, 7)) * 10.0 ** rng.integers(-150, 150, size=(5, 1))
        Y[2] = 0.0
        rows = lp_norm(Y, p, axis=1)
        np.testing.assert_array_equal(rows, [lp_norm(y, p) for y in Y])
        assert rows[2] == 0.0

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0, math.inf])
    def test_infinite_entry_gives_inf(self, p):
        assert lp_norm([math.inf, 1.0], p) == math.inf
        rows = lp_norm(np.array([[1.0, -math.inf], [3.0, 4.0]]), p, axis=1)
        assert rows[0] == math.inf and rows[1] == lp_norm([3.0, 4.0], p)
        assert math.isnan(lp_norm([math.nan, 1.0], p))

    def test_empty_and_invalid(self):
        assert lp_norm([], 1.5) == 0.0
        assert lp_norm(np.zeros((0, 3)), 3.0, axis=1).shape == (0,)
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                lp_norm([1.0], bad)


class TestDualExponent:
    def test_self_dual(self):
        assert dual_exponent(2.0) == 2.0

    def test_extremes(self):
        assert math.isinf(dual_exponent(1.0))
        assert dual_exponent(math.inf) == 1.0

    def test_four(self):
        assert dual_exponent(4.0) == pytest.approx(4.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("p", P_GRID)
    def test_involution(self, p):
        assert dual_exponent(dual_exponent(p)) == pytest.approx(p, rel=1e-12)

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            dual_exponent(0.5)


class TestOperatorNorm:
    @pytest.mark.parametrize("p", P_GRID)
    def test_identity(self, p):
        A = OperatorMatrix(np.eye(3), space(3, p), space(3, p))
        lo, hi = operator_norm(A)
        assert lo == pytest.approx(1.0, rel=1e-12)
        assert hi == pytest.approx(1.0, rel=1e-12)
        assert lo <= hi

    @pytest.mark.parametrize("p", P_GRID)
    def test_diagonal(self, p):
        A = OperatorMatrix(np.diag([2.0, 1.0]), space(2, p), space(2, p))
        lo, hi = operator_norm(A)
        assert lo == pytest.approx(2.0, rel=1e-12)
        assert hi == pytest.approx(2.0, rel=1e-12)

    def test_l1_column_rule(self):
        A = OperatorMatrix(
            np.array([[1.0, 1.0], [0.0, 0.0]]), space(2, 1.0), space(2, 1.0)
        )
        assert operator_norm(A) == (1.0, 1.0)

    def test_zero_matrix(self):
        A = OperatorMatrix(np.zeros((3, 2)), space(2, 1.5), space(3, 2.5))
        lo, hi = operator_norm(A)
        assert lo == 0.0 and hi == 0.0

    @pytest.mark.parametrize(
        "n_in, p_in, p_out",
        [(2, 3.0, 3.0), (2, 3.0, 1.0), (2, 1.5, math.inf), (17, math.inf, 3.0)],
    )
    def test_zero_matrix_other_routes(self, n_in, p_in, p_out):
        # zero rows through every branch of the dual map
        A = OperatorMatrix(np.zeros((3, n_in)), space(n_in, p_in), space(3, p_out))
        assert operator_norm(A) == (0.0, 0.0)

    @pytest.mark.parametrize("p_in, p_out", [(1.5, 3.0), (3.0, 3.0), (17.0, 1.2)])
    def test_zero_column(self, p_in, p_out):
        mat = np.random.default_rng(3).standard_normal((4, 5))
        mat[:, 2] = 0.0
        lo, hi = operator_norm(OperatorMatrix(mat, space(5, p_in), space(4, p_out)))
        assert math.isfinite(hi) and 0.0 < lo <= hi

    @pytest.mark.parametrize("n", [2, 3, 8, 32])
    @pytest.mark.parametrize(
        "p_in, p_out, stack",
        [
            pytest.param(p_in, p_out, stack, id=f"{p_in}-{p_out}" + ("-stack" if stack else ""))
            for p_in, p_out in [(1.5, 3.0), (3.0, 3.0), (4.0, 4.0), (3.0, 1.5), (1.2, 1.7)]
            for stack in [(), (2, 2)]
        ],
    )
    def test_ascent_matches_per_start_reference(self, n, p_in, p_out, stack):
        for seed in range(2):
            shape = (n + seed, n)
            mat = np.random.default_rng([n, seed]).standard_normal(stack + shape)
            if stack:
                # each slice of a stack gives its own 2-d value, zero rows,
                # zero columns and zero matrices included
                flat = mat.reshape((-1,) + shape)
                flat[1, 0] = 0.0
                flat[2, :, -1] = 0.0
                flat[3] = 0.0
                lower = _ascent_lower(mat, p_in, p_out)
                assert lower.shape == stack
                assert list(lower.ravel()) == [_ascent_lower(a, p_in, p_out) for a in flat]
                mat = flat[0]
            A = OperatorMatrix(mat, space(n, p_in), space(n + seed, p_out))
            lo, hi = operator_norm(A)
            ref = min(_reference_ascent_lower(mat, p_in, p_out), hi)
            assert lo >= ref * (1.0 - 1e-15)
            assert lo <= hi

    @pytest.mark.parametrize("p", [1.2, 1.5, 1.9, 2.5, 4.0, 9.0])
    @pytest.mark.parametrize("n", [3, 8, 32])
    def test_upper_within_riesz_thorin(self, p, n):
        mat = np.random.default_rng(n).standard_normal((n, n))

        def exact(q):
            lo, hi = operator_norm(OperatorMatrix(mat, space(n, q), space(n, q)))
            assert lo == hi
            return hi

        if p < 2.0:
            theta = 2.0 * (1.0 - 1.0 / p)
            bound = exact(1.0) ** (1.0 - theta) * exact(2.0) ** theta
        else:
            theta = 1.0 - 2.0 / p
            bound = exact(2.0) ** (1.0 - theta) * exact(math.inf) ** theta
        _, hi = operator_norm(OperatorMatrix(mat, space(n, p), space(n, p)))
        assert hi <= bound

    @pytest.mark.parametrize("scale", [2.0 ** -50, 1.0, 2.0 ** 50])
    def test_forged_crossing_raises_at_every_scale(self, scale, monkeypatch):
        # an upper end forged below the attained lower end by a factor 2:
        # the crossing check is relative, so no scale lets it pass
        mat = scale * np.random.default_rng(5).standard_normal((3, 3))
        true_upper = spaces._upper
        monkeypatch.setattr(spaces, "_upper", lambda A, p_in, p_out: 0.5 * true_upper(A, p_in, p_out))
        with pytest.raises(RuntimeError, match="crossed"):
            operator_norm(OperatorMatrix(mat, space(3, 1.5), space(3, 3.0)))

    def test_linf_row_rule(self):
        mat = np.array([[1.0, -2.0, 3.0], [0.5, 0.5, 0.5]])
        A = OperatorMatrix(mat, space(3, math.inf), space(2, math.inf))
        assert operator_norm(A) == (6.0, 6.0)

    @pytest.mark.parametrize("n_in", [1, 12, 16])
    def test_sign_route_matches_full_enumeration(self, n_in):
        # every vertex of the cube, both signs of the first coordinate included
        mat = np.random.default_rng(n_in).standard_normal((5, n_in))
        A = OperatorMatrix(mat, space(n_in, math.inf), space(5, 3.0))
        vertices = np.array(list(itertools.product((-1.0, 1.0), repeat=n_in)))
        ref = float(np.max(np.linalg.norm(vertices @ mat.T, ord=3, axis=1)))
        lo, hi = operator_norm(A)
        assert lo == hi
        assert hi == pytest.approx(ref, rel=1e-12)

    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=2 ** 31 - 1),
        st.sampled_from(P_GRID),
        st.sampled_from(P_GRID),
    )
    @settings(max_examples=60, deadline=None)
    def test_bracket_is_sound(self, n_in, n_out, seed, p_in, p_out):
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((n_out, n_in))
        A = OperatorMatrix(mat, space(n_in, p_in), space(n_out, p_out))
        lo, hi = operator_norm(A)
        assert lo <= hi + 1e-12
        # upper bound dominates every attained ratio
        for _ in range(10):
            x = rng.standard_normal(n_in)
            num = vector_norm(Vector(mat @ x, A.codomain))
            den = vector_norm(Vector(x, A.domain))
            if den > 0.0:
                assert num <= (hi + 1e-9 * max(1.0, hi)) * den


class TestProjection:
    def test_single_basis_vector(self):
        sp = space(3, 2.0)
        P, bracket = projection_onto_span([Vector([1.0, 0.0, 0.0], sp)], sp)
        np.testing.assert_array_equal(P.entries, np.diag([1.0, 0.0, 0.0]))
        assert bracket == (1.0, 1.0)

    @pytest.mark.parametrize("p", P_GRID)
    def test_coordinate_span(self, p):
        sp = space(3, p)
        vs = [Vector([1.0, 0.0, 0.0], sp), Vector([0.0, 1.0, 0.0], sp)]
        P, bracket = projection_onto_span(vs, sp)
        np.testing.assert_allclose(P.entries, np.diag([1.0, 1.0, 0.0]), atol=1e-14)
        assert bracket.lower <= 1.0 + 1e-9
        assert bracket.upper >= 1.0 - 1e-9
        assert bracket.upper <= 1.0 + 1e-9

    def test_diagonal_rank_one_in_l1(self):
        sp = space(2, 1.0)
        P, bracket = projection_onto_span([Vector([1.0, 1.0], sp)], sp)
        np.testing.assert_allclose(P.entries, 0.5 * np.ones((2, 2)), rtol=1e-14)
        assert bracket.lower == pytest.approx(1.0, rel=1e-12)
        assert bracket.upper == pytest.approx(1.0, rel=1e-12)
        assert bracket.lower <= bracket.upper

    def test_duplicate_vectors_rank_filtered(self):
        sp = space(3, 2.0)
        v = Vector([1.0, 2.0, -1.0], sp)
        P, _ = projection_onto_span([v, v], sp)
        assert round(float(np.trace(P.entries))) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            projection_onto_span([], space(2, 2.0))

    def test_zero_span_rejected(self):
        sp = space(2, 2.0)
        with pytest.raises(ValueError):
            projection_onto_span([Vector([0.0, 0.0], sp)], sp)

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2 ** 31 - 1),
        st.sampled_from(P_GRID),
    )
    @settings(max_examples=40, deadline=None)
    def test_idempotent_and_range_fixing(self, m, seed, p):
        rng = np.random.default_rng(seed)
        sp = space(6, p)
        vs = [Vector(rng.standard_normal(6), sp) for _ in range(m)]
        P, bracket = projection_onto_span(vs, sp)
        np.testing.assert_allclose(
            P.entries @ P.entries, P.entries, atol=1e-10
        )
        np.testing.assert_allclose(P.entries, P.entries.T, atol=1e-12)
        for v in vs:
            np.testing.assert_allclose(
                P.entries @ v.coords, v.coords, atol=1e-9
            )
        assert bracket.lower <= bracket.upper + 1e-12


class TestOperatorMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            OperatorMatrix(np.ones((2, 3)), space(2, 2.0), space(2, 2.0))
