import itertools
import math
import tracemalloc

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


def _fixed_pass_ascent_lower(A, p_in, p_out):
    """The stacked ascent with no exit test: the start and all 60 updates are evaluated.

    Each pass takes the norms and dual maps from `lp_norm` and `_dual_map`
    themselves.  Columns are ordered by their norms at the scale of the
    largest entry, an exact power of two, as in `_ascent_lower`.
    """
    n_in = A.shape[-1]
    q_dual = dual_exponent(p_out)
    _, e = np.frexp(np.abs(A).max(axis=(-2, -1), keepdims=True))
    order = np.argsort(-np.linalg.norm(np.ldexp(A, -e), axis=-2), axis=-1)
    rng = np.random.default_rng(0x5EED0F42)
    draws = rng.standard_normal((6, n_in))
    stack = A.shape[:-2]
    X = np.concatenate([
        np.eye(n_in)[order[..., :8]],
        np.broadcast_to(np.ones(n_in), stack + (1, n_in)),
        np.broadcast_to(draws, stack + draws.shape),
    ], axis=-2)
    At = np.swapaxes(A, -1, -2)
    best = np.zeros(stack)
    for _ in range(61):
        Y = X @ At
        ratios = lp_norm(Y, p_out, axis=-1) / lp_norm(X, p_in, axis=-1)
        best = np.maximum(best, ratios.max(axis=-1))
        X = spaces._dual_map(spaces._dual_map(Y, q_dual) @ A, p_in)
    return best


def _ascent_counting(monkeypatch, name, A, p_in, p_out):
    """_ascent_lower's result and the number of calls it made to spaces.<name>."""
    calls = []
    real = getattr(spaces, name)

    def counting(*args):
        calls.append(None)
        return real(*args)

    with monkeypatch.context() as m:
        m.setattr(spaces, name, counting)
        best = _ascent_lower(A, p_in, p_out)
    return best, len(calls)


def _ascent_passes(monkeypatch, A, p_in, p_out):
    """_ascent_lower's result and the number of passes it ran (two norm-and-dual-map steps each)."""
    best, steps = _ascent_counting(monkeypatch, "_norm_and_dual_map", A, p_in, p_out)
    return best, steps // 2


class TestVectorNorm:
    @pytest.mark.parametrize("p", P_GRID)
    def test_unit_vector(self, p):
        v = Vector([1.0, 0.0, 0.0], space(3, p))
        assert vector_norm(v) == 1.0

    def test_pythagorean(self):
        assert vector_norm(Vector([3.0, 4.0], space(2, 2.0))) == 5.0

    def test_l1_sum(self):
        assert vector_norm(Vector([1.0, 1.0, 1.0, 1.0], space(4, 1.0))) == 4.0

    def test_matches_lp_norm(self):
        v = Vector([1.0, -2.0, 0.5], space(3, 1.5))
        assert vector_norm(v) == lp_norm(v.coords, 1.5)

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

    @pytest.mark.parametrize("p", [0.5, 2.0 / 3.0, 1.0, 2.0, 9.0, math.inf])
    def test_lengths_give_the_bits_of_each_leading_slice(self, p):
        # padding moves numpy's pairwise-summation blocks at 8 and 128 entries
        rng = np.random.default_rng(8)
        lengths = np.array([0, 1, 7, 8, 9, 16, 127, 128, 129, 300, 310, 300])
        Y = rng.standard_normal((lengths.size, 310)) * 10.0 ** rng.integers(-150, 150, size=(lengths.size, 1))
        Y[np.arange(310) >= lengths[:, None]] = 0.0
        Y[-1] = 0.0
        rows = lp_norm(Y, p, axis=-1, lengths=lengths)
        assert rows.tobytes() == np.array([lp_norm(y[:n], p) for y, n in zip(Y, lengths)]).tobytes()
        full = np.full(lengths.size, 310)
        assert lp_norm(Y, p, axis=-1, lengths=full).tobytes() == lp_norm(Y, p, axis=-1).tobytes()
        assert lp_norm(Y, p, axis=1, lengths=lengths).tobytes() == rows.tobytes()

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, math.inf])
    @pytest.mark.parametrize(
        "shape, axis, lengths, match",
        [
            ((2, 3), 0, [1, 2], "2-d array with axis"),  # would be masked row sums read as column norms
            ((2, 3), None, [1, 2], "2-d array with axis"),
            ((2, 2, 2), -1, [1, 2], "2-d array with axis"),
            ((3,), -1, [1], "2-d array with axis"),
            ((2, 3), -1, [1, 2, 3], "one integer per row"),
            ((2, 3), -1, [[1, 2]], "one integer per row"),
            ((2, 3), -1, [1.0, 2.0], "one integer per row"),
            ((2, 3), -1, [True, False], "one integer per row"),
            ((2, 3), -1, [1, 4], "between 0 and the row width"),
            ((2, 3), 1, [-1, 2], "between 0 and the row width"),
        ],
    )
    def test_lengths_misuse_is_refused(self, p, shape, axis, lengths, match):
        with pytest.raises(ValueError, match=match):
            lp_norm(np.ones(shape), p, axis=axis, lengths=lengths)

    def test_lengths_of_an_empty_stack(self):
        out = lp_norm(np.zeros((0, 3)), 2.0, axis=-1, lengths=np.zeros(0, dtype=int))
        assert out.shape == (0,)

    @pytest.mark.parametrize("p", [0.3, 0.5, 1.0, 1.5, 2.0, 3.0, 8.0, math.inf])
    def test_no_axis_is_the_one_row_axis_call(self, p):
        rng = np.random.default_rng(6)
        for x in [rng.standard_normal(9) * 1e300, rng.standard_normal(9) * 1e-300,
                  rng.standard_normal(1), np.zeros(4), np.zeros(0)]:
            value = lp_norm(x, p)
            assert type(value) is float and value == lp_norm(x[None], p, axis=1)[0]
        # a 2-d array is one slice in memory order: its transpose gives the same bits
        A = rng.standard_normal((6, 9)) * 10.0 ** rng.integers(-100, 100, size=(6, 1))
        row = lp_norm(A.reshape(1, -1), p, axis=1)[0]
        assert lp_norm(A, p) == row and lp_norm(A.T, p) == row

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
        P, bracket = projection_onto_span(np.array([[1.0, 0.0, 0.0]]), 2.0)
        np.testing.assert_array_equal(P, np.diag([1.0, 0.0, 0.0]))
        assert bracket == (1.0, 1.0)

    @pytest.mark.parametrize("p", P_GRID)
    def test_coordinate_span(self, p):
        P, bracket = projection_onto_span(np.eye(2, 3), p)
        np.testing.assert_allclose(P, np.diag([1.0, 1.0, 0.0]), atol=1e-14)
        assert bracket.lower <= 1.0 + 1e-9
        assert bracket.upper >= 1.0 - 1e-9
        assert bracket.upper <= 1.0 + 1e-9

    def test_diagonal_rank_one_in_l1(self):
        P, bracket = projection_onto_span([[1.0, 1.0]], 1.0)
        np.testing.assert_allclose(P, 0.5 * np.ones((2, 2)), rtol=1e-14)
        assert bracket.lower == pytest.approx(1.0, rel=1e-12)
        assert bracket.upper == pytest.approx(1.0, rel=1e-12)
        assert bracket.lower <= bracket.upper

    def test_duplicate_vectors_rank_filtered(self):
        P, _ = projection_onto_span([[1.0, 2.0, -1.0]] * 2, 2.0)
        assert round(float(np.trace(P))) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one row"):
            projection_onto_span(np.zeros((0, 2)), 2.0)

    def test_zero_span_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            projection_onto_span([[0.0, 0.0]], 2.0)

    @pytest.mark.parametrize("rows, p, match", [
        (np.array([1.0, 0.0]), 2.0, "2-d"),
        (np.ones((1, 2, 2)), 2.0, "2-d"),
        ([[1.0, 0.0], [math.nan, 1.0]], 2.0, "finite"),
        ([[1.0, 0.0], [math.inf, 1.0]], 1.5, "finite"),
        ([[1.0, 0.0]], 0.5, "p >= 1"),
        ([[1.0, 0.0]], math.nan, "p >= 1"),
    ], ids=["one-axis", "three-axes", "nan-row", "inf-row", "p-below-one", "p-nan"])
    def test_rejects_bad_input(self, rows, p, match):
        with pytest.raises(ValueError, match=match):
            projection_onto_span(rows, p)

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2 ** 31 - 1),
        st.sampled_from(P_GRID),
    )
    @settings(max_examples=40, deadline=None)
    def test_idempotent_and_range_fixing(self, m, seed, p):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((m, 6))
        P, bracket = projection_onto_span(rows, p)
        np.testing.assert_allclose(
            P @ P, P, atol=1e-10
        )
        np.testing.assert_allclose(P, P.T, atol=1e-12)
        for x in rows:
            np.testing.assert_allclose(
                P @ x, x, atol=1e-9
            )
        assert bracket.lower <= bracket.upper + 1e-12


def _reference_exact_norm(A, p_in, p_out):
    """One matrix at a time: closed-form operator norm where one is known, else None."""
    n_out, n_in = A.shape
    if p_in == 1.0:
        return float(np.max(lp_norm(A, p_out, axis=0)))
    if p_in == 2.0 and p_out == 2.0:
        return float(np.linalg.norm(A, 2))
    if math.isinf(p_in) and math.isinf(p_out):
        return float(np.max(lp_norm(A, 1.0, axis=1)))
    if math.isinf(p_in) and n_in <= 16:
        masks = np.arange(2 ** (n_in - 1))[:, None] << 1
        signs = 1.0 - 2.0 * ((masks >> np.arange(n_in)) & 1)
        return float(np.max(lp_norm(signs @ A.T, p_out, axis=1)))
    return None


def _reference_upper(A, p_in, p_out):
    """One matrix at a time: least of the inflated exact routes and the Riesz-Thorin bound."""
    n_out, n_in = A.shape
    routes = [(1.0, 1.0), (2.0, 2.0), (math.inf, math.inf), (1.0, 2.0),
              (1.0, math.inf), (1.0, p_out)]
    if n_in <= 16:
        routes.append((math.inf, p_out))
    norms = {route: _reference_exact_norm(A, *route) for route in routes}
    best = min(
        n_in ** max(1.0 / a - 1.0 / p_in, 0.0) * base
        * n_out ** max(1.0 / p_out - 1.0 / b, 0.0)
        for (a, b), base in norms.items()
    )
    if p_in == p_out:
        if p_in < 2.0:
            theta = 2.0 * (1.0 - 1.0 / p_in)
            near, far = norms[1.0, 1.0], norms[2.0, 2.0]
        else:
            theta = 1.0 - 2.0 / p_in
            near, far = norms[2.0, 2.0], norms[math.inf, math.inf]
        best = min(best, near ** (1.0 - theta) * far ** theta)
    return best


class TestStackedRoutes:
    """Every route runs on a whole stack, with each matrix's bits of the per-matrix reference."""

    EXPONENTS = [1.0, 1.5, 2.0, 3.0, math.inf]

    @pytest.mark.parametrize("n_in", range(1, 18))
    def test_routes_match_per_matrix_reference(self, n_in):
        # the sign route is on up to 16 columns and off at 17; 1.5 -> 1.5 and
        # 3 -> 3 take the Riesz-Thorin bound on either side of 2
        rng = np.random.default_rng([21, n_in])
        A = rng.standard_normal((3 if n_in > 12 else 5, int(rng.integers(1, 7)), n_in))
        A[1] = np.abs(A[1])
        A[2][:, rng.integers(n_in)] = 0.0
        for p_in, p_out in itertools.product(self.EXPONENTS, repeat=2):
            exact = spaces._exact_norm(A, p_in, p_out)
            refs = [_reference_exact_norm(a, p_in, p_out) for a in A]
            lo, hi = spaces.operator_brackets(A, p_in, p_out)
            if exact is None:
                assert refs == [None] * len(A)
                upper = np.array([_reference_upper(a, p_in, p_out) for a in A])
                assert spaces._upper(A, p_in, p_out).tobytes() == upper.tobytes()
                assert hi.tobytes() == upper.tobytes()
                lower = np.minimum(_ascent_lower(A, p_in, p_out), upper)
                assert lo.tobytes() == lower.tobytes()
            else:
                assert exact.tobytes() == np.array(refs).tobytes()
                assert lo.tobytes() == hi.tobytes() == exact.tobytes()

    @pytest.mark.parametrize("p_in", [1.5, math.inf])
    def test_empty_stack_gives_empty_ends(self, p_in):
        lo, hi = spaces.operator_brackets(np.zeros((0, 3, 3)), p_in, 3.0)
        assert lo.shape == hi.shape == (0,)

    def test_sign_route_memory_stays_that_of_one_matrix(self):
        # the per-matrix route peaked at 20.5 MB on this stack; the vertex images of
        # all 200 matrices at once would take over 3 GB
        A = np.random.default_rng(0).standard_normal((200, 16, 16))
        tracemalloc.start()
        try:
            spaces.operator_brackets(A, 1.5, 3.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 20.5e6


class TestOperatorMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            OperatorMatrix(np.ones((2, 3)), space(2, 2.0), space(2, 2.0))


class TestBoundaries:
    @pytest.mark.parametrize("dim", [2.5, 2.0, True, "2", None])
    def test_ambient_dim_must_be_an_integer(self, dim):
        with pytest.raises(ValueError, match="integer"):
            AmbientSpace(dim, 2.0)

    def test_ambient_dim_may_be_a_numpy_integer(self):
        assert AmbientSpace(np.int64(3), 2.0) == AmbientSpace(3, 2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("p_in, p_out", [(1.5, 3.0), (math.inf, 2.0), (1.0, 4.0)])
    def test_operator_brackets_refuse_non_finite_entries(self, bad, p_in, p_out):
        A = np.ones((2, 3, 3))
        A[1, 0, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            spaces.operator_brackets(A, p_in, p_out)

    @pytest.mark.parametrize("mats", [np.ones(3), np.float64(1.0)])
    def test_operator_brackets_refuse_input_below_2d(self, mats):
        with pytest.raises(ValueError, match="matrix"):
            spaces.operator_brackets(mats, 1.5, 3.0)


class TestAscentExit:
    """The ascent stops at its first exact repeat with the bits of the full 61 passes."""

    @pytest.mark.parametrize(
        "A",
        [
            pytest.param(np.diag([3.0, 2.0, 1.0, 0.5]), id="diagonal"),
            pytest.param(np.outer([1.0, -2.0, 0.5], [0.3, 1.0, -1.0, 2.0]), id="rank-one"),
        ],
    )
    @pytest.mark.parametrize("p_in, p_out", [(1.5, 3.0), (1.2, 1.7), (2.0, 4.0)])
    def test_settled_iterate_ends_early(self, monkeypatch, A, p_in, p_out):
        best, passes = _ascent_passes(monkeypatch, A, p_in, p_out)
        assert passes < 20
        assert best.tobytes() == _fixed_pass_ascent_lower(A, p_in, p_out).tobytes()

    @pytest.mark.parametrize("p_in, p_out", [(1.5, 3.0), (3.0, 3.0), (1.2, 1.7)])
    def test_stack_whose_slices_settle_apart(self, monkeypatch, p_in, p_out):
        rng = np.random.default_rng(6)
        # three kinds of slice, which repeat at different passes or not at all
        A = np.stack([
            np.diag([3.0, 2.0, 1.0, 0.5, 0.25, 0.1]),
            rng.standard_normal((6, 6)),
            np.outer(rng.standard_normal(6), rng.standard_normal(6)) + 0.1 * np.eye(6),
        ])
        singles = [_ascent_passes(monkeypatch, a, p_in, p_out) for a in A]
        best, passes = _ascent_passes(monkeypatch, A, p_in, p_out)
        assert passes <= 61
        assert passes >= max(n for _, n in singles)
        assert len({n for _, n in singles}) > 1
        assert best.tobytes() == _fixed_pass_ascent_lower(A, p_in, p_out).tobytes()
        assert [float(b) for b in best] == [float(b) for b, _ in singles]

    def test_stack_that_never_repeats_runs_every_pass(self, monkeypatch):
        A = np.random.default_rng(7).standard_normal((2, 32, 32))
        best, passes = _ascent_passes(monkeypatch, A, 1.5, 3.0)
        assert passes == 61
        assert best.tobytes() == _fixed_pass_ascent_lower(A, 1.5, 3.0).tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [900, 1000, -900, -1000])
    def test_lower_end_scales_exactly_at_extreme_scales(self, k):
        # the column norms of seeds 26 and 40, unscaled, overflow to inf at
        # 2**900 and above, and underflow to 0 at 2**-900 and below
        for seed in (0, 1, 2, 26, 40):
            A = np.random.default_rng([12, seed]).standard_normal((12, 12))
            scaled = np.ldexp(A, k)
            assert np.array_equal(np.ldexp(scaled, -k), A)
            assert _ascent_lower(scaled, 1.5, 3.0) == np.ldexp(_ascent_lower(A, 1.5, 3.0), k)


def _assert_same_step(V, p, q):
    norm, dual = spaces._norm_and_dual_map(V, p, q)
    assert dual.tobytes() == spaces._dual_map(V, q).tobytes()
    if p is None:
        assert norm is None
    else:
        assert norm.tobytes() == lp_norm(V, p, axis=-1).tobytes()


class TestSharedStep:
    """The ascent's shared norm-and-dual-map step has the bits of lp_norm and _dual_map."""

    PAIRS = [(4.0 / 3.0, 4.000000000000001), (3.0, 3.0), (1.5, 3.0), (1.2, 1.7)]
    SHAPES = [(20, 3, 3), (6, 6), (8, 8), (32, 32)]

    @pytest.mark.parametrize("k", [0, 1000, -1000])
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("p_in, p_out", PAIRS)
    def test_ascent_matches_the_fixed_pass_reference(self, shape, p_in, p_out, k):
        # n >= 8 columns sum in numpy's pairwise blocks; at 2**+-1000 the
        # passes still take the shared step, with every row maximum normal
        for seed in range(2):
            A = np.ldexp(np.random.default_rng([31, seed, *shape]).standard_normal(shape), k)
            assert _ascent_lower(A, p_in, p_out).tobytes() == _fixed_pass_ascent_lower(A, p_in, p_out).tobytes()

    @pytest.mark.parametrize("p_in, p_out", PAIRS)
    def test_generic_passes_never_fall_back(self, monkeypatch, p_in, p_out):
        A = np.random.default_rng(32).standard_normal((20, 3, 3))
        assert _ascent_counting(monkeypatch, "_dual_map", A, p_in, p_out)[1] == 0

    @pytest.mark.parametrize(
        "shape, p_in, p_out",
        [
            ((6, 6), 1.5, 1.0),
            ((6, 6), 1.5, math.inf),
            ((20, 3, 3), 3.0, math.inf),
            ((20, 20), math.inf, 3.0),
            ((2, 17, 17), math.inf, 1.5),
        ],
    )
    def test_exponent_fallbacks_match(self, shape, p_in, p_out):
        A = np.random.default_rng([33, *shape]).standard_normal(shape)
        assert _ascent_lower(A, p_in, p_out).tobytes() == _fixed_pass_ascent_lower(A, p_in, p_out).tobytes()

    @pytest.mark.parametrize("p_in, p_out", PAIRS)
    def test_zero_rows_and_subnormal_rows_match(self, p_in, p_out):
        rng = np.random.default_rng(34)
        A = rng.standard_normal((5, 3, 3))
        A[0, :, 1] = 0.0  # its basis start has a zero image
        A[1, 2] = 0.0
        A[2] = 0.0
        # largest entry just below the smallest normal: the first pass's images
        # of basis vectors are rows of subnormal maximum, with most of their bits
        A[3] *= 0.75 * np.finfo(float).tiny / np.abs(A[3]).max()
        for mats in (A, A[:1], A[2:3], A[3:4]):
            assert _ascent_lower(mats, p_in, p_out).tobytes() == _fixed_pass_ascent_lower(mats, p_in, p_out).tobytes()

    @pytest.mark.parametrize("p_in, p_out", PAIRS)
    def test_empty_stack_matches(self, p_in, p_out):
        A = np.zeros((0, 3, 3))
        best = _ascent_lower(A, p_in, p_out)
        assert best.shape == (0,)
        assert best.tobytes() == _fixed_pass_ascent_lower(A, p_in, p_out).tobytes()

    @pytest.mark.parametrize("p", [None, 1.0, 4.0 / 3.0, 2.0, 3.0, math.inf])
    @pytest.mark.parametrize("q", [1.0, 1.2, 2.0, 4.000000000000001, math.inf])
    def test_step_matches_norm_and_dual_map(self, p, q):
        rng = np.random.default_rng(36)
        tiny = np.finfo(float).tiny
        V = rng.standard_normal((4, 15, 9))
        _assert_same_step(V, p, q)
        _assert_same_step(V[:0], p, q)
        _assert_same_step(np.ldexp(V, 1000), p, q)
        with np.errstate(all="ignore"):
            for row, fill in [(0, 0.0), (2, math.inf), (3, math.nan), (4, -math.inf)]:
                W = V.copy()
                W[1, row] = fill
                _assert_same_step(W, p, q)
            # a row whose largest entry is subnormal
            W = V.copy()
            W[1, 1] *= 0.75 * tiny / np.abs(W[1, 1]).max()
            _assert_same_step(W, p, q)
            W = V.copy()
            W[2, 5, :2] = 1e308, math.inf
            _assert_same_step(W, p, q)
