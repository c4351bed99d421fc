"""Finite dimensional l_p spaces, vectors, and operator norm brackets.

Operator norms between l_p spaces are only cheap in a handful of exact
cases.  Everywhere else this module returns a two-sided bracket: the
lower end is attained by an ascent iterate, the upper end comes from
interpolation between exact endpoints or from dimension-factor routes.
Matrices and vector systems (one vector per row) are plain arrays; `Vector`
and `OperatorMatrix` are only the inputs of build_approximant and operator_norm.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .tolerances import REL_TOL

__all__ = [
    "AmbientSpace",
    "Vector",
    "OperatorMatrix",
    "NormBracket",
    "lp_norm",
    "product_of",
    "unit_scale",
    "vector_norm",
    "dual_exponent",
    "operator_norm",
    "operator_brackets",
    "projection_onto_span",
]

_ASCENT_SEED = 0x5EED0F42
_ASCENT_ITERS = 60
_ASCENT_RANDOM_STARTS = 6
_ASCENT_BASIS_STARTS = 8
_SIGN_ENUM_LIMIT = 16
_RANK_CUTOFF = 1e-10


def _check_exponent(p: float) -> float:
    p = float(p)
    if not (p >= 1.0):
        raise ValueError("exponent must satisfy p >= 1")
    return p


@dataclass(frozen=True)
class AmbientSpace:
    """R^dim carrying the l_p norm, 1 <= p <= inf."""

    dim: int
    exponent: float

    def __post_init__(self):
        if isinstance(self.dim, bool) or not isinstance(self.dim, (int, np.integer)):
            raise ValueError("dim must be an integer")
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        object.__setattr__(self, "exponent", _check_exponent(self.exponent))

    def dual(self) -> "AmbientSpace":
        return AmbientSpace(self.dim, dual_exponent(self.exponent))


@dataclass(frozen=True)
class Vector:
    """Coordinates tagged with their home space."""

    coords: np.ndarray
    home: AmbientSpace

    def __post_init__(self):
        arr = np.asarray(self.coords, dtype=float)
        if arr.ndim != 1 or arr.size != self.home.dim:
            raise ValueError("coordinate length must match the home space")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coordinates must be finite")
        object.__setattr__(self, "coords", arr)


# bounds of the scaling divisor: the floor makes an all-zero slice give 0
# rather than 0/0, the ceiling keeps an infinite entry inf rather than inf/inf
_TINY = np.finfo(float).tiny
_HUGE = np.finfo(float).max


@np.errstate(over="ignore")
def lp_norm(arr, p: float, axis: int | None = None, lengths=None):
    """l_p norm of an array, or one norm per slice along ``axis``.

    p lies in (0, inf]; below 1 the value is the l_p quasi-norm.  Except
    for p = 1 and p = inf the largest entry is scaled out before powering,
    so entries near the overflow or underflow threshold give a finite,
    accurate result.  An infinite entry gives inf, a NaN entry NaN, and a
    norm past the double range inf, without a warning: the package's one
    quiet-overflow rule for norms.  Empty input has norm 0.  Without an
    axis the array, flattened in memory order, is one slice with a float
    norm; with one, norms per slice.

    ``lengths`` (only with axis -1 or 1 on a 2-d array: one integer per
    row, from 0 to the row width) gives each row's stored length; the row
    must be zero beyond it.  Each row's norm then has the bits of the norm
    of its leading ``lengths[i]`` entries alone.
    """
    if not (p > 0.0):
        raise ValueError("exponent must satisfy p > 0")
    a = np.abs(np.asarray(arr, dtype=float))
    if lengths is not None:
        lengths = _row_lengths(a, axis, lengths)
    whole = axis is None
    if whole:
        a, axis = a.ravel(order="K"), 0
    if math.isinf(p):
        out = a.max(axis=axis, initial=0.0)
    elif p == 1.0:
        out = a.sum(axis=axis) if lengths is None else _row_sums(a, lengths)
    else:
        m = a.max(axis=axis, initial=_TINY, keepdims=True)
        r = (a / np.minimum(m, _HUGE)) ** p
        total = r.sum(axis=axis) if lengths is None else _row_sums(r, lengths)
        out = m.squeeze(axis) * np.power(total, 1.0 / p)
    return float(out) if whole else out


def _row_lengths(a: np.ndarray, axis, lengths) -> np.ndarray:
    """`lengths` checked as one integer stored length per row of the 2-d `a`, normed along its rows."""
    lengths = np.asarray(lengths)
    if a.ndim != 2 or axis not in (-1, 1):
        raise ValueError("lengths need a 2-d array with axis -1 or 1")
    if lengths.shape != a.shape[:1] or lengths.dtype.kind not in "iu":
        raise ValueError("lengths must hold one integer per row")
    if lengths.size and (lengths.min() < 0 or lengths.max() > a.shape[1]):
        raise ValueError("lengths must lie between 0 and the row width")
    return lengths


def _row_sums(a: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each row's sum over its first lengths[i] entries, with the bits of that slice's own sum.

    Summed with the padding, a row would fall into other pairwise-summation
    blocks and change its last bits.  Masked off, the padding is skipped:
    the reduction runs over each row's leading run of entries alone, so a
    full-length row has the bits of its plain sum.
    """
    return np.add.reduce(a, axis=-1, where=np.arange(a.shape[-1]) < lengths[:, None])


def product_of(*factors):
    """The plain product of broadcast factors, left to right, except that a zero factor gives 0.

    A zero factor weighs 0 against inf, a partial product past the double
    range, or a NaN made by overflow (inf - inf); elsewhere a NaN factor
    gives NaN.  A product past the double range is inf, without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = functools.reduce(np.multiply, factors)
    if np.isnan(out).any():
        zero = functools.reduce(np.logical_or, [np.equal(f, 0.0) for f in factors])
        out = np.where(np.isnan(out) & zero, 0.0, out)
    return out


def unit_scale(a, axis=-1):
    """(u, k): each slice of a along ``axis`` (all of a with None) scaled by 2**-k, its largest |entry| in [1/2, 1).

    k keeps a's dimensions, a scaled axis of length 1, and is 0 for a
    zero, empty or non-finite slice.  u is a new array: np.ldexp(u, k) == a
    bit for bit unless scaling down rounds an entry into the subnormals.
    """
    a = np.asarray(a, dtype=float)
    k = np.frexp(np.maximum(a.max(axis, initial=0.0, keepdims=True), -a.min(axis, initial=0.0, keepdims=True)))[1]
    return np.ldexp(a, -k), k


def vector_norm(v: Vector) -> float:
    """l_p norm of a vector in its home space."""
    return lp_norm(v.coords, v.home.exponent)


def dual_exponent(p: float) -> float:
    """Conjugate exponent: 1/p + 1/p' = 1, with 1 and inf swapping."""
    p = _check_exponent(p)
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


class NormBracket(NamedTuple):
    """Certified enclosure lower <= norm <= upper."""

    lower: float
    upper: float


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense matrix between two ambient spaces, the input of `operator_norm`; elsewhere matrices are arrays."""

    entries: np.ndarray
    domain: AmbientSpace
    codomain: AmbientSpace

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 2:
            raise ValueError("entries must be a matrix")
        if arr.shape != (self.codomain.dim, self.domain.dim):
            raise ValueError("matrix shape must be (codomain dim, domain dim)")
        if not np.all(np.isfinite(arr)):
            raise ValueError("entries must be finite")
        object.__setattr__(self, "entries", arr)


def _dual_map(Z: np.ndarray, p: float) -> np.ndarray:
    """Unit l_p vectors x maximizing <z, x> along the last axis, so that <z, x> = ||z||_{p'}.

    A zero vector is read as e_0.
    """
    Z = np.where(Z.any(axis=-1, keepdims=True), Z, np.eye(1, Z.shape[-1]))
    if math.isinf(p):
        out = np.sign(Z)
        out[out == 0.0] = 1.0
        return out
    if p == 1.0:
        i = np.argmax(np.abs(Z), axis=-1)[..., None]
        out = np.zeros_like(Z)
        np.put_along_axis(out, i, np.sign(np.take_along_axis(Z, i, axis=-1)), axis=-1)
        return out
    a = np.abs(Z)
    out = np.sign(Z) * (a / a.max(axis=-1, keepdims=True)) ** (dual_exponent(p) - 1.0)
    return out / lp_norm(out, p, axis=-1)[..., None]


def _norm_and_dual_map(V: np.ndarray, p: float | None, q: float) -> tuple[np.ndarray | None, np.ndarray]:
    """lp_norm(V, p, axis=-1) and _dual_map(V, q), bit for bit, from one abs, row max and divide.

    The ascent's per-pass step; with p None the norm is skipped.  Both
    scale each row by its largest entry.  The dual image t of a row has
    the largest entry 1.0 exactly, so lp_norm's scaling of t is the
    identity and its norm is np.power((t ** q).sum(-1), 1 / q).  Exponents
    outside (1, inf), empty input, and rows that are zero, whose largest
    entry is subnormal or that hold a non-finite entry go to lp_norm and
    _dual_map themselves.
    """
    if V.size and 1.0 < q < math.inf and (p is None or 1.0 < p < math.inf):
        a = np.abs(V)
        m = a.max(axis=-1, keepdims=True)
        if _TINY <= m.min() and m.max() <= _HUGE:
            r = a / m
            norm = None if p is None else m[..., 0] * np.power((r ** p).sum(axis=-1), 1.0 / p)
            t = r ** (dual_exponent(q) - 1.0)
            return norm, np.sign(V) * t / np.power((t ** q).sum(axis=-1), 1.0 / q)[..., None]
    return None if p is None else lp_norm(V, p, axis=-1), _dual_map(V, q)


def _ascent_lower(A: np.ndarray, p_in: float, p_out: float) -> np.ndarray:
    """Attained lower bounds by the p-norm power method for a stack A (..., n_out, n_in).

    Each matrix gets its own block of starts, the rows of X: the basis vectors
    of its largest columns, the all-ones vector and seeded Gaussian draws (the
    same for every matrix).  The whole stack iterates at once at `unit_scale`,
    and each best ratio is scaled back: the steps are homogeneous, so nothing
    overflows, and 2**k A gives 2**k times the result bit for bit unless an
    entry is subnormal.  A 2-d A is the stack of one, with a 0-d result; every
    row of every iterate is nonzero, so the best ratio seen is attained.

    The start and up to _ASCENT_ITERS updates are evaluated.  The loop
    ends sooner once the next stacked iterate is bit-equal to the current
    or the previous one: each iterate is a fixed function of the one
    before, so every later ratio repeats one already seen and the best is
    final.

    Each pass takes the image's norm and dual map, and the next iterate,
    from `_norm_and_dual_map`, which shares one abs, row max and divide
    between them and gives the bits of `lp_norm` and `_dual_map`.  A pass
    whose array has a zero row, a row maximum below the smallest normal
    or a non-finite entry, or whose exponent is 1 or inf, takes `lp_norm`
    and `_dual_map` themselves.
    """
    n_in = A.shape[-1]
    q_dual = dual_exponent(p_out)
    A, k = unit_scale(A, axis=(-2, -1))
    order = np.argsort(-np.linalg.norm(A, axis=-2), axis=-1)
    rng = np.random.default_rng(_ASCENT_SEED)
    draws = rng.standard_normal((_ASCENT_RANDOM_STARTS, n_in))
    stack = A.shape[:-2]
    X = np.concatenate([
        np.eye(n_in)[order[..., :_ASCENT_BASIS_STARTS]],
        np.broadcast_to(np.ones(n_in), stack + (1, n_in)),
        np.broadcast_to(draws, stack + draws.shape),
    ], axis=-2)
    At = np.swapaxes(A, -1, -2)
    best = np.zeros(stack)
    # the bytes of the last two iterates
    recent = (X.tobytes(),)
    for _ in range(_ASCENT_ITERS + 1):
        Y = X @ At
        y_norms, D = _norm_and_dual_map(Y, p_out, q_dual)
        ratios = y_norms / lp_norm(X, p_in, axis=-1)
        best = np.maximum(best, ratios.max(axis=-1))
        _, X = _norm_and_dual_map(D @ A, None, p_in)
        key = X.tobytes()
        if key in recent:
            break
        recent = (recent[-1], key)
    return np.ldexp(best, k[..., 0, 0])


def _exact_norm(A: np.ndarray, p_in: float, p_out: float) -> np.ndarray | None:
    """Closed-form operator norm of each matrix of a stack A (k, n_out, n_in), else None.

    Whether a closed form is known depends on the exponents and n_in only.
    """
    n_in = A.shape[-1]
    if p_in == 1.0:
        return lp_norm(A, p_out, axis=-2).max(axis=-1)
    if p_in == 2.0 and p_out == 2.0:
        return np.linalg.norm(A, 2, axis=(-2, -1))
    if math.isinf(p_in) and math.isinf(p_out):
        return lp_norm(A, 1.0, axis=-1).max(axis=-1)
    if math.isinf(p_in) and n_in <= _SIGN_ENUM_LIMIT:
        # sign vertices of the unit cube, one per row, first coordinate pinned
        # by symmetry: bit j of the row index flips coordinate j + 1
        masks = np.arange(2 ** (n_in - 1))[:, None] << 1
        signs = 1.0 - 2.0 * ((masks >> np.arange(n_in)) & 1)
        # chunks of 2**(16 - n_in) matrices: the vertex images of a chunk are
        # no more than those of one 16-column matrix
        chunk = 2 ** (_SIGN_ENUM_LIMIT - n_in)
        out = np.empty(len(A))
        for i in range(0, len(A), chunk):
            images = signs @ np.swapaxes(A[i:i + chunk], -1, -2)
            out[i:i + chunk] = lp_norm(images, p_out, axis=-1).max(axis=-1)
        return out
    return None


def _upper(A: np.ndarray, p_in: float, p_out: float) -> np.ndarray:
    """Least upper bound of each matrix of a stack A (k, n_out, n_in) from the exact routes.

    Each route's norms are computed once.  An exact route (a, b) is
    inflated by inclusion factors: moving the domain exponent from p_in
    down to a costs n_in**max(1/a - 1/p_in, 0), moving the codomain from b
    to p_out costs n_out**max(1/p_out - 1/b, 0).  No route (1, b) is below
    (1, p_out), by the inclusion of l_b in l_p_out; (1, 1) stays as an
    endpoint: for p -> p, p in (1, 2) or (2, inf) (the other p -> p norms
    are exact), the Riesz-Thorin bound between the exact endpoints around
    p also counts.
    """
    n_out, n_in = A.shape[-2:]
    routes = [(1.0, 1.0), (2.0, 2.0), (math.inf, math.inf), (1.0, p_out)]
    if n_in <= _SIGN_ENUM_LIMIT:
        routes.append((math.inf, p_out))
    norms = {route: _exact_norm(A, *route) for route in routes}
    best = np.min([
        n_in ** max(1.0 / a - 1.0 / p_in, 0.0) * base
        * n_out ** max(1.0 / p_out - 1.0 / b, 0.0)
        for (a, b), base in norms.items()
    ], axis=0)
    if p_in == p_out:
        if p_in < 2.0:
            theta = 2.0 * (1.0 - 1.0 / p_in)
            near, far = norms[1.0, 1.0], norms[2.0, 2.0]
        else:
            theta = 1.0 - 2.0 / p_in
            near, far = norms[2.0, 2.0], norms[math.inf, math.inf]
        # Python's float power: numpy's array power can round differently
        rt = [x ** (1.0 - theta) * y ** theta for x, y in zip(near.tolist(), far.tolist())]
        best = np.minimum(best, rt)
    return best


@np.errstate(over="ignore")
def operator_brackets(
    mats: np.ndarray, p_in: float, p_out: float
) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper ends of the l_p_in -> l_p_out norm of each matrix of a stack.

    `mats` has shape (..., n_out, n_in); both ends have shape (...).
    Exact cases (domain exponent 1; the 2 -> 2 case; domain exponent inf
    with codomain inf, or with at most 16 columns) give equal ends.
    Otherwise the lower end is attained by ascent: the p-norm power method at
    `unit_scale`, run on the whole stack at once from 15 starts per matrix
    for at most 60 steps, ending early once its iterate repeats exactly.  For
    exponents in (1, inf) each step computes a norm and its dual map from one
    shared scaling of the array, with the bits of computing them apart; zero,
    subnormal or non-finite rows and the exponents 1 and inf take the
    separate routines.  The upper end is the least of the exact routes
    inflated by dimension factors and, for p -> p, the Riesz-Thorin bound.  An
    end past the double range reads inf, without a warning.  Input below 2-d
    or with a NaN or infinite entry is refused.
    """
    mats = np.asarray(mats, dtype=float)
    if mats.ndim < 2:
        raise ValueError("expected a matrix or a stack of them")
    if not np.all(np.isfinite(mats)):
        raise ValueError("matrix entries must be finite")
    stack = mats.shape[:-2]
    flat = mats.reshape((-1,) + mats.shape[-2:])
    exact = _exact_norm(flat, p_in, p_out)
    if exact is not None:
        exact = exact.reshape(stack)
        return exact, exact
    lower = _ascent_lower(mats, p_in, p_out)
    upper = _upper(flat, p_in, p_out).reshape(stack)
    # an attained iterate can overshoot a tight upper bound by rounding only, a
    # relative amount at every scale; two infinite ends compare without inf - inf
    if np.any(lower > upper + REL_TOL * upper):
        raise RuntimeError("norm bracket crossed beyond rounding slack")
    return np.minimum(lower, upper), upper


def operator_norm(A: OperatorMatrix) -> NormBracket:
    """Bracket for the operator norm of A between its ambient spaces.

    The matrix is the stack of one for `operator_brackets`; an exact
    route gives a degenerate bracket.
    """
    lower, upper = operator_brackets(A.entries, A.domain.exponent, A.codomain.exponent)
    return NormBracket(float(lower), float(upper))


def projection_onto_span(rows, p: float) -> tuple[np.ndarray, NormBracket]:
    """Orthogonal projection onto the span of the rows of a (k, dim) array, as a (dim, dim) array.

    The rows must form a 2-d array with at least one row and finite
    entries, and p >= 1.  The span is orthonormalized by singular value
    decomposition with singular values below 1e-10 of the largest
    treated as rank noise.  The returned bracket encloses the
    projection's l_p -> l_p operator norm, from `operator_brackets`; on
    l_2 it is exactly (1, 1).
    """
    rows = np.asarray(rows, dtype=float)
    p = _check_exponent(p)
    if rows.ndim != 2 or len(rows) == 0:
        raise ValueError("projection requires a 2-d array of at least one row")
    if not np.all(np.isfinite(rows)):
        raise ValueError("spanning vectors must be finite")
    U, sing, _ = np.linalg.svd(rows.T, full_matrices=False)
    if sing.size == 0 or sing[0] == 0.0:
        raise ValueError("span is degenerate after rank filtering")
    r = int(np.sum(sing > _RANK_CUTOFF * sing[0]))
    Q = U[:, :r]
    P = Q @ Q.T
    if p == 2.0:
        return P, NormBracket(1.0, 1.0)
    lower, upper = operator_brackets(P, p, p)
    return P, NormBracket(float(lower), float(upper))
