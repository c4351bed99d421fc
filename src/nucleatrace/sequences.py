"""Finite Lorentz sequence arithmetic.

Sequences are finite real vectors read as the leading terms of a sequence
that is zero beyond the stored length.  The module computes Lorentz
quasi-norms, the Holder-type bound for pointwise products against
summable sequences with its sharpness witness, and a factorization of a
non-increasing sequence through l_1 times a weak-type tail, with an
exact reconstruction certificate.  A zero factor of any product here
weighs 0, even against inf (`spaces.product_of`).

The Lorentz quasi-norm, the product bound and the witness also take a
stack of sequences, one per row: a 2-d array, or a `Padded` stack of
zero-padded rows with each row's stored length.  A row's result has the
bits of the call on that row alone, so a runner makes one call per
stack where it would make one per sequence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .spaces import lp_norm, product_of, unit_scale
from .tolerances import REL_TOL

__all__ = [
    "LorentzIndex",
    "Padded",
    "FactorizationCertificate",
    "lorentz_quasi_norm",
    "holder_product_bound",
    "sharpness_witness",
    "factor_l1_lorentz",
]


def as_values(a) -> np.ndarray:
    """Coerce an array-like to a 1-d float array."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 1:
        raise ValueError("expected a one dimensional sequence")
    return arr


class Padded(NamedTuple):
    """A stack of sequences of mixed stored lengths, as zero-padded rows.

    Row i holds sequence i in its first ``lengths[i]`` entries and zeros
    after them.  Functions of this module read a row exactly as the 1-d
    sequence of its stored length, to the last bit.
    """

    rows: np.ndarray
    lengths: np.ndarray


def _as_stack(a) -> tuple[np.ndarray, np.ndarray, bool]:
    """(rows, stored lengths, whether a was one sequence) of a sequence, a 2-d stack or a Padded stack."""
    # C order keeps every row reduction running along its own row
    if isinstance(a, Padded):
        rows = np.ascontiguousarray(a.rows, dtype=float)
        lengths = np.asarray(a.lengths)
        if rows.ndim != 2 or lengths.shape != rows.shape[:1]:
            raise ValueError("a padded stack needs 2-d rows and one stored length per row")
        if lengths.dtype.kind not in "iu" or np.any((lengths < 0) | (lengths > rows.shape[1])):
            raise ValueError("stored lengths must be integers from 0 to the row width")
        if np.any(rows[np.arange(rows.shape[1]) >= lengths[:, None]] != 0.0):
            raise ValueError("a padded row must be zero beyond its stored length")
        return rows, lengths, False
    arr = np.asarray(a, dtype=float)
    if arr.ndim not in (1, 2):
        raise ValueError("expected a sequence or a 2-d stack of sequences")
    rows = np.ascontiguousarray(arr[None, :] if arr.ndim == 1 else arr)
    return rows, np.full(rows.shape[0], rows.shape[1]), arr.ndim == 1


def _require_finite(*arrays: np.ndarray) -> None:
    # the norms run this only once a result came out non-finite, to tell
    # non-finite input (an error) from overflow of finite input (inf);
    # sharpness_witness runs it up front, where overflow cannot happen
    for arr in arrays:
        if not np.all(np.isfinite(arr)):
            raise ValueError("sequence entries must be finite")


@dataclass(frozen=True)
class LorentzIndex:
    """Index pair (p, q) of a Lorentz sequence space l_{p,q}.

    p in (0, inf], q in (0, inf].  The pairing p = inf with finite q is
    rejected: the weight k**(1/p - 1/q) would then sum a negative power
    against a bounded rearrangement and the expression is not a norm of
    the intended family.
    """

    p: float
    q: float = math.inf

    def __post_init__(self):
        if not (self.p > 0):
            raise ValueError("p must be positive")
        if not (self.q > 0):
            raise ValueError("q must be positive")
        if math.isinf(self.p) and not math.isinf(self.q):
            raise ValueError("p = inf requires q = inf")


def lorentz_quasi_norm(a, index: LorentzIndex) -> float | np.ndarray:
    """Lorentz quasi-norm of a finite sequence, or of each row of a stack.

    For finite q this is (sum_k (k**(1/p - 1/q) a*_k)**q)**(1/q) over the
    stored length, where a* is the decreasing rearrangement.  For q = inf
    it is sup_k k**(1/p) a*_k (plain sup norm when p = inf).  The zero
    sequence returns 0.0, and l_{p,p} agrees with the plain l_p norm.
    A zero entry weighs 0 even where its weight overflows.  NaN or
    infinite entries raise ValueError.

    Parameters
    ----------
    a : array-like or Padded
        One sequence, a 2-d stack of equal-length rows, or a Padded stack.
    index : LorentzIndex

    Returns
    -------
    float for one sequence; for a stack, the array of each row's value,
    with the bits of the call on that row alone.
    """
    av, lengths, single = _as_stack(a)
    # sorting moves a row's padding to its end, so its stored length still holds
    star = np.abs(av)
    star.sort(axis=-1)
    star = star[:, ::-1]
    with np.errstate(over="ignore"):  # a weight past the double range is inf
        weights = np.arange(1, av.shape[1] + 1, dtype=float) ** (1.0 / index.p - 1.0 / index.q)
    out = lp_norm(product_of(weights, star), index.q, axis=-1, lengths=lengths)
    if not np.all(np.isfinite(out)):
        _require_finite(av)
    return float(out[0]) if single else out


def holder_product_bound(a, b, s: float):
    """Evaluate the product bound ||a b||_s <= ||a||_1 ||b||_q.

    Here 1/q = 1/s - 1, so s in (0, 1] and q = s/(1-s), with q = inf at
    s = 1.  The left side is the l_s quasi-norm of the pointwise product
    over the overlap of the two stored lengths (the shorter sequence is
    zero beyond its length).

    Parameters
    ----------
    a, b : array-like or Padded
        Two sequences, or two stacks with the same number of rows (each a
        2-d array of full rows or a Padded stack), paired row by row.
    s : float
        Product exponent in (0, 1].

    Returns
    -------
    (lhs, rhs, holds) : tuple of float, float, bool
        holds allows a relative slack of 1e-9 on the right side.  NaN or
        infinite entries raise ValueError; finite ones give inf past the
        double range (`lp_norm`), and a zero a gives rhs 0.  For stacks,
        three arrays of the rows' values, with the bits of each pair's call.
    """
    if not (0.0 < s <= 1.0):
        raise ValueError("s must lie in (0, 1]")
    av, la, single_a = _as_stack(a)
    bv, lb, single_b = _as_stack(b)
    if av.shape[0] != bv.shape[0]:
        raise ValueError("stacks must have the same number of rows")
    w = min(av.shape[1], bv.shape[1])
    q = math.inf if s == 1.0 else s / (1.0 - s)
    # a product or norm past the double range reads inf, quietly; non-finite entries raise below
    lhs = lp_norm(product_of(av[:, :w], bv[:, :w]), s, axis=-1, lengths=np.minimum(la, lb))
    norms = lp_norm(av, 1.0, axis=-1, lengths=la), lp_norm(bv, q, axis=-1, lengths=lb)
    rhs = product_of(*norms)
    # a zero norm makes rhs 0 against the other's NaN, so the norms are checked
    if not all(np.all(np.isfinite(x)) for x in (lhs, *norms)):
        _require_finite(av, bv)
    holds = lhs <= rhs + REL_TOL * rhs
    # homogeneous in a and in b: a row failing at its own scale, as subnormal rows can, is decided at unit_scale
    bad = np.flatnonzero(~holds)
    if bad.size:
        ua, ub = unit_scale(av[bad])[0], unit_scale(bv[bad])[0]
        lo = lp_norm(product_of(ua[:, :w], ub[:, :w]), s, axis=-1, lengths=np.minimum(la, lb)[bad])
        hi = product_of(lp_norm(ua, 1.0, axis=-1, lengths=la[bad]), lp_norm(ub, q, axis=-1, lengths=lb[bad]))
        holds[bad] = lo <= hi + REL_TOL * hi
    if single_a and single_b:
        return float(lhs[0]), float(rhs[0]), bool(holds[0])
    return lhs, rhs, holds


def sharpness_witness(a, s: float) -> np.ndarray:
    """Companion sequence making the product bound an equality.

    For s < 1 returns b_k = |a_k|**(1/q) / ||a||_1**(1/q) with
    q = s/(1-s), which has unit l_q norm whenever a is nonzero and turns
    the bound into lhs = rhs = ||a||_1.  For s = 1 the all-ones sequence
    plays the same role against the sup norm.  For a stack (2-d or
    Padded) it returns the 2-d array of each row's witness, zero beyond
    the row's stored length.  The witness does not depend on the scale
    of a, so a row whose ||a||_1 reads inf (`lp_norm`) is taken at
    `unit_scale`.  NaN or infinite entries, a zero sequence, or an s so
    small that ||a||_1**(1/q) overflows raise ValueError.
    """
    av, lengths, single = _as_stack(a)
    if not (0.0 < s <= 1.0):
        raise ValueError("s must lie in (0, 1]")
    _require_finite(av)
    if av.shape[1] == 0 or not np.all(np.any(av != 0.0, axis=-1)):
        raise ValueError("witness requires a nonzero sequence")
    if s == 1.0:
        wit = (np.arange(av.shape[1]) < lengths[:, None]).astype(float)
    else:
        q = s / (1.0 - s)
        l1 = lp_norm(av, 1.0, axis=-1, lengths=lengths)
        big = np.isinf(l1)
        if big.any():
            av = np.where(big[:, None], unit_scale(av)[0], av)
            l1[big] = lp_norm(av[big], 1.0, axis=-1, lengths=lengths[big])
        # the divisor is a Python float power per row, as for a single sequence
        try:
            divisor = np.array([x ** (1.0 / q) for x in l1.tolist()])
        except OverflowError:
            raise ValueError(f"s = {s} is too small for this sequence: ||a||_1**(1/q) overflows") from None
        wit = np.abs(av) ** (1.0 / q) / divisor[:, None]
    return wit[0] if single else wit


@dataclass(frozen=True)
class FactorizationCertificate:
    """Checkable evidence attached to an l_1 times weak-tail factorization.

    weighted_tail holds k**(1/q) beta_k; non_increasing asserts that this
    sequence never rises (bitwise comparison, no slack), which is the
    finite stand-in for the tail tending to zero.
    """

    l1_alpha: float
    q: float
    weighted_tail: np.ndarray = field(repr=False)
    non_increasing: bool
    final_to_quarter_ratio: float


# relative backoffs below a target, tried in order, each followed by a few ulp steps down
_SCALES = (0.0,) + tuple(2.0 ** -e for e in range(43, 8, -1))
_ULP_STEPS = 6


def _exact_pair_down(d: float, target: float, s: float) -> tuple[float, float]:
    """Find (alpha, beta) with alpha * beta == d exactly and beta <= target.

    Searches downward from target through coarse relative backoffs and a
    few unit-in-last-place steps.  The downward bias keeps the caller's
    running cap honest: every accepted beta respects the monotone budget.
    Where every candidate misses, the split of d at exponent s leaves the
    double range, and ValueError names s.
    """
    if d == 0.0:
        return 0.0, target
    # a candidate past the double range just misses, as in the array search
    with np.errstate(over="ignore"):
        for t in _SCALES:
            base = target * (1.0 - t)
            if base <= 0.0:
                continue
            b = base
            for _ in range(_ULP_STEPS):
                a0 = d / b
                for a in (a0, math.nextafter(a0, math.inf), math.nextafter(a0, 0.0)):
                    if a * b == d:
                        return a, b
                b = math.nextafter(b, 0.0)
    raise ValueError(f"no exact split at s = {s}: k**(1/q) or d_k / beta_k leaves the double range")


def _exact_pairs_down(d: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_exact_pair_down` over arrays of positive d, nan where no pair is found.

    Every entry tries the scalar search's candidates in the scalar order
    and keeps its first hit, so each pair has the scalar result's bits;
    after each candidate only the unresolved entries go on.
    """
    a_out = np.full(d.size, np.nan)
    b_out = np.full(d.size, np.nan)
    todo = np.arange(d.size)
    # at extreme scales a candidate overflows or divides by a b stepped down
    # to zero; it then just misses, as it does in the scalar search
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for t in _SCALES:
            base = target[todo] * (1.0 - t)
            live = todo[base > 0.0]
            b = base[base > 0.0]
            dl = d[live]
            for _ in range(_ULP_STEPS):
                a0 = dl / b
                for toward in (None, math.inf, 0.0):
                    a = a0 if toward is None else np.nextafter(a0, toward)
                    hit = a * b == dl
                    if hit.any():
                        a_out[live[hit]] = a[hit]
                        b_out[live[hit]] = b[hit]
                        miss = ~hit
                        live, b, dl, a0 = live[miss], b[miss], dl[miss], a0[miss]
                if not live.size:
                    break
                b = np.nextafter(b, 0.0)
            todo = todo[np.isnan(b_out[todo])]
            if not todo.size:
                break
    return a_out, b_out


def factor_l1_lorentz(
    d,
    s: float,
    epsilon=None,
    gamma: float | None = None,
) -> tuple[np.ndarray, np.ndarray, FactorizationCertificate]:
    """Split a non-increasing sequence as d = alpha * beta pointwise.

    alpha is summable and beta sits in the weak space with exponent q
    given by 1/s = 1 + 1/q, i.e. q = s/(1-s) for s in (0, 1).  The split
    is exact in floating point: alpha_k * beta_k == d_k bitwise for every
    k, which the certificate relies on.

    Parameters
    ----------
    d : array-like
        Non-increasing, nonnegative.
    s : float
        Product exponent in (0, 1).
    epsilon : array-like, optional
        Explicit finite, non-increasing, nonnegative envelope for
        k**(1/q) beta_k.  Overrides the default envelope and gamma.
    gamma : float, optional
        Power envelope epsilon_k = k**(-gamma), gamma > 0 and finite.

    Returns
    -------
    (alpha, beta, certificate)
        certificate.l1_alpha is `lp_norm(alpha, 1.0)`.  Where no exact
        split stays in the double range (k**(1/q) or d_k / beta_k
        overflows, as at a small s), ValueError names s.

    Notes
    -----
    The default envelope is epsilon_k = sqrt(k**(1/q) d_k / d_1) clipped
    to be non-increasing, which balances the two factors for power-decay
    input.  Exactness is achieved by a search for each entry: beta_k is
    stepped down from its target through a few relative backoffs and ulp
    steps until the rounding of d_k / beta_k multiplies back bitwise, and
    a running cap min over k'<=k of k'**(1/q) beta_k' clips later targets
    so the weighted tail is non-increasing by construction.  Where the
    found k**(1/q) beta_k still rounds above the cap, the target is
    stepped down an ulp at a time until k**(1/q) times it is at most the
    clipped target, and the search runs again from there.

    The search first runs over whole arrays: every positive entry is
    paired at once with its uncapped target epsilon_k / k**(1/q), trying
    candidates in the order a single entry does, and keeps its first hit.
    That is the sequential result up to the first index where the running
    cap of these pairs falls below epsilon_k or below k**(1/q) beta_k.
    From that index on, the entries are paired one at a time against the
    capped target.  The default and gamma envelopes on power-decay input
    falling at least as fast as k**(-1/q) rarely meet the cap, so they
    run almost wholly as arrays.  A flat envelope meets it at once and
    runs almost wholly in sequence: a flat explicit epsilon, or the
    default envelope of a d_k falling slower than k**(-1/q), which clips
    to the constant 1 (`factorize --s 0.3` draws such a d in about half
    its trials).
    """
    dv = as_values(d)
    if dv.size == 0:
        raise ValueError("empty input")
    if not np.all(np.isfinite(dv)):
        raise ValueError("input must be finite")
    if np.any(dv < 0.0):
        raise ValueError("input must be nonnegative")
    if np.any(np.diff(dv) > 0.0):
        raise ValueError("input must be non-increasing")
    if not (0.0 < s < 1.0):
        raise ValueError("s must lie in (0, 1)")
    q = s / (1.0 - s)
    L = dv.size
    k = np.arange(1, L + 1, dtype=float)
    with np.errstate(over="ignore"):  # a weight past the double range is inf
        w = k ** (1.0 / q)

    if epsilon is not None:
        eps = as_values(epsilon)
        if eps.size != L:
            raise ValueError("epsilon length mismatch")
        if not np.all(np.isfinite(eps)):
            raise ValueError("epsilon must be finite")
        if np.any(eps < 0.0) or np.any(np.diff(eps) > 0.0):
            raise ValueError("epsilon must be nonnegative and non-increasing")
    elif gamma is not None:
        if not (0.0 < gamma < math.inf):
            raise ValueError("gamma must be positive and finite")
        eps = k ** (-gamma)
    else:
        if dv[0] == 0.0:
            eps = np.zeros(L)
        else:
            eps = np.minimum.accumulate(np.sqrt(product_of(w, dv) / dv[0]))
    # a large gamma, or a default envelope whose d_k / d_1 underflows, can
    # vanish too; no beta_k > 0 then meets it
    if np.any((dv > 0.0) & (eps == 0.0)):
        raise ValueError("epsilon vanishes where the input does not")

    # Speculate that the running cap never binds: each entry then pairs with
    # its uncapped target eps_k / w_k, independently of the others.
    beta = np.where(eps == 0.0, 0.0, eps / w)
    alpha = np.zeros(L)
    pos = np.flatnonzero(dv > 0.0)
    alpha[pos], beta[pos] = _exact_pairs_down(dv[pos], beta[pos])
    # cap[k] is the running cap after entry k.  The speculation holds up to
    # the first entry left unpaired (nan), whose target is the cap, not
    # eps[k], or whose weighted beta exceeds the cap; from there on the
    # entries are paired in sequence.
    weighted = product_of(w, beta)
    cap = np.minimum.accumulate(np.where(beta > 0.0, weighted, math.inf))
    late = np.isnan(beta)
    late[1:] |= (cap[:-1] < eps[1:]) | (weighted[1:] > cap[:-1])
    start = int(np.argmax(late)) if late.any() else L
    cap = cap[start - 1] if start else math.inf
    for i in range(start, L):
        target = min(eps[i], cap)
        a, b = _exact_pair_down(dv[i], target / w[i], s)
        if w[i] * b > cap:
            # w * t rounds monotonically in t, so every b <= t keeps w * b <= target
            t = target / w[i]
            while w[i] * t > target:
                t = math.nextafter(t, 0.0)
            a, b = _exact_pair_down(dv[i], t, s)
        alpha[i] = a
        beta[i] = 0.0 if eps[i] == 0.0 else b
        if beta[i] > 0.0:
            cap = min(cap, w[i] * beta[i])

    weighted = product_of(w, beta)
    non_increasing = bool(np.all(np.diff(weighted) <= 0.0))
    quarter = max(L // 4 - 1, 0)
    if weighted[quarter] > 0.0:
        ratio = float(weighted[-1] / weighted[quarter])
    else:
        ratio = 0.0
    cert = FactorizationCertificate(
        l1_alpha=lp_norm(alpha, 1.0),
        q=q,
        weighted_tail=weighted,
        non_increasing=non_increasing,
        final_to_quarter_ratio=ratio,
    )
    return alpha, beta, cert
