"""Finite nuclear representations and their quasi-norms.

A representation is a finite list of rank-one atoms lambda_k x'_k (x) x_k
acting between two ambient spaces.  The module evaluates the induced
matrix, the nuclear trace, summability and Lorentz quasi-norms of the
atom magnitude sequence, weak-type norms of vector systems, two bracket
style quantities built from an l_1 factor and a weak factor, and a
perturbation bound for the trace under composition with an operator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sequences import LorentzIndex, lorentz_quasi_norm
from .spaces import (
    AmbientSpace,
    NormBracket,
    dual_exponent,
    lp_norm,
    operator_brackets,
)

__all__ = [
    "NuclearIndex",
    "Representation",
    "induced_matrix",
    "nuclear_trace",
    "quasi_norm",
    "weak_norm_bracket",
    "trace_perturbation_bound",
    "rebalance",
    "improve_representation",
]

S_VARIANT = "S"
LORENTZ_VARIANT = "LORENTZ"
BRACKET_LOWER = "BRACKET_LOWER"
BRACKET_UPPER = "BRACKET_UPPER"


@dataclass(frozen=True)
class NuclearIndex:
    """Which quasi-norm of a representation to evaluate.

    S(s): l_s sum of the atom magnitudes lambda_k |x'_k| |x_k|, s in (0, 1].
    LORENTZ(r, w): Lorentz l_{r,w} quasi-norm of the same magnitude
    sequence; admissible when 0 < r < 1 with any w in (0, inf], or r = 1
    with w in (0, 1].  The pair r = 1, w > 1 is rejected.
    BRACKET_LOWER(r, p) and BRACKET_UPPER(r, p): l_r mass on one side
    times a weak p'-norm on the other, r in (0, 1], p in [1, 2].
    """

    variant: str
    s: float | None = None
    r: float | None = None
    w: float | None = None
    p: float | None = None

    def __post_init__(self):
        v = self.variant
        if v == S_VARIANT:
            if self.s is None or not (0.0 < self.s <= 1.0):
                raise ValueError("S variant needs s in (0, 1]")
        elif v == LORENTZ_VARIANT:
            if self.r is None or self.w is None:
                raise ValueError("LORENTZ variant needs r and w")
            if not (0.0 < self.r <= 1.0) or not (self.w > 0.0):
                raise ValueError("LORENTZ variant needs 0 < r <= 1, w > 0")
            if self.r == 1.0 and self.w > 1.0:
                raise ValueError("r = 1 admits only w <= 1")
        elif v in (BRACKET_LOWER, BRACKET_UPPER):
            if self.r is None or not (0.0 < self.r <= 1.0):
                raise ValueError("bracket variants need r in (0, 1]")
            if self.p is None or not (1.0 <= self.p <= 2.0):
                raise ValueError("bracket variants need p in [1, 2]")
        else:
            raise ValueError(f"unknown variant {v!r}")

    @classmethod
    def absolutely_summable(cls, s: float) -> "NuclearIndex":
        return cls(S_VARIANT, s=s)

    @classmethod
    def lorentz(cls, r: float, w: float) -> "NuclearIndex":
        return cls(LORENTZ_VARIANT, r=r, w=w)

    @classmethod
    def bracket_lower(cls, r: float, p: float) -> "NuclearIndex":
        return cls(BRACKET_LOWER, r=r, p=p)

    @classmethod
    def bracket_upper(cls, r: float, p: float) -> "NuclearIndex":
        return cls(BRACKET_UPPER, r=r, p=p)


@dataclass(frozen=True)
class Representation:
    """Rank-one expansion sum_k lambda_k <x'_k, .> x_k.

    Atom k is row k of F (its functional, in the dual of the domain) and
    row k of X (its vector, in the codomain).  Atoms are stored in the
    order given, each of coefficients, F and X as one copy; a zero
    coefficient is an atom of magnitude zero.  The trace and the
    quasi-norms do not depend on the order of the atoms, up to rounding.
    The spaces are stored explicitly so an empty representation still
    knows where it acts.

    A stack of representations sharing spaces and atom count has
    coefficients of shape (..., m), F of shape (..., m, domain dim) and X
    of shape (..., m, codomain dim), one representation per row.  A single
    representation is the stack of one.  `induced_matrix`,
    `nuclear_trace`, `magnitudes` and `quasi_norm` give one result per
    row, equal to the single representation's; the other functions of
    this module refuse a stack.
    """

    coefficients: np.ndarray
    F: np.ndarray
    X: np.ndarray
    domain: AmbientSpace
    codomain: AmbientSpace

    def __post_init__(self):
        # C order keeps every reduction over atoms or coordinates running along its own row
        lam = np.array(self.coefficients, dtype=float, order="C")
        F = np.array(self.F, dtype=float, order="C")
        X = np.array(self.X, dtype=float, order="C")
        if lam.ndim == 0:
            raise ValueError("coefficients must be one dimensional, or a stack of rows")
        if not np.all(np.isfinite(lam)) or np.any(lam < 0.0):
            raise ValueError("coefficients must be finite and nonnegative")
        if F.shape != lam.shape + (self.domain.dim,) or X.shape != lam.shape + (self.codomain.dim,):
            raise ValueError("F must be atoms x domain dim, X atoms x codomain dim")
        if not (np.all(np.isfinite(F)) and np.all(np.isfinite(X))):
            raise ValueError("atoms must be finite")
        object.__setattr__(self, "coefficients", lam)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "X", X)

    @classmethod
    def from_arrays(
        cls,
        coefficients,
        functionals,
        vectors,
        domain: AmbientSpace,
        codomain: AmbientSpace,
    ) -> "Representation":
        """Rows of `functionals` and rows of `vectors` are the atoms."""
        return cls(coefficients, functionals, vectors, domain, codomain)

    @property
    def atom_count(self) -> int:
        return int(self.coefficients.shape[-1])

    def functional_matrix(self) -> np.ndarray:
        """A copy of F."""
        return self.F.copy()

    def vector_matrix(self) -> np.ndarray:
        """A copy of X."""
        return self.X.copy()

    def _functional_norms(self) -> np.ndarray:
        """|x'_k| in the dual of the domain, one per atom."""
        return lp_norm(self.F, dual_exponent(self.domain.exponent), axis=-1)

    def _vector_norms(self) -> np.ndarray:
        """|x_k| in the codomain, one per atom."""
        return lp_norm(self.X, self.codomain.exponent, axis=-1)

    def magnitudes(self) -> np.ndarray:
        """The (..., m) array of the sequences lambda_k |x'_k| |x_k| driving every quasi-norm.

        An atom with a zero norm has magnitude 0, also where the product
        of the other two factors overflows to inf.
        """
        f, x = self._functional_norms(), self._vector_norms()
        with np.errstate(invalid="ignore"):
            mags = self.coefficients * f * x
        return np.where((f == 0.0) | (x == 0.0), 0.0, mags)


def _require_single(z: Representation) -> None:
    """Refuse a stack where only a single representation is meant."""
    if z.coefficients.ndim != 1:
        raise ValueError("expected a single representation, not a stack")


def induced_matrix(z: Representation) -> np.ndarray:
    """The (codomain dim, domain dim) array of the map domain -> codomain; a stack's, one per row."""
    return (np.swapaxes(z.X, -1, -2) * z.coefficients[..., None, :]) @ z.F


def nuclear_trace(z: Representation) -> float | np.ndarray:
    """sum_k lambda_k <x'_k, x_k> for an endomorphism representation; one per row of a stack."""
    if z.domain.dim != z.codomain.dim:
        raise ValueError("trace requires equal domain and codomain dimension")
    tr = np.sum(z.coefficients * np.einsum("...ij,...ij->...i", z.F, z.X), axis=-1)
    return float(tr) if tr.ndim == 0 else tr


def _tight_or_lower(lo, hi):
    """The upper end of a bracket tight to 1e-12 relative, else the lower end."""
    return np.where(hi - lo <= 1e-12 * hi, hi, lo)


def weak_norm_bracket(vectors, p_prime: float, home: AmbientSpace) -> NormBracket:
    """Bracket for the weak l_{p'} norm of a finite vector system, or of each of a stack.

    The system is the rows of a 2-d array of coordinates in `home`; a
    (..., m, n) stack of systems gives a bracket of (...) arrays, a 2-d
    array the bracket of the stack of one.  The value is sup over unit
    functionals y' of the l_{p'} norm of the pairing sequence
    (<y', y_i>)_i, equivalently the operator norm of the pairing map from
    the dual of `home` into l_{p'}^m, bracketed by `operator_brackets`
    (exact in the home spaces l_2 with p' = 2, l_inf, and l_1 of dimension
    at most 16).  One vector is exact; otherwise the l_{p'} sum of the
    vector norms also bounds from above, and the largest vector norm from
    below (pair that vector with its norming functional).
    """
    Y = np.asarray(vectors, dtype=float)
    if Y.ndim < 2 or Y.shape[-2] == 0:
        raise ValueError("weak norm needs at least one vector, one per row")
    if Y.shape[-1] != home.dim:
        raise ValueError("vector length must match the home space")
    if not np.all(np.isfinite(Y)):
        raise ValueError("vectors must be finite")
    # the pairing's codomain l_{p'}^m checks p' >= 1
    p_prime = AmbientSpace(Y.shape[-2], p_prime).exponent
    nv = lp_norm(Y, home.exponent, axis=-1)
    if Y.shape[-2] == 1:
        lo = hi = nv[..., 0]
    else:
        lo, hi = operator_brackets(Y, dual_exponent(home.exponent), p_prime)
        hi = np.minimum(hi, lp_norm(nv, p_prime, axis=-1))
        lo = np.minimum(np.maximum(lo, nv.max(axis=-1)), hi)
    if Y.ndim == 2:
        return NormBracket(float(lo), float(hi))
    return NormBracket(lo, hi)


def _bracket_values(z: Representation, index: NuclearIndex) -> np.ndarray:
    """BRACKET_LOWER or BRACKET_UPPER value of each row of z."""
    p_prime = dual_exponent(index.p)
    if index.variant == BRACKET_LOWER:
        side = z.coefficients * lp_norm(z.F, dual_exponent(z.domain.exponent), axis=-1)
        weak = weak_norm_bracket(z.X, p_prime, z.codomain)
    else:
        side = z.coefficients * lp_norm(z.X, z.codomain.exponent, axis=-1)
        weak = weak_norm_bracket(z.F, p_prime, z.domain.dual())
    return lp_norm(side, index.r, axis=-1) * _tight_or_lower(*weak)


def quasi_norm(z: Representation, index: NuclearIndex) -> float | np.ndarray:
    """Evaluate the selected quasi-norm of the representation, or of each row of a stack.

    S and LORENTZ act on the magnitude sequence lambda_k |x'_k| |x_k|.
    BRACKET_LOWER multiplies the l_r mass of (lambda_k x'_k) by the weak
    p'-norm of the vector system; BRACKET_UPPER swaps the roles.  A
    single representation is the stack of one and gives a float; a stack
    gives the array of its rows' values: S and LORENTZ as one row-wise
    norm each, the bracket variants with one stacked ascent.  The atoms
    are finite, so an infinite magnitude is overflow, and its row's S or
    LORENTZ value is inf.
    """
    if index.variant == S_VARIANT:
        out = lp_norm(z.magnitudes(), index.s, axis=-1)
    elif index.variant == LORENTZ_VARIANT:
        mags = z.magnitudes()
        flat = mags.reshape(math.prod(mags.shape[:-1]), z.atom_count)
        finite = ~np.isinf(flat).any(axis=-1)
        out = np.full(flat.shape[0], math.inf)
        out[finite] = lorentz_quasi_norm(flat[finite], LorentzIndex(index.r, index.w))
        out = out.reshape(mags.shape[:-1])
    elif z.atom_count == 0:
        out = np.zeros(z.coefficients.shape[:-1])
    else:
        out = _bracket_values(z, index)
    return float(out) if np.ndim(out) == 0 else out


def trace_perturbation_bound(
    z: Representation, R: np.ndarray, s: float
) -> tuple[float, float]:
    """Defect |trace z - trace(R z)| and its split-based upper bound.

    R is a finite (n, n) array, n the codomain dimension.  Each atom is
    split into a weight lambda_k**s |x'_k| and a scaled vector
    lambda_k**(1-s) x_k, s in (0, 1].  The bound is the l_1 mass of the
    weights times the worst displacement of a scaled vector under R,
    measured in the codomain.
    """
    _require_single(z)
    if not (0.0 < s <= 1.0):
        raise ValueError("s must lie in (0, 1]")
    R = np.asarray(R, dtype=float)
    if R.shape != (z.codomain.dim,) * 2 or not np.all(np.isfinite(R)):
        raise ValueError("perturbation must be a finite endomorphism of the codomain")
    tr = nuclear_trace(z)
    moved = z.X @ R.T
    tr_perturbed = float(
        np.sum(z.coefficients * np.einsum("ij,ij->i", z.F, moved))
    )
    defect = abs(tr - tr_perturbed)
    lam = z.coefficients
    weights = lam ** s * z._functional_norms()
    scaled = (lam ** (1.0 - s))[:, None] * z.X
    resid = scaled - scaled @ R.T
    worst = float(np.max(lp_norm(resid, z.codomain.exponent, axis=1), initial=0.0))
    return defect, float(np.sum(weights)) * worst


def rebalance(z: Representation) -> Representation:
    """Push all atom mass into the coefficients.

    Functionals and vectors are normalized and lambda_k becomes
    lambda_k |x'_k| |x_k|; atoms with a zero factor are dropped.  The
    induced matrix is unchanged up to rounding and every magnitude-based
    quasi-norm is invariant.
    """
    _require_single(z)
    nf = z._functional_norms()
    nx = z._vector_norms()
    keep = (nf > 0.0) & (nx > 0.0)
    nf, nx = nf[keep], nx[keep]
    return Representation(
        z.coefficients[keep] * nf * nx,
        z.F[keep] / nf[:, None],
        z.X[keep] / nx[:, None],
        z.domain,
        z.codomain,
    )


# the rescalings of one atom, tried in this order
_GRID = np.array([0.25, 0.5, 0.75, 1.5, 2.0, 4.0])


def _rescalings(
    heads: list[Representation], current: Representation, ahead: np.ndarray
) -> Representation:
    """The stack of `heads`, then `current` rescaled at each flat sweep position of `ahead`.

    Position k multiplies the functional of atom k // 6 by _GRID[k % 6]
    and divides its vector by the same factor, which keeps the induced
    matrix.
    """
    rows = np.arange(ahead.size)
    atoms, factors = ahead // _GRID.size, _GRID[ahead % _GRID.size, None]
    F = np.repeat(current.F[None], ahead.size, axis=0)
    X = np.repeat(current.X[None], ahead.size, axis=0)
    F[rows, atoms] *= factors
    X[rows, atoms] /= factors
    lam = np.repeat(current.coefficients[None], ahead.size, axis=0)
    return Representation(
        np.concatenate([h.coefficients[None] for h in heads] + [lam]),
        np.concatenate([h.F[None] for h in heads] + [F]),
        np.concatenate([h.X[None] for h in heads] + [X]),
        current.domain,
        current.codomain,
    )


def improve_representation(
    z: Representation, index: NuclearIndex, sweeps: int = 2
) -> tuple[Representation, float, float]:
    """Greedy per-atom rescaling of the bracket variants.

    For magnitude-based indices rebalancing is already optimal, so only
    the bracket variants are swept: starting from rebalance(z), each atom
    is rescaled by a grid of factors applied to the functional and undone
    on the vector, keeping the induced matrix fixed while trading mass
    between the l_r side and the weak side; a rescaling is kept when its
    value is below the best so far.  Each round evaluates, as one stacked
    quasi-norm, every rescaling still ahead in the sweep (atom by atom,
    each through the grid), all taken from the current representation,
    and keeps the first that beats the best value; the next round starts
    right after it.  The first round also evaluates z and rebalance(z)
    (z alone beforehand if rebalancing dropped atoms).  The result is
    that of trying the rescalings one at a time.  `sweeps` must be a
    non-negative integer.

    Returns (swept representation, old value, min(old value, best value)).
    A known defect: the swept representation's own bracket value can exceed
    the old value, as the sweep starts from rebalance(z) even when z is worth
    less; perfbench's strict xfail on the improver pins it.
    """
    _require_single(z)
    if isinstance(sweeps, bool) or not isinstance(sweeps, (int, np.integer)) or sweeps < 0:
        raise ValueError(f"sweeps must be a non-negative integer, not {sweeps!r}")
    if index.variant in (S_VARIANT, LORENTZ_VARIANT):
        zb = rebalance(z)
        return zb, quasi_norm(z, index), quasi_norm(zb, index)
    current = rebalance(z)
    heads = [z, current]
    if current.atom_count != z.atom_count:
        # rebalancing dropped atoms, so z cannot share current's stack
        before = quasi_norm(z, index)
        heads = [current]
    size = current.atom_count * _GRID.size
    start, left, changed = 0, sweeps, False
    while True:
        ahead = np.arange(start, size if left else start)
        stack = _rescalings(heads, current, ahead)
        vals = quasi_norm(stack, index)
        first = len(heads)
        if first == 2:
            before = float(vals[0])
        if first:
            best_val = float(vals[first - 1])
        heads = []
        better = np.flatnonzero(vals[first:] < best_val)
        if better.size:
            # the first rescaling below best_val: the one a sweep taking them
            # one at a time accepts next
            j = better[0]
            row = first + j
            best_val = float(vals[row])
            current = Representation(
                stack.coefficients[row], stack.F[row], stack.X[row], current.domain, current.codomain
            )
            start, changed = int(ahead[j]) + 1, True
        if better.size == 0 or start == size:
            # the sweep is over
            left -= 1
            if left <= 0 or not changed:
                break
            start, changed = 0, False
    return current, before, min(before, best_val)
