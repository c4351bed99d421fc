"""Finite-rank approximation of a norm-decaying vector system.

Given vectors with non-increasing norms and a tolerance, pick the
smallest cutoff N whose tail already fits under epsilon deflated by the
projection-growth allowance N**alpha + 1, then project onto the leading
span.  When the projection norm stays within its allowance, the sup
error over the whole system is at most epsilon; nothing here checks it.
The system comes in as `Vector`s, whose norms are taken one by one;
everything after that works on their coordinates stacked as rows.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spaces import (
    AmbientSpace,
    NormBracket,
    Vector,
    lp_norm,
    projection_onto_span,
    vector_norm,
)

__all__ = [
    "ApproximationCertificate",
    "select_rank",
    "build_approximant",
    "projection_growth_exponent",
]


def projection_growth_exponent(p: float) -> float:
    """The allowance exponent |1/2 - 1/p| for projections inside l_p."""
    if not (p >= 1.0):
        raise ValueError("p must satisfy p >= 1")
    return abs(0.5 - 1.0 / p)


def select_rank(norms, epsilon: float, alpha: float) -> int:
    """Smallest N >= 1 with every tail norm at most epsilon / (N**alpha + 1).

    norms must be non-increasing and nonnegative; entries beyond the list
    count as zero, so some N always works and len(norms) + 1 is returned
    when no stored tail is small enough.
    """
    if not (epsilon > 0.0):
        raise ValueError("epsilon must be positive")
    if not (0.0 <= alpha <= 0.5):
        raise ValueError("alpha must lie in [0, 1/2]")
    vals = np.asarray(norms, dtype=float)
    if vals.ndim != 1:
        raise ValueError("norms must be one dimensional")
    if not np.all(np.isfinite(vals)):
        raise ValueError("norms must be finite")
    if np.any(vals < 0.0):
        raise ValueError("norms must be nonnegative")
    if np.any(np.diff(vals) > 0.0):
        raise ValueError("norms must be non-increasing")
    # non-increasing tail: the n = N term dominates everything beyond it
    for N in range(1, vals.size + 1):
        if vals[N - 1] <= epsilon / (N ** alpha + 1.0):
            return N
    return vals.size + 1


@dataclass(frozen=True)
class ApproximationCertificate:
    """What the approximant promises and what was measured.

    order records the permutation applied to reach non-increasing norms;
    guarantee_regime is True when the cutoff lies inside the system and
    the projection norm upper bound stays within N**alpha, in which case
    sup_error <= epsilon is promised; sup_error is measured, not checked
    here, so the caller can test the promise.
    """

    epsilon: float
    cutoff: int
    alpha: float
    projection_norm_bracket: NormBracket
    sup_error: float
    rank: int
    guarantee_regime: bool
    order: tuple[int, ...]


def build_approximant(
    xs: Sequence[Vector],
    epsilon: float,
    space: AmbientSpace,
    alpha: float,
) -> tuple[np.ndarray, ApproximationCertificate]:
    """Project the system onto the span of its largest members.

    Every vector must live in `space`.  The vectors are sorted
    internally by non-increasing norm (original order recorded in the
    certificate), the cutoff comes from select_rank, and the returned
    (dim, dim) array projects onto the span of the first
    min(cutoff, len(xs)) sorted vectors.  sup_error is the
    largest l_p norm of a residual x - P x over the entire system.
    """
    vectors = list(xs)
    if len(vectors) == 0:
        raise ValueError("approximant needs at least one vector")
    # the norms that sort the system must be those it is projected and measured in
    if any(v.home != space for v in vectors):
        raise ValueError("vector home space mismatch: every vector must live in space")
    norms = np.array([vector_norm(v) for v in vectors])
    X = np.stack([v.coords for v in vectors])
    order = np.argsort(-norms, kind="stable")
    N = select_rank(norms[order], epsilon, alpha)
    P, bracket = projection_onto_span(X[order[:N]], space.exponent)
    rank = int(round(float(np.trace(P))))
    # P @ x per row, as a stack of matrix-vector products: X @ P.T rounds differently
    residuals = X - (P @ X[..., None])[..., 0]
    sup_error = lp_norm(residuals, space.exponent, axis=-1).max()
    guarantee = bool(
        N <= len(vectors)
        and bracket.upper <= N ** alpha * (1.0 + 1e-12) + 1e-12
    )
    cert = ApproximationCertificate(
        epsilon=epsilon,
        cutoff=N,
        alpha=alpha,
        projection_norm_bracket=bracket,
        sup_error=float(sup_error),
        rank=rank,
        guarantee_regime=guarantee,
        order=tuple(order.tolist()),
    )
    return P, cert
