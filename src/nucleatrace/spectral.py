"""Eigenvalue extraction and trace-formula audits.

Eigenvalues come from LAPACK's balanced Hessenberg reduction with
shifted QR iteration (numpy.linalg.eigvals).  A slow independent check
is provided for small matrices: characteristic polynomial coefficients
by the Faddeev-LeVerrier recursion and roots by Durand-Kerner iteration,
sharing no code with the LAPACK path.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .approximation import projection_growth_exponent
from .nuclear import NuclearIndex, Representation, induced_matrix, nuclear_trace
from .nuclear import quasi_norm as representation_quasi_norm
from .spaces import OperatorMatrix

__all__ = [
    "EigenSystem",
    "TraceAuditReport",
    "SimilarityReport",
    "NilpotentReport",
    "ProbeReport",
    "eigenvalues",
    "characteristic_roots",
    "spectral_sum",
    "match_spectra",
    "audit_trace_formula",
    "eigenvalue_type_probe",
    "similarity_spectrum_check",
    "nilpotent_check",
    "trace_formula_exponent",
]

_ORACLE_DIM_LIMIT = 16
_DK_MAX_ITERS = 500


def _as_square(A) -> np.ndarray:
    mat = A.entries if isinstance(A, OperatorMatrix) else np.asarray(A, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("expected a square matrix")
    return mat


def _sort_spectrum(vals: np.ndarray) -> np.ndarray:
    vals = np.asarray(vals, dtype=complex)
    order = np.lexsort((np.angle(vals), -np.abs(vals)))
    return vals[order]


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues sorted by non-increasing modulus, then by argument."""

    values: np.ndarray
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "values", _sort_spectrum(self.values))

    def moduli(self) -> np.ndarray:
        return np.abs(self.values)


def eigenvalues(A) -> EigenSystem:
    """Spectrum of a square matrix or operator as an EigenSystem."""
    mat = _as_square(A)
    return EigenSystem(np.linalg.eigvals(mat), mat.shape[0])


def _char_poly_coeffs(mat: np.ndarray) -> np.ndarray:
    """Coefficients c with det(xI - A) = x^n + c[1] x^(n-1) + ... + c[n]."""
    n = mat.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    M = np.zeros_like(mat)
    I = np.eye(n)
    for k in range(1, n + 1):
        M = mat @ M + coeffs[k - 1] * I
        coeffs[k] = -np.trace(mat @ M) / k
    return coeffs


def _durand_kerner(coeffs: np.ndarray) -> np.ndarray:
    """All roots of a monic polynomial by simultaneous iteration."""
    n = coeffs.size - 1
    if n == 0:
        return np.zeros(0, dtype=complex)
    radius = 1.0 + float(np.max(np.abs(coeffs[1:])))
    j = np.arange(n)
    w = radius * np.exp(2j * np.pi * (j + 0.25) / n)
    c = coeffs.astype(complex)
    for _ in range(_DK_MAX_ITERS):
        pw = np.zeros(n, dtype=complex)
        for ck in c:
            pw = pw * w + ck
        D = w[:, None] - w[None, :]
        np.fill_diagonal(D, 1.0)
        delta = pw / np.prod(D, axis=1)
        w = w - delta
        if np.max(np.abs(delta)) <= 1e-16 * (1.0 + np.max(np.abs(w))):
            break
    return w


def characteristic_roots(A) -> np.ndarray:
    """Independent small-matrix spectrum via char poly plus root finding.

    Intended as a cross-check for dimension at most 8; refuses beyond 16
    where the recursion loses too many digits to be a useful oracle.
    """
    mat = _as_square(A)
    n = mat.shape[0]
    if n > _ORACLE_DIM_LIMIT:
        raise ValueError("characteristic oracle is limited to dim <= 16")
    scale = float(np.max(np.abs(mat))) if mat.size else 0.0
    if scale == 0.0:
        return np.zeros(n, dtype=complex)
    roots = _durand_kerner(_char_poly_coeffs(mat / scale))
    return _sort_spectrum(roots * scale)


def spectral_sum(es: EigenSystem) -> complex:
    """Sum of eigenvalues; imaginary part is rounding noise for real input."""
    return complex(np.sum(es.values))


def match_spectra(
    u, v, rel: float = 1e-6, abs_floor: float = 1e-8
) -> tuple[bool, float]:
    """Greedy pairing of two spectra after padding the shorter with zeros.

    Both lists are sorted by modulus; each value of the first is paired
    with the nearest unmatched value of the second.  Returns whether all
    pairs sit within max(abs_floor, rel * pair modulus) and the largest
    pair distance.
    """
    a = list(_sort_spectrum(np.asarray(u, dtype=complex)))
    b = list(_sort_spectrum(np.asarray(v, dtype=complex)))
    while len(a) < len(b):
        a.append(0.0 + 0.0j)
    while len(b) < len(a):
        b.append(0.0 + 0.0j)
    remaining = list(b)
    worst = 0.0
    ok = True
    for x in a:
        dists = [abs(x - y) for y in remaining]
        i = int(np.argmin(dists))
        y = remaining.pop(i)
        d = abs(x - y)
        worst = max(worst, d)
        if d > max(abs_floor, rel * max(abs(x), abs(y))):
            ok = False
    return ok, worst


@dataclass(frozen=True)
class TraceAuditReport:
    """Side-by-side of nuclear trace and spectral sum for one representation."""

    nuclear_trace: float
    spectral_sum: complex
    defect: float
    eigen_l1: float
    quasi_norm: float
    ratio: float | None
    frobenius: float
    passed: bool


def audit_trace_formula(
    z: Representation,
    index: NuclearIndex,
    tolerance_scale: float = 1e-8,
) -> TraceAuditReport:
    """Compare the nuclear trace against the eigenvalue sum.

    passed requires defect <= tolerance_scale * (1 + Frobenius norm of
    the induced matrix).  ratio is the l_1 eigenvalue mass divided by the
    quasi-norm, or None when the quasi-norm vanishes.
    """
    tr = nuclear_trace(z)
    M = induced_matrix(z)
    es = eigenvalues(M)
    ssum = spectral_sum(es)
    defect = abs(tr - ssum)
    eigen_l1 = float(np.sum(es.moduli()))
    qn = representation_quasi_norm(z, index)
    ratio = None if qn == 0.0 else eigen_l1 / qn
    fro = M.frobenius()
    return TraceAuditReport(
        nuclear_trace=tr,
        spectral_sum=ssum,
        defect=float(defect),
        eigen_l1=eigen_l1,
        quasi_norm=qn,
        ratio=ratio,
        frobenius=fro,
        passed=bool(defect <= tolerance_scale * (1.0 + fro)),
    )


@dataclass(frozen=True)
class ProbeReport:
    """Ratio sweep over a family of growing representations."""

    dims: tuple[int, ...]
    reports: tuple["TraceAuditReport", ...]
    ratios: tuple[float | None, ...]
    quasi_norms: tuple[float, ...]
    eigen_l1: tuple[float, ...]
    verdict: str


def eigenvalue_type_probe(
    generator: Callable[[int], Representation],
    index: NuclearIndex,
    dims: Sequence[int],
    growth_factor: float = 1.05,
) -> ProbeReport:
    """Audit the family at each dimension and call the ratio trend.

    The verdict is BOUNDED when the largest ratio over the second half of
    the sweep does not exceed growth_factor times the largest over the
    first half, UNBOUNDED otherwise, and SKIPPED when every quasi-norm in
    the sweep vanishes (each such dimension is marked with a None ratio).
    """
    dims = tuple(int(n) for n in dims)
    if len(dims) == 0:
        raise ValueError("probe needs at least one dimension")
    reports = tuple(audit_trace_formula(generator(n), index) for n in dims)
    ratios = [r.ratio for r in reports]
    qns = [r.quasi_norm for r in reports]
    l1s = [r.eigen_l1 for r in reports]
    usable = [(i, r) for i, r in enumerate(ratios) if r is not None]
    if not usable:
        verdict = "SKIPPED"
    else:
        split = (len(dims) + 1) // 2
        first = [r for i, r in usable if i < split]
        second = [r for i, r in usable if i >= split]
        if not first or not second:
            verdict = "BOUNDED"
        else:
            verdict = (
                "BOUNDED"
                if max(second) <= growth_factor * max(first)
                else "UNBOUNDED"
            )
    return ProbeReport(
        dims=dims,
        reports=reports,
        ratios=tuple(ratios),
        quasi_norms=tuple(qns),
        eigen_l1=tuple(l1s),
        verdict=verdict,
    )


@dataclass(frozen=True)
class SimilarityReport:
    """Spectrum comparison of the two products of a composable pair."""

    dim_ab: int
    dim_ba: int
    matched: bool
    max_mismatch: float


def similarity_spectrum_check(A: OperatorMatrix, B: OperatorMatrix) -> SimilarityReport:
    """Check that AB and BA share their nonzero spectrum.

    The smaller spectrum is padded with exact zeros before greedy
    matching, so rectangular pairs compare cleanly without a zero
    threshold.
    """
    if A.domain.dim != B.codomain.dim or B.domain.dim != A.codomain.dim:
        raise ValueError("pair is not composable both ways")
    ab = A.entries @ B.entries
    ba = B.entries @ A.entries
    eig_ab = eigenvalues(ab)
    eig_ba = eigenvalues(ba)
    matched, worst = match_spectra(eig_ab.values, eig_ba.values)
    return SimilarityReport(
        dim_ab=ab.shape[0],
        dim_ba=ba.shape[0],
        matched=matched,
        max_mismatch=worst,
    )


@dataclass(frozen=True)
class NilpotentReport:
    """Zero-trace and zero-spectrum check for square-zero matrices."""

    applied: bool
    square_norm: float
    trace: float
    max_modulus: float
    passed: bool | None
    note: str


def nilpotent_check(A, tolerance: float = 0.0) -> NilpotentReport:
    """Verify spectrum and trace vanish when A squares to zero.

    Matrices with ||A^2|| above the tolerance are skipped rather than
    failed; the check only speaks about genuinely 2-nilpotent input.
    """
    mat = _as_square(A)
    sq = mat @ mat
    sq_norm = float(np.linalg.norm(sq))
    scale = float(np.linalg.norm(mat))
    if sq_norm > tolerance:
        return NilpotentReport(
            applied=False,
            square_norm=sq_norm,
            trace=float(np.trace(mat)),
            max_modulus=float("nan"),
            passed=None,
            note="not 2-nilpotent, skipped",
        )
    tr = float(np.trace(mat))
    es = eigenvalues(mat)
    max_mod = float(np.max(es.moduli())) if es.values.size else 0.0
    passed = bool(
        abs(tr) <= 1e-12 * (1.0 + scale) and max_mod <= max(1e-8, 1e-12 * scale)
    )
    return NilpotentReport(
        applied=True,
        square_norm=sq_norm,
        trace=tr,
        max_modulus=max_mod,
        passed=passed,
        note="2-nilpotent",
    )


def trace_formula_exponent(p: float) -> float:
    """The summability exponent 1 / (1 + |1/2 - 1/p|) attached to l_p."""
    return 1.0 / (1.0 + projection_growth_exponent(p))
