"""Eigenvalue extraction and trace-formula audits.

Eigenvalues come from LAPACK's balanced Hessenberg reduction with
shifted QR iteration (numpy.linalg.eigvals).  A slow independent check
is provided for small matrices: characteristic polynomial coefficients
by the Faddeev-LeVerrier recursion and roots by Durand-Kerner iteration,
sharing no code with the LAPACK path.

`eigenvalues`, `characteristic_roots` and `audit_trace_formula` also take
stacks and work on all of their matrices at once; each single form is
the stack of one, so a row of a stack gives the bits of its single call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .approximation import projection_growth_exponent
from .nuclear import NuclearIndex, Representation, induced_matrix, nuclear_trace
from .nuclear import quasi_norm as representation_quasi_norm
from .spaces import OperatorMatrix

__all__ = [
    "TraceAuditReport",
    "SimilarityReport",
    "NilpotentReport",
    "ProbeReport",
    "eigenvalues",
    "characteristic_roots",
    "match_spectra",
    "audit_trace_formula",
    "eigenvalue_type_probe",
    "similarity_spectrum_check",
    "nilpotent_check",
    "trace_formula_exponent",
]

_ORACLE_DIM_LIMIT = 16
_DK_MAX_ITERS = 500


def _as_square(A, stack: bool = False) -> np.ndarray:
    """The entries of a square matrix, or with `stack` of a stack (..., n, n) of them."""
    mat = A.entries if isinstance(A, OperatorMatrix) else np.asarray(A, dtype=float)
    if mat.ndim < 2 or (mat.ndim > 2 and not stack) or mat.shape[-1] != mat.shape[-2]:
        raise ValueError("expected a square matrix" + (" or a stack of them" if stack else ""))
    return mat


def _sort_spectrum(vals: np.ndarray) -> np.ndarray:
    """Each spectrum along the last axis by non-increasing modulus, then by argument."""
    vals = np.asarray(vals, dtype=complex)
    order = np.lexsort((np.angle(vals), -np.abs(vals)), axis=-1)
    return np.take_along_axis(vals, order, axis=-1)


def eigenvalues(A) -> np.ndarray:
    """Spectrum of a square matrix or operator, by non-increasing modulus, then by argument.

    A stack (..., n, n) of matrices takes one LAPACK call and gives the
    (..., n) complex array of one sorted spectrum per matrix.
    """
    return _sort_spectrum(np.linalg.eigvals(_as_square(A, stack=True)))


def _char_poly_coeffs(mat: np.ndarray) -> np.ndarray:
    """Coefficients c with det(xI - A) = x^n + c[1] x^(n-1) + ... + c[n].

    Faddeev-LeVerrier for each matrix of a stack (..., n, n) at once; the
    result has shape (..., n + 1).
    """
    n = mat.shape[-1]
    coeffs = np.zeros(mat.shape[:-2] + (n + 1,))
    coeffs[..., 0] = 1.0
    M = np.zeros_like(mat)
    I = np.eye(n)
    for k in range(1, n + 1):
        M = mat @ M + coeffs[..., k - 1, None, None] * I
        coeffs[..., k] = -np.trace(mat @ M, axis1=-2, axis2=-1) / k
    return coeffs


def _durand_kerner(coeffs: np.ndarray) -> np.ndarray:
    """All roots of each monic polynomial of a stack (k, n + 1) by simultaneous iteration.

    The polynomials iterate together, and each leaves the iteration after
    its own step that moves no root by more than 1e-16 (1 + max |root|),
    or after _DK_MAX_ITERS steps, so each gets the roots of iterating it
    alone.

    A step is a fixed map of a polynomial's own roots, so once its roots
    repeat an earlier step's bit for bit, with period m, they cycle: the
    stop test, silent for a whole period, never fires, and the roots at
    the cap are those m steps back.  Such a row leaves after only
    (cap - step) mod m more steps, with the roots it would have at the
    cap.  Repeats are found as in Brent's cycle detection: the roots
    after each step are compared with those saved at the last step that
    was a power of two.
    """
    k, n = coeffs.shape[0], coeffs.shape[-1] - 1
    if n == 0:
        return np.zeros((k, 0), dtype=complex)
    radius = 1.0 + np.max(np.abs(coeffs[:, 1:]), axis=-1)
    j = np.arange(n)
    W = radius[:, None] * np.exp(2j * np.pi * (j + 0.25) / n)
    C = coeffs.astype(complex)
    live = np.arange(k)
    cap = _DK_MAX_ITERS
    # the bits of each live row's roots at step `saved_step`, row for row with `live`
    saved, saved_step = W.copy().view(np.int64), 0
    last_step = None
    for step in range(1, cap + 1):
        w, c = W[live], C[live]
        pw = np.zeros_like(w)
        for i in range(n + 1):
            pw = pw * w + c[:, i, None]
        D = w[:, :, None] - w[:, None, :]
        D[:, j, j] = 1.0
        delta = pw / np.prod(D, axis=-1)
        w = w - delta
        W[live] = w
        done = np.max(np.abs(delta), axis=-1) <= 1e-16 * (1.0 + np.max(np.abs(w), axis=-1))
        bits = w.view(np.int64)
        # a repeat needs the first root's real part to repeat; most steps stop there
        first = bits[:, 0] == saved[:, 0]
        if np.count_nonzero(first):
            rows = live[first & np.all(bits == saved, axis=-1)]
            if rows.size:
                if last_step is None:
                    last_step = np.full(k, cap)
                last_step[rows] = np.minimum(last_step[rows], step + (cap - step) % (step - saved_step))
        if last_step is not None:
            done |= last_step[live] == step
        if step & (step - 1) == 0:
            saved, saved_step = bits, step
        if np.count_nonzero(done):
            live, saved = live[~done], saved[~done]
            if live.size == 0:
                break
    return W


def characteristic_roots(A) -> np.ndarray:
    """Independent small-matrix spectrum via char poly plus root finding.

    Intended as a cross-check for dimension at most 8; refuses beyond 16
    where the recursion loses too many digits to be a useful oracle.  A
    stack (..., n, n) gives the sorted roots of each matrix, shape
    (..., n), from one recursion and one root iteration over the stack;
    a zero matrix has zero roots.
    """
    mat = _as_square(A, stack=True)
    n = mat.shape[-1]
    if n > _ORACLE_DIM_LIMIT:
        raise ValueError("characteristic oracle is limited to dim <= 16")
    flat = mat.reshape((math.prod(mat.shape[:-2]), n, n))
    scale = np.max(np.abs(flat), axis=(-2, -1), initial=0.0)
    roots = np.zeros(flat.shape[:-1], dtype=complex)
    live = scale > 0.0
    if np.any(live):
        s = scale[live]
        roots[live] = _durand_kerner(_char_poly_coeffs(flat[live] / s[:, None, None])) * s[:, None]
    return _sort_spectrum(roots.reshape(mat.shape[:-1]))


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
    """Side-by-side of nuclear trace and spectral sum for one representation.

    `matrix` is the induced matrix and `spectrum` its sorted eigenvalues,
    kept for cross-checks; neither takes part in comparisons.
    """

    nuclear_trace: float
    spectral_sum: complex
    defect: float
    eigen_l1: float
    quasi_norm: float
    ratio: float | None
    frobenius: float
    passed: bool
    matrix: np.ndarray = field(compare=False, repr=False)
    spectrum: np.ndarray = field(compare=False, repr=False)


def audit_trace_formula(
    z: Representation | Sequence[Representation],
    index: NuclearIndex | Sequence[NuclearIndex],
    tolerance_scale: float = 1e-8,
) -> TraceAuditReport | tuple[TraceAuditReport, ...]:
    """Compare the nuclear trace against the eigenvalue sum.

    passed requires defect <= tolerance_scale * (1 + Frobenius norm of
    the induced matrix).  ratio is the l_1 eigenvalue mass divided by the
    quasi-norm, or None when the quasi-norm vanishes.

    The stack form takes a sequence of representations, each single or a
    stack, all endomorphisms of one dimension n, with one index for each,
    and returns a tuple of one report per row, in order.  The induced
    matrices form one (k, n, n) stack: one eigenvalue call, and row-wise
    spectral sums and eigenvalue masses.  A single representation and
    index give the report of the stack of one.
    """
    if isinstance(z, Representation):
        if z.coefficients.ndim != 1:
            raise ValueError("expected a single representation, not a stack")
        return _audit_stack([z], [index], tolerance_scale)[0]
    return _audit_stack(list(z), list(index), tolerance_scale)


def _audit_stack(
    reps: list[Representation], indices: list[NuclearIndex], tolerance_scale: float
) -> tuple[TraceAuditReport, ...]:
    """The reports of `audit_trace_formula` on a stack, in order."""
    if len(reps) != len(indices):
        raise ValueError("a stack needs one index per representation")
    if not reps:
        return ()
    n = reps[0].domain.dim
    if any(r.domain.dim != n or r.codomain.dim != n for r in reps):
        raise ValueError("a stack needs endomorphisms of one dimension")
    # rows a:b of the stack are those of reps[i]: one, or all of a stack's
    bounds = np.cumsum([0] + [math.prod(z.coefficients.shape[:-1]) for z in reps])
    traces = np.empty(bounds[-1])
    quasi_norms = np.empty(bounds[-1])
    mats = np.empty((bounds[-1], n, n))
    for z, idx, a, b in zip(reps, indices, bounds, bounds[1:]):
        traces[a:b] = np.ravel(nuclear_trace(z))
        mats[a:b] = _as_square(induced_matrix(z), stack=True).reshape(-1, n, n)
        quasi_norms[a:b] = np.ravel(representation_quasi_norm(z, idx))
    spectra = eigenvalues(mats)
    sums = np.sum(spectra, axis=-1)
    eigen_l1 = np.sum(np.abs(spectra), axis=-1)
    reports = []
    for i, M in enumerate(mats):
        tr, ssum, qn, l1 = float(traces[i]), complex(sums[i]), float(quasi_norms[i]), float(eigen_l1[i])
        defect = abs(tr - ssum)
        # per matrix: np.linalg.norm over a stack sums the squares
        # another way and can differ in the last bit
        fro = float(np.linalg.norm(M))
        reports.append(TraceAuditReport(
            nuclear_trace=tr,
            spectral_sum=ssum,
            defect=float(defect),
            eigen_l1=l1,
            quasi_norm=qn,
            ratio=None if qn == 0.0 else l1 / qn,
            frobenius=fro,
            passed=bool(defect <= tolerance_scale * (1.0 + fro)),
            matrix=M,
            spectrum=spectra[i],
        ))
    return tuple(reports)


@dataclass(frozen=True)
class ProbeReport:
    """Ratio sweep over a family of growing representations."""

    dims: tuple[int, ...]
    reports: tuple["TraceAuditReport", ...]
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
    return ProbeReport(dims=dims, reports=reports, verdict=verdict)


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
    matched, worst = match_spectra(eigenvalues(ab), eigenvalues(ba))
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
    Both tests are relative to ||A||_F, with no absolute floor: |trace|
    at most n eps ||A||_F, and every computed eigenvalue modulus at most
    n sqrt(eps) ||A||_F, the rounding of a defective zero eigenvalue.
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
    max_mod = float(np.max(np.abs(eigenvalues(mat)), initial=0.0))
    n, eps = mat.shape[0], np.finfo(float).eps
    passed = bool(abs(tr) <= n * eps * scale and max_mod <= n * math.sqrt(eps) * scale)
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
