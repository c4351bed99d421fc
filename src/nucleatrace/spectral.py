"""Eigenvalue extraction and trace-formula audits.

Eigenvalues come from LAPACK's balanced Hessenberg reduction with
shifted QR iteration (numpy.linalg.eigvals).  A cross-check is provided
for small matrices: characteristic polynomial coefficients by the
Faddeev-LeVerrier recursion, in plain matrix products with no LAPACK
call, and their roots as the eigenvalues of each polynomial's companion
matrix, as numpy.roots takes them (backward stable for the polynomial;
Edelman and Murakami, Math. Comp. 64, 1995).  So the polynomial is
independent of the LAPACK path, but the root step runs that same
eigenvalue solver on a different matrix.

`eigenvalues`, `characteristic_roots`, `match_spectra` and
`audit_trace_formula` also take stacks and work on all of them at once;
each single form is the stack of one, so a row of a stack gives the bits
of its single call.  A matrix with a NaN or infinite entry is refused.
Every Frobenius norm comes from `_frobenius`, finite for every finite
matrix: one stacked row-by-column matmul of the power-of-two scaled
matrices gives all squared norms with the bits of np.linalg.norm.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .approximation import projection_growth_exponent
from .nuclear import Representation, induced_matrix, nuclear_trace
# unused: perfbench/test_perfbench.py:213 asserts this binding; drop it with the benchmark change of ROADMAP item 14
from .nuclear import quasi_norm as representation_quasi_norm
from .spaces import unit_scale

__all__ = [
    "TraceAudit",
    "SimilarityReport",
    "NilpotentReport",
    "eigenvalues",
    "characteristic_roots",
    "match_spectra",
    "audit_trace_formula",
    "similarity_spectrum_check",
    "nilpotent_check",
    "trace_formula_exponent",
]

_ORACLE_DIM_LIMIT = 16
_DEFECT_RULE = 1e-8  # a trace audit row's allowed defect per unit Frobenius norm


def _as_square(A, stack: bool = False) -> np.ndarray:
    """A finite square matrix as a float array, or with `stack` a stack (..., n, n) of them."""
    mat = np.asarray(A, dtype=float)
    if mat.ndim < 2 or (mat.ndim > 2 and not stack) or mat.shape[-1] != mat.shape[-2]:
        raise ValueError("expected a square matrix" + (" or a stack of them" if stack else ""))
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix entries must be finite")
    return mat


def _frobenius(mats: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each matrix of a stack (..., m, n), finite wherever the true norm is.

    Each matrix is taken at `spaces.unit_scale`, and every squared norm
    comes from one stacked np.matmul of each flattened matrix as a row by
    itself as a column.  numpy computes that product with the same BLAS
    ddot as np.linalg.norm of one matrix (np.linalg.norm over a stack
    sums another way), so in range the bits are those of the unscaled
    norm.
    """
    k = math.prod(mats.shape[:-2])
    # one matrix is read in memory order, as np.linalg.norm reads it; a stack row by row in C order
    flat = (np.ravel(mats, order="K") if mats.ndim == 2 else mats).reshape(k, math.prod(mats.shape[-2:]))
    unit, exps = unit_scale(flat)
    norms = np.sqrt(np.matmul(unit[:, None, :], unit[:, :, None]).reshape(k))
    with np.errstate(over="ignore"):  # a norm beyond the double range reads inf
        return np.ldexp(norms, exps[:, 0]).reshape(mats.shape[:-2])


def _sort_spectrum(vals: np.ndarray) -> np.ndarray:
    """Each spectrum along the last axis by non-increasing modulus, then by argument."""
    vals = np.asarray(vals, dtype=complex)
    order = np.lexsort((np.angle(vals), -np.abs(vals)), axis=-1)
    return np.take_along_axis(vals, order, axis=-1)


def eigenvalues(A) -> np.ndarray:
    """Spectrum of a square matrix, by non-increasing modulus, then by argument.

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


def characteristic_roots(A) -> np.ndarray:
    """Small-matrix spectrum via char poly plus companion-matrix roots.

    trace-audit cross-checks with it at dimension n <= 6; it refuses
    n > 16, where the recursion loses too many digits to be an oracle.  A
    stack (..., n, n) gives the sorted roots of each matrix, shape
    (..., n), from one recursion and one eigenvalue call over the stack.
    Each matrix is scaled by its largest entry first, and a zero matrix
    has exact zero roots.
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
        coeffs = _char_poly_coeffs(flat[live] / s[:, None, None])
        # companion of x^n + c[1] x^(n-1) + ... + c[n]: first row -c[1:], ones below the diagonal
        companion = np.repeat(np.eye(n, k=-1)[None], len(s), axis=0)
        companion[:, 0] = -coeffs[:, 1:]
        roots[live] = np.linalg.eigvals(companion) * s[:, None]
    return _sort_spectrum(roots.reshape(mat.shape[:-1]))


def _modulus(z: np.ndarray) -> np.ndarray:
    # np.abs on a complex array can differ in the last bit from abs of each complex scalar
    return np.hypot(z.real, z.imag)


def match_spectra(u, v, rel: float = 1e-6, abs_floor: float | np.ndarray = 1e-8) -> tuple[bool, float] | tuple[np.ndarray, np.ndarray]:
    """Greedy pairing of two spectra, or of two stacks (..., n) and (..., m) row by row.

    Both are sorted by modulus and the shorter padded with zeros; each
    value of the first, in order, takes the first nearest unpaired value
    of the second.  Gives whether every pair sits within max(abs_floor,
    rel * pair modulus), a NaN pair failing, and the largest pair distance,
    NaN if any is: a bool and a float for one pair, arrays (...) for stacks.
    abs_floor is absolute: one float, or for a stack (k, n) one per row.
    """
    a, b = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    if min(a.ndim, b.ndim) == 0 or a.shape[:-1] != b.shape[:-1]:
        raise ValueError("expected two spectra or two stacks of them with one leading shape")
    lead, n = a.shape[:-1], max(a.shape[-1], b.shape[-1])
    a, free = (np.concatenate([_sort_spectrum(x), np.zeros(lead + (n - x.shape[-1],))], axis=-1)
               .reshape(math.prod(lead), n) for x in (a, b))
    rows = np.arange(len(a))
    worst, matched = np.zeros(len(a)), np.ones(len(a), dtype=bool)
    for x in a.T:
        dist = _modulus(x[:, None] - free)
        i = np.argmin(dist, axis=-1)
        y, d = free[rows, i], dist[rows, i]
        worst = np.maximum(worst, d)
        matched &= d <= np.maximum(abs_floor, rel * np.maximum(_modulus(x), _modulus(y)))
        # the free values stay in order, less the one just paired
        free = np.where(np.arange(free.shape[1] - 1) < i[:, None], free[:, :-1], free[:, 1:])
    if not lead:
        return bool(matched[0]), float(worst[0])
    return matched.reshape(lead), worst.reshape(lead)


@dataclass(frozen=True, eq=False)
class TraceAudit:
    """Nuclear trace against spectral sum, one row per audited representation.

    Every field is an array with one row per representation, in order:
    `matrices` (k, n, n) holds the induced matrices, `spectra` (k, n)
    their sorted eigenvalues, and each other field is a (k,) column.
    """

    nuclear_trace: np.ndarray
    spectral_sum: np.ndarray
    defect: np.ndarray
    eigen_l1: np.ndarray
    frobenius: np.ndarray
    passed: np.ndarray
    matrices: np.ndarray
    spectra: np.ndarray


def audit_trace_formula(reps: Representation | Sequence[Representation]) -> TraceAudit:
    """Compare the nuclear trace against the eigenvalue sum, row by row.

    `reps` is one representation, single or a stack, or a sequence of
    them; all are endomorphisms of one dimension n, and their rows, in
    order, are the rows of the audit.  A single representation is the
    stack of one.  The induced matrices go through one eigenvalue call.

    A row passes when its defect |trace - spectral sum| is at most 1e-8
    times the Frobenius norm of its induced matrix.  The norm is taken at
    the scale of the matrix's largest entry, so it is finite for every
    finite matrix, and the rule has no absolute floor: no representation
    passes for being scaled up or down.
    """
    reps = [reps] if isinstance(reps, Representation) else list(reps)
    if not reps:
        raise ValueError("an audit needs at least one representation")
    n = reps[0].domain.dim
    if any(z.domain.dim != n or z.codomain.dim != n for z in reps):
        raise ValueError("an audit needs endomorphisms of one dimension")
    traces = np.concatenate([np.ravel(nuclear_trace(z)) for z in reps])
    # filled one representation at a time, so only one of their induced stacks is held at once
    bounds = np.cumsum([0] + [math.prod(z.coefficients.shape[:-1]) for z in reps])
    mats = np.empty((bounds[-1], n, n))
    for z, a, b in zip(reps, bounds, bounds[1:]):
        mats[a:b] = induced_matrix(z).reshape(-1, n, n)
    spectra = eigenvalues(mats)
    sums = np.sum(spectra, axis=-1)
    defects = _modulus(traces - sums)
    fro = _frobenius(mats)
    return TraceAudit(
        nuclear_trace=traces,
        spectral_sum=sums,
        defect=defects,
        eigen_l1=np.sum(np.abs(spectra), axis=-1),
        frobenius=fro,
        passed=defects <= _DEFECT_RULE * fro,
        matrices=mats,
        spectra=spectra,
    )


@dataclass(frozen=True)
class SimilarityReport:
    """Spectrum comparison of the two products of a composable pair."""

    dim_ab: int
    dim_ba: int
    matched: bool
    max_mismatch: float


def similarity_spectrum_check(A, B) -> SimilarityReport:
    """Check that AB and BA share their nonzero spectrum, for arrays A (m, n) and B (n, m).

    The smaller spectrum is padded with exact zeros before greedy
    matching, so rectangular pairs compare cleanly without a zero
    threshold.  The floor is 1e-8 ||A||_F ||B||_F, which bounds both spectra,
    so it scales with the pair; each Frobenius norm is taken at the scale
    of the matrix's largest entry, finite for every finite matrix.  NaN or
    infinite entries are refused.
    """
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    if A.ndim != 2 or A.shape != B.shape[::-1]:
        raise ValueError("pair must be an (m, n) and an (n, m) matrix, composable both ways")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        raise ValueError("pair entries must be finite")
    ab, ba = A @ B, B @ A
    floor = 1e-8 * float(_frobenius(A)) * float(_frobenius(B))
    matched, worst = match_spectra(eigenvalues(ab), eigenvalues(ba), abs_floor=floor)
    return SimilarityReport(dim_ab=ab.shape[0], dim_ba=ba.shape[0], matched=matched, max_mismatch=worst)


@dataclass(frozen=True)
class NilpotentReport:
    """Zero-trace and zero-spectrum check for square-zero matrices."""

    applied: bool
    square_norm: float
    trace: float
    max_modulus: float
    passed: bool | None
    note: str


def _exact_square(mat: np.ndarray) -> tuple[bool, float]:
    """Whether mat @ mat has a nonzero entry, and its Frobenius norm.

    Every finite double is an integer below 2^53 times 2^(e - 53), so mat
    is 2^(low - 53) times an integer matrix, low the least frexp exponent
    of its entries.  That matrix is squared in Python integers, which
    decides the zero test with nothing rounded; only the norm is rounded,
    taken at the scale of the largest entry of the square and reading inf
    beyond the double range.
    """
    mant, exps = np.frexp(mat)
    low = int(np.min(exps, initial=0))
    ints = np.ldexp(mant, 53).astype(np.int64).astype(object) << (exps - low).astype(object)
    square = ints @ ints
    top = max((abs(s).bit_length() for s in square.flat), default=0)
    if top == 0:
        return False, 0.0
    unit = np.array([s / (1 << top) for s in square.flat])
    with np.errstate(over="ignore"):
        return True, float(np.ldexp(_frobenius(unit.reshape(square.shape)), top + 2 * (low - 53)))


def nilpotent_check(A) -> NilpotentReport:
    """Verify spectrum and trace vanish when A squares to zero.

    Matrices whose square has a nonzero entry are skipped rather than
    failed, even where ||A^2||_F underflows to 0; the check only speaks
    about genuinely 2-nilpotent input, and refuses NaN or infinite
    entries.  Both tests are relative to ||A||_F, with no absolute floor:
    |trace| at most n eps ||A||_F, and every computed eigenvalue modulus
    at most n sqrt(eps) ||A||_F, the rounding of a defective zero
    eigenvalue.

    Whether A^2 is zero is decided exactly, in integers (see
    `_exact_square`), so no overflow, underflow or rounding of the square
    can turn a nonzero entry into zero or the reverse.  The trace and
    ||A||_F are taken at `spaces.unit_scale`, so large entries do not
    overflow before they cancel.
    """
    mat = _as_square(A)
    nonzero, sq_norm = _exact_square(mat)
    scale = float(_frobenius(mat))
    unit, exp = unit_scale(mat, axis=None)
    with np.errstate(over="ignore"):  # a trace beyond the double range reads inf
        tr = np.ldexp(np.trace(unit), exp).item()
    if nonzero:
        return NilpotentReport(applied=False, square_norm=sq_norm, trace=tr, max_modulus=float("nan"),
                               passed=None, note="not 2-nilpotent, skipped")
    max_mod = float(np.max(np.abs(eigenvalues(mat)), initial=0.0))
    n, eps = mat.shape[0], np.finfo(float).eps
    passed = bool(abs(tr) <= n * eps * scale and max_mod <= n * math.sqrt(eps) * scale)
    return NilpotentReport(applied=True, square_norm=sq_norm, trace=tr, max_modulus=max_mod,
                           passed=passed, note="2-nilpotent")


def trace_formula_exponent(p: float) -> float:
    """The summability exponent 1 / (1 + |1/2 - 1/p|) attached to l_p."""
    return 1.0 / (1.0 + projection_growth_exponent(p))
