"""Seeded experiment runners behind the command line interface.

Each subcommand draws its inputs trial by trial: trial t draws the
pcg64 stream of ``np.random.default_rng(np.random.SeedSequence([seed, t]))``
(PCG64, a permuted congruential generator; the report names it as
``{"name": "pcg64", "version": 1}``).  Trials go to their runner in
bounded runs; the seeds of a run are hashed in one array pass and its
generators built together, so reports are reproducible for a fixed
config and seed.
"""
from __future__ import annotations

import functools
import io
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable, NamedTuple

import numpy as np

from .approximation import build_approximant
from .nuclear import NuclearIndex, Representation, quasi_norm
from .sequences import (
    LorentzIndex,
    Padded,
    factor_l1_lorentz,
    holder_product_bound,
    lorentz_quasi_norm,
    sharpness_witness,
)
from .spaces import AmbientSpace, Vector, lp_norm, unit_scale
from .spectral import (
    audit_trace_formula,
    characteristic_roots,
    match_spectra,
    similarity_spectrum_check,
    trace_formula_exponent,
)
from .tolerances import REL_TOL

__all__ = ["ExperimentConfig", "RunReport", "run", "COMMANDS", "FIELDS"]

RNG_NAME = "pcg64"
RNG_CONTRACT_VERSION = 1

_HOLDER_S_GRID = (0.5, 2.0 / 3.0, 0.9, 1.0)
_ORACLE_CROSS_CHECK_DIM = 6
_PROBE_GROWTH = 1.05
# entries of the stacks one run of trials draws; bounds a run's memory at any trial count
_STACK_ENTRIES = 1 << 20
# most trials in one run, a power of two: 8 uint32 hash words and a 1 KB generator each
_RUN_TRIALS = 4096
# NumPy's SeedSequence hash constants (NEP 19 keeps its output stable), pool size 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4


def parse_exponent(x) -> float:
    """A number, or a string naming one; "inf", "infinity" and "oo" mean inf.

    Anything else, a bool included, raises ValueError.
    """
    return _entry("exponent", "exponent", x)


def _entry(name: str, kind: str, x):
    """`x` checked as an "int", a finite "number" or an "exponent"; bools are neither.

    It comes back a built-in int or float (an exponent always a float).
    """
    if kind == "exponent" and isinstance(x, str):
        return math.inf if x.strip().lower() in ("inf", "infinity", "oo") else float(x)
    types = (int, np.integer) if kind == "int" else (int, float, np.integer, np.floating)
    if isinstance(x, bool) or not isinstance(x, types):
        raise ValueError(f"{name} must be {'an integer' if kind == 'int' else 'a number'}, not {x!r}")
    if kind == "number" and not math.isfinite(x):
        raise ValueError(f"{name} must be finite, not {x!r}")
    return int(x) if kind != "exponent" and isinstance(x, (int, np.integer)) else float(x)


def _checked(name: str, value):
    """`value` of config field `name` checked as its kind in FIELDS says; lists become tuples."""
    kind, bound, _ = FIELDS[name]
    if kind == "choice":
        if value not in bound:
            raise ValueError(f"{name} must be one of {', '.join(bound)}")
        return value
    many = kind in ("ints", "exponents")
    if many and not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list")
    if many and len(value) == 0:
        raise ValueError(f"{name} must be a nonempty list")
    entries = tuple(_entry(name, kind[:-1] if many else kind, x) for x in (value if many else [value]))
    if bound is not None and not all(x >= bound for x in entries):
        raise ValueError(f"{name} must be {'a list of values ' if many else ''}at least {bound}")
    return entries if many else entries[0]


def _field(default, kind: str, bound, help: str):
    """A config field with its default, and its kind, bound and flag help as metadata.

    A kind is "int", "number" (finite), "exponent" (inf allowed, or a
    string naming one as parse_exponent reads it), "ints" or "exponents"
    (lists of those), or "choice".  A list is never empty.  The bound is
    the least value of an int or of a list's entries; a choice's bound is
    its options.  Only a field whose default is None may be None.
    """
    return field(default=default, metadata={"kind": kind, "bound": bound, "help": help})


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs steering one experiment run.

    Each field is checked as its `_field` declaration says, lists stored
    as tuples and exponents as floats; a field the subcommand's row in
    `COMMANDS` does not read must keep its default, ``a`` and ``b`` go
    together, and ``beta_min`` is at most ``beta_max``.  A bad value
    raises ValueError naming its field.  The report echoes every field.
    """

    subcommand: str
    seed: int = _field(0, "int", 0, "Base RNG seed.")
    trials: int = _field(1, "int", 1, "Number of seeded trials.")
    dims: tuple[int, ...] = _field((8,), "ints", 1, "Comma separated dimensions, e.g. 4,8,16.")
    p: tuple[float, ...] = _field((2.0,), "exponents", 1.0, "Comma separated exponents, inf allowed, e.g. 1,2,inf.")
    s: float | None = _field(None, "number", None, "Summability exponent.")
    r: float | None = _field(None, "number", None, "Lorentz index r.")
    w: float | None = _field(None, "exponent", None, "Lorentz index w, inf allowed.")
    alpha: float | None = _field(None, "number", None, "Projection growth exponent in [0, 1/2].")
    epsilon: float = _field(0.1, "number", None, "Target sup error.")
    beta: float | None = _field(None, "number", None, "Decay exponent; unset, the subcommand's default or a seeded draw.")
    beta_min: float = _field(1.6, "number", None, "Least decay exponent drawn when beta is unset.")
    beta_max: float = _field(3.0, "number", None, "Largest decay exponent drawn when beta is unset.")
    length: int = _field(64, "int", 1, "Sequence length per draw (holder: the largest).")
    truncation: int = _field(4096, "int", 1, "Sequence length.")
    gamma: float | None = _field(None, "number", None, "Envelope exponent for the weak factor.")
    profile: str = _field("coordinate", "choice", ("coordinate", "random"),
                          "Deterministic coordinate family or seeded random directions.")
    a: tuple[float, ...] | None = _field(None, "exponents", None, "Fixed left sequence, comma separated; needs --b.")
    b: tuple[float, ...] | None = _field(None, "exponents", None, "Fixed right sequence, comma separated; needs --a.")

    def __post_init__(self):
        if self.subcommand not in COMMANDS:
            raise ValueError(f"unknown subcommand {self.subcommand!r}")
        row = COMMANDS[self.subcommand]
        for f in fields(self)[1:]:  # every field after subcommand
            value = getattr(self, f.name)
            if value is not None or f.default is not None:
                value = _checked(f.name, value)
                object.__setattr__(self, f.name, value)
            if f.name not in row.fields and value != f.default:
                raise ValueError(f"{self.subcommand} does not read {f.name}")
            if f.name in row.one_value and len(value) != 1:
                raise ValueError(f"{self.subcommand} takes exactly one value of {f.name}")
        if (self.a is None) != (self.b is None):
            raise ValueError("a and b must be given together")
        if self.beta_min > self.beta_max:
            raise ValueError("beta_min must be at most beta_max")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown config fields: {', '.join(unknown)}")
        return cls(**data)

    def to_dict(self) -> dict:
        return asdict(self)


# config field -> (kind, bound, flag help), in declaration order; see _field
FIELDS: dict[str, tuple[str, Any, str]] = {
    f.name: (f.metadata["kind"], f.metadata["bound"], f.metadata["help"]) for f in fields(ExperimentConfig)[1:]
}


def _jsonable(obj):
    """Recursively convert report values to deterministic JSON-safe types.

    Reports hold built-in values only (the config converts its numpy
    scalars, runners call tolist()).  Non-finite floats become "inf",
    "-inf" and "nan", complex numbers [real, imag] pairs; any other type
    raises TypeError.
    """
    kind = type(obj)
    if kind is float:
        return obj if math.isfinite(obj) else str(obj)
    if kind is int or kind is bool or kind is str or obj is None:
        return obj
    if kind is complex:
        return [_jsonable(obj.real), _jsonable(obj.imag)]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    raise TypeError(f"a report holds no {kind.__name__} value")


def _compact_json(obj) -> str:
    """One line, sorted keys, no spaces: the C encoder's fast path."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class RunReport:
    """One experiment's deterministic body plus wall time."""

    subcommand: str
    config: dict
    records: list[dict] = field(repr=False)
    aggregate: dict
    wall_time_s: float

    def body(self) -> dict:
        return _jsonable(
            {
                "subcommand": self.subcommand,
                "config": self.config,
                "records": self.records,
                "aggregate": self.aggregate,
            }
        )

    def body_text(self) -> str:
        return _compact_json(self.body())

    def to_json_text(self) -> str:
        """The body plus ``wall_time_s``, as one line in `body_text`'s layout."""
        full = self.body()
        full["wall_time_s"] = self.wall_time_s
        return _compact_json(full)

    def to_csv_text(self) -> str:
        records = [_jsonable(r) for r in self.records]
        keys = sorted({k for r in records for k in r})
        buf = io.StringIO()
        buf.write(",".join(keys) + "\n")
        for r in records:
            cells = []
            for k in keys:
                v = r.get(k, "")
                if isinstance(v, (dict, list)):
                    cells.append('"' + json.dumps(v, sort_keys=True).replace('"', '""') + '"')
                else:
                    cells.append(str(v))
            buf.write(",".join(cells) + "\n")
        return buf.getvalue()

    @property
    def failed(self) -> bool:
        return self.aggregate.get("fail_count", 0) > 0


def _words32(n: int) -> list[int]:
    """The little-endian 32-bit words of an int n >= 0, as SeedSequence reads it; 0 is one word."""
    words = [n & 0xFFFFFFFF]
    while n := n >> 32:
        words.append(n & 0xFFFFFFFF)
    return words


@functools.lru_cache
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k < count: a hash's constants in the order it uses them."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    out = np.array(out, dtype=np.uint32)
    out.flags.writeable = False  # shared by every call
    return out


@functools.lru_cache
def _mix_constants(width: int) -> tuple[np.ndarray, np.ndarray]:
    """Xor and multiply constants, shape (width, 4), of the hashmix of entropy word src into pool word d.

    SeedSequence hashes each pool word into every other pool word, then
    each entropy word past the pool into every pool word, in this order,
    after the pool's own 4 hashes.  A pool word's slot for itself is unused.
    """
    number = np.zeros((width, _POOL_SIZE), dtype=int)
    pairs = [(src, d) for src in range(width) for d in range(_POOL_SIZE) if d != src]
    for k, (src, d) in enumerate(pairs, start=_POOL_SIZE):
        number[src, d] = k
    c = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE + len(pairs) + 1)
    out = c[number], c[number + 1]
    for arr in out:
        arr.flags.writeable = False  # shared by every call
    return out


def _seed_states(seed: int, trials: range) -> np.ndarray:
    """Row i is SeedSequence([seed, trials[i]]).generate_state(4, np.uint64).

    NumPy's hash, in uint32 arithmetic over the whole run at once: the
    entropy (the words of seed, then of t) goes into a pool of 4 words,
    the pool mixes with itself and with the entropy past its size, and 8
    output words are hashed from it.  Each source word mixes into all 4
    pool words in one array operation; a pool word then gets its own
    value back, since it does not mix into itself.  Every t must have as
    many words as the first, and lie below 2**64.
    """
    seed_words, t_words = _words32(seed), len(_words32(trials[0]))
    if len(_words32(trials[-1])) != t_words:
        raise ValueError("a run of trials must not mix word counts")
    ts = np.arange(trials.start, trials.stop, trials.step, dtype=np.uint64)
    width = max(_POOL_SIZE, len(seed_words) + t_words)
    entropy = np.zeros((ts.size, width), dtype=np.uint32)  # hashing a missing word hashes 0
    entropy[:, : len(seed_words)] = seed_words
    for k in range(t_words):
        entropy[:, len(seed_words) + k] = ts >> np.uint64(32 * k)  # the cast keeps the low word
    c = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE + 1)
    pool = entropy[:, :_POOL_SIZE] ^ c[:-1]
    pool *= c[1:]
    pool ^= pool >> 16
    cx, cm = _mix_constants(width)
    for src in range(width):
        h = (pool[:, src, None] if src < _POOL_SIZE else entropy[:, src, None]) ^ cx[src]
        h *= cm[src]
        h ^= h >> 16
        mixed = pool * _MIX_MULT_L - h * _MIX_MULT_R
        mixed ^= mixed >> 16
        if src < _POOL_SIZE:
            mixed[:, src] = pool[:, src]
        pool = mixed
    d = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE + 1)
    out = np.concatenate((pool, pool), axis=1) ^ d[:-1]
    out *= d[1:]
    out ^= out >> 16
    # two uint32 words make one uint64 little-endian, as generate_state reads them
    return out.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _hashed_state_type() -> type:
    """The seed sequence that hands PCG64 one trial's hashed state words.

    Defined on first use, since numpy loads numpy.random lazily and
    importing this module should not load it.
    """
    from numpy.random.bit_generator import ISeedSequence

    class HashedState(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, dtype) != (4, np.uint64):
                raise ValueError("a trial's state is 4 uint64 words, for PCG64")
            return self.words

    return HashedState


def _run_generators(seed: int, trials: range) -> list[tuple[int, np.random.Generator]]:
    """(t, default_rng(SeedSequence([seed, t]))) for each t of a run, its seed words hashed in one pass."""
    hashed_state = _hashed_state_type()
    return [(t, np.random.Generator(np.random.PCG64(hashed_state(words))))
            for t, words in zip(trials, _seed_states(seed, trials))]


def _run_holder(cfg: ExperimentConfig, trials: list) -> list[dict]:
    """Check the product bound and its witness on one stack per exponent s.

    Each trial's generator draws its pair as a trial run alone would;
    the pairs go into zero-padded stacks with their stored lengths.  A
    pair whose lhs, rhs or ||a||_1 overflows is decided with a and b each
    at `unit_scale`: both sides are homogeneous in a and in b.  Then one
    witness pass checks every nonzero a of the stack.
    """
    if cfg.a is not None:
        a, b = (np.tile(np.asarray(x, dtype=float), (len(trials), 1)) for x in (cfg.a, cfg.b))
        la, lb = np.full(len(trials), a.shape[1]), np.full(len(trials), b.shape[1])
    else:
        a, b = np.zeros((len(trials), cfg.length)), np.zeros((len(trials), cfg.length))
        la, lb = np.empty(len(trials), dtype=int), np.empty(len(trials), dtype=int)
        for i, (_, rng) in enumerate(trials):
            la[i] = n = rng.integers(1, cfg.length + 1)
            lb[i] = m = rng.integers(1, cfg.length + 1)
            a[i, :n] = rng.standard_normal(n) * float(rng.uniform(0.1, 10.0))
            b[i, :m] = rng.standard_normal(m) * float(rng.uniform(0.1, 10.0))
    exponents = [cfg.s if cfg.s is not None else _HOLDER_S_GRID[t % len(_HOLDER_S_GRID)] for t, _ in trials]
    records = [None] * len(trials)
    for s in sorted(set(exponents)):
        rows = np.flatnonzero(np.equal(exponents, s))
        pa, pb = Padded(a[rows], la[rows]), Padded(b[rows], lb[rows])
        lhs, rhs, ok = holder_product_bound(pa, pb, s)
        l1 = lp_norm(pa.rows, 1.0, axis=-1, lengths=pa.lengths)
        scale_log2 = {}
        over = np.flatnonzero(~(np.isfinite(lhs) & np.isfinite(rhs) & np.isfinite(l1)))
        if over.size:
            (ua, ka), (ub, kb) = unit_scale(pa.rows[over]), unit_scale(pb.rows[over])
            sa, sb = Padded(ua, pa.lengths[over]), Padded(ub, pb.lengths[over])
            lhs[over], rhs[over], ok[over] = holder_product_bound(sa, sb, s)
            l1[over] = lp_norm(sa.rows, 1.0, axis=-1, lengths=sa.lengths)
            pa.rows[over] = sa.rows  # a copy of a[rows]: the witness pass takes a at this scale
            scale_log2 = dict(zip(rows[over].tolist(), np.concatenate([ka, kb], axis=-1).tolist()))
        gap = np.full(rows.size, math.nan)  # nan marks a zero a
        nonzero = np.flatnonzero(np.any(pa.rows != 0.0, axis=-1))
        if nonzero.size:
            sub = Padded(pa.rows[nonzero], pa.lengths[nonzero])
            # the bits of holder_product_bound's lhs against the witness
            wl = lp_norm(sub.rows * sharpness_witness(sub, s), s, axis=-1, lengths=sub.lengths)
            gap[nonzero] = np.abs(wl - l1[nonzero])
            ok[nonzero] &= gap[nonzero] <= REL_TOL * l1[nonzero]
        for row, lhs_i, rhs_i, gap_i, ok_i in zip(rows.tolist(), lhs.tolist(), rhs.tolist(), gap.tolist(), ok.tolist()):
            rec = {
                "trial": trials[row][0],
                "s": s,
                "lhs": lhs_i,
                "rhs": rhs_i,
                "defect": rhs_i - lhs_i,
                "witness_gap": None if math.isnan(gap_i) else gap_i,
                "pass": ok_i,
            }
            if row in scale_log2:
                rec["scale_log2"] = scale_log2[row]
            if not ok_i:
                rec["a"] = a[row, : la[row]].tolist()
                rec["b"] = b[row, : lb[row]].tolist()
            records[row] = rec
    return records


def _run_lorentz(cfg: ExperimentConfig, trials: list) -> list[dict]:
    """Check rearrangement invariance and homogeneity on three stacked calls."""
    r = cfg.r if cfg.r is not None else 0.5
    w = cfg.w if cfg.w is not None else math.inf
    NuclearIndex.lorentz(r, w)  # admissibility gate, rejects r = 1 with w > 1
    if _power_overflows(cfg.length, 1.0 / r - 1.0 / w):  # the largest weight would make every norm inf
        raise ValueError(f"r = {r} is too small for length {cfg.length}: the Lorentz weights overflow")
    index = LorentzIndex(r, w)
    a = np.empty((len(trials), cfg.length))
    perm = np.empty((len(trials), cfg.length), dtype=int)
    c = np.empty(len(trials))
    for i, (_, rng) in enumerate(trials):
        a[i] = rng.standard_normal(cfg.length)
        perm[i] = rng.permutation(cfg.length)
        c[i] = rng.uniform(0.1, 10.0)
    norm = lorentz_quasi_norm(a, index)
    norm_perm = lorentz_quasi_norm(np.take_along_axis(a, perm, axis=-1), index)
    norm_scaled = lorentz_quasi_norm(c[:, None] * a, index)
    invariant = np.abs(norm - norm_perm) <= REL_TOL * norm
    homogeneous = np.abs(norm_scaled - c * norm) <= REL_TOL * (c * norm)
    records = []
    for i, ((t, _), value, inv, hom) in enumerate(zip(trials, norm.tolist(), invariant.tolist(), homogeneous.tolist())):
        rec = {
            "trial": t,
            "r": r,
            "w": w,
            "norm": value,
            "rearrangement_invariant": inv,
            "homogeneous": hom,
            "pass": inv and hom,
        }
        if not rec["pass"]:
            rec["a"] = a[i].tolist()
        records.append(rec)
    return records


def _run_factorize(cfg: ExperimentConfig, trial: int, rng) -> list[dict]:
    beta = cfg.beta if cfg.beta is not None else float(
        rng.uniform(cfg.beta_min, cfg.beta_max)
    )
    _refuse_overflowing_decay(beta, cfg.truncation)
    s = cfg.s if cfg.s is not None else 2.0 / 3.0
    k = np.arange(1, cfg.truncation + 1, dtype=float)
    d = k ** (-beta)
    alpha, weak, cert = factor_l1_lorentz(d, s, gamma=cfg.gamma)
    exact = bool(np.all(alpha * weak == d))
    # below 4 entries the quarter point is the first entry: no decay to check
    decayed = cfg.truncation < 4 or cert.final_to_quarter_ratio <= 0.5
    ok = exact and cert.non_increasing and decayed  # non_increasing covers the half tail reported below
    rec = {
        "trial": trial,
        "beta": beta,
        "s": s,
        "l1_alpha": cert.l1_alpha,
        "final_to_quarter_ratio": cert.final_to_quarter_ratio,
        "exact_reconstruction": exact,
        "tail_non_increasing": bool(np.all(np.diff(cert.weighted_tail[cfg.truncation // 2 :]) <= 0.0)),
        "pass": bool(ok),
    }
    return [rec]


def _draw_stacks(rngs: list, n: int, ps: tuple[float, ...]) -> list[Representation]:
    """trace-audit's representations at dimension n: one stack over the trials per exponent.

    Each trial's generator draws one representation per exponent in turn:
    its coefficients, then F, then X.  The coefficients are one
    ``random(out=...)`` call into their (|ps|, trials, n) array, with the
    bits of ``uniform(0, 1, n)``; F and X are one ``standard_normal(out=...)``
    call into their (2, n, n) slot of the (|ps|, trials, 2, n, n) atoms,
    which fills F and then X as two (n, n) calls do.  The whole coefficient
    array is then sorted in place along its last axis, once, and taken
    in reverse, non-increasing.
    """
    lam = np.empty((len(ps), len(rngs), n))
    atoms = np.empty((len(ps), len(rngs), 2, n, n))
    for t, rng in enumerate(rngs):
        for j in range(len(ps)):
            rng.random(out=lam[j, t])
            rng.standard_normal(out=atoms[j, t])
    lam.sort(axis=-1)
    reps = []
    for j, p in enumerate(ps):
        # a Representation copies its arrays into C order
        space = AmbientSpace(n, p)
        reps.append(Representation(lam[j, :, ::-1], atoms[j, :, 0], atoms[j, :, 1], space, space))
    return reps


def _run_trace_audit(cfg: ExperimentConfig, trials: list) -> list[dict]:
    """Audit each entry of dims as one stack over the trials and exponents.

    Each trial's generator draws in the order dims, then p, however the
    trials interleave, so drawing one entry of dims for every trial at a
    time gives each trial the draws of running it alone.
    """
    exponents = [cfg.s if cfg.s is not None else trace_formula_exponent(p) for p in cfg.p]
    indices = [NuclearIndex.absolutely_summable(s) for s in exponents]
    per_trial: list[list[dict]] = [[] for _ in trials]
    for n in cfg.dims:
        reps = _draw_stacks([rng for _, rng in trials], n, cfg.p)
        quasi_norms = np.concatenate([np.ravel(quasi_norm(z, index)) for z, index in zip(reps, indices)])
        audit = audit_trace_formula(reps)
        del reps  # the draws go before the oracle and the records, so the next entry of dims reuses their pages
        matched, gaps = [True] * len(audit.passed), [None] * len(audit.passed)
        if n <= _ORACLE_CROSS_CHECK_DIM:
            ok, worst = match_spectra(audit.spectra, characteristic_roots(audit.matrices),
                                      rel=1e-7, abs_floor=1e-7 * audit.frobenius)
            matched, gaps = ok.tolist(), worst.tolist()
        columns = zip(audit.nuclear_trace.tolist(), audit.spectral_sum.tolist(), audit.defect.tolist(),
                      audit.eigen_l1.tolist(), quasi_norms.tolist(), audit.frobenius.tolist(),
                      audit.passed.tolist(), matched, gaps)
        # rows run over exponents, then trials
        for i, (tr, ssum, defect, l1, qn, fro, passed, agrees, gap) in enumerate(columns):
            j, row = divmod(i, len(trials))
            per_trial[row].append({
                "trial": trials[row][0],
                "n": n,
                "p": cfg.p[j],
                "s": exponents[j],
                "nuclear_trace": tr,
                "spectral_sum": ssum,
                "defect": defect,
                "eigen_l1": l1,
                "quasi_norm": qn,
                "ratio": None if qn == 0.0 else l1 / qn,
                "frobenius": fro,
                "oracle_gap": gap,
                "pass": passed and agrees,
            })
    return [rec for recs in per_trial for rec in recs]


def _power_overflows(n: int, x: float) -> bool:
    """Whether n**x, the largest of k**x over 1 <= k <= n, leaves the double range, by Python's float power."""
    try:
        return not math.isfinite(float(n) ** x)
    except OverflowError:
        return True


def _refuse_overflowing_decay(beta: float, n: int) -> None:
    """Refuse a beta at which the largest of k**-beta over k <= n leaves the double range."""
    if _power_overflows(n, -beta):
        raise ValueError(f"beta = {beta} is too small for dimension {n}: n**-beta overflows")


def _run_eigen_type(cfg: ExperimentConfig, trial: int, rng) -> list[dict]:
    """Audit the diagonal family lam_k = k**-beta at each entry of dims and call the ratio trend.

    The coefficients go in non-increasing order, so every sum over atoms
    runs from the largest, also at a negative beta, where k**-beta rises.
    One coefficient is 1, so no quasi-norm vanishes.  The verdict
    is BOUNDED when the second half of the sweep's largest ratio of
    eigenvalue mass to quasi-norm is at most _PROBE_GROWTH times the
    first half's largest, UNBOUNDED otherwise.
    """
    p = cfg.p[0]
    s = cfg.s if cfg.s is not None else trace_formula_exponent(p)
    beta = cfg.beta if cfg.beta is not None else 1.5
    _refuse_overflowing_decay(beta, max(cfg.dims))
    index = NuclearIndex.absolutely_summable(s)
    records = []
    for n in cfg.dims:
        space = AmbientSpace(n, p)
        lam = np.sort(np.arange(1, n + 1, dtype=float) ** (-beta))[::-1]
        eye = np.eye(n)
        z = Representation(lam, eye, eye, space, space)
        l1, qn = audit_trace_formula(z).eigen_l1.item(), quasi_norm(z, index)
        records.append({"trial": trial, "n": n, "p": p, "s": s, "beta": beta,
                        "eigen_l1": l1, "quasi_norm": qn, "ratio": l1 / qn})
    ratios = [rec["ratio"] for rec in records]
    split = (len(ratios) + 1) // 2
    bounded = split == len(ratios) or max(ratios[split:]) <= _PROBE_GROWTH * max(ratios[:split])
    verdict = "BOUNDED" if bounded else "UNBOUNDED"
    return [{**rec, "verdict": verdict, "pass": bounded} for rec in records]


def _run_approx(cfg: ExperimentConfig, trial: int, rng) -> list[dict]:
    dim = cfg.dims[0]
    p = cfg.p[0]
    space = AmbientSpace(dim, p)
    alpha = cfg.alpha if cfg.alpha is not None else 0.5
    beta = cfg.beta
    if beta is None:
        beta = 1.0 if cfg.profile == "coordinate" else float(rng.uniform(0.75, 2.5))
    _refuse_overflowing_decay(beta, dim)
    scales = np.array([float(n) ** (-beta) for n in range(1, dim + 1)])
    if cfg.profile == "coordinate":
        X = np.diag(scales)
    else:
        G = rng.standard_normal((dim, dim))
        X = scales[:, None] * (G / lp_norm(G, p, axis=-1)[:, None])
    xs = [Vector(x, space) for x in X]
    _, cert = build_approximant(xs, cfg.epsilon, space, alpha)
    ok = (not cert.guarantee_regime) or cert.sup_error <= cfg.epsilon * (1.0 + REL_TOL)
    rec = {
        "trial": trial,
        "profile": cfg.profile,
        "beta": beta,
        "dim": dim,
        "p": p,
        "alpha": alpha,
        "epsilon": cfg.epsilon,
        "cutoff": cert.cutoff,
        "rank": cert.rank,
        "projection_lower": cert.projection_norm_bracket.lower,
        "projection_upper": cert.projection_norm_bracket.upper,
        "sup_error": cert.sup_error,
        "guarantee_regime": cert.guarantee_regime,
        "pass": bool(ok),
    }
    return [rec]


def _run_similarity(cfg: ExperimentConfig, trial: int, rng) -> list[dict]:
    max_dim = max(cfg.dims)
    if max_dim < 2:
        raise ValueError("similarity needs a dimension of at least 2")
    m = int(rng.integers(2, max_dim + 1))
    n = int(rng.integers(2, max_dim + 1))
    A = rng.standard_normal((m, n))
    B = rng.standard_normal((n, m))
    report = similarity_spectrum_check(A, B)
    rec = {
        "trial": trial,
        "dim_ab": report.dim_ab,
        "dim_ba": report.dim_ba,
        "max_mismatch": report.max_mismatch,
        "pass": bool(report.matched),
    }
    if not report.matched:
        rec["A"] = A.tolist()
        rec["B"] = B.tolist()
    return [rec]


def _per_trial(runner: Callable[[ExperimentConfig, int, Any], list[dict]]):
    """A runner of a run of trials from one of a single trial, called trial by trial."""

    def run_trials(cfg: ExperimentConfig, trials: list) -> list[dict]:
        return [rec for t, rng in trials for rec in runner(cfg, t, rng)]

    return run_trials


class Subcommand(NamedTuple):
    """A row of COMMANDS: a runner of the config and a run of (trial, generator) pairs, the fields it reads."""

    help: str
    runner: Callable[[ExperimentConfig, list], list[dict]]
    fields: tuple[str, ...]
    one_value: tuple[str, ...] = ()  # list fields the runner reads one entry of
    # stack entries one trial adds; a per-trial row stacks nothing, so it counts one
    entries: Callable[[ExperimentConfig], int] = lambda cfg: 1


COMMANDS: dict[str, Subcommand] = {
    "holder": Subcommand("Product bound against l_1, with sharpness witnesses.", _run_holder,
                         ("seed", "trials", "s", "length", "a", "b"),
                         entries=lambda cfg: cfg.length if cfg.a is None else max(len(cfg.a), len(cfg.b))),
    "lorentz": Subcommand("Lorentz quasi-norm sanity checks on random sequences.", _run_lorentz,
                          ("seed", "trials", "r", "w", "length"), entries=lambda cfg: cfg.length),
    "factorize": Subcommand("Exact l_1 times weak-tail splits of power-decay sequences.", _per_trial(_run_factorize),
                            ("seed", "trials", "s", "beta", "beta_min", "beta_max", "truncation", "gamma")),
    "trace-audit": Subcommand("Nuclear trace versus eigenvalue sum on random representations.", _run_trace_audit,
                              ("seed", "trials", "dims", "p", "s"),
                              entries=lambda cfg: len(cfg.p) * max(n + 2 * n * n for n in cfg.dims)),
    # a deterministic family: one trial tells the whole story, and it draws nothing from the seed
    "eigen-type": Subcommand("Ratio sweep of eigenvalue mass against the quasi-norm.", _per_trial(_run_eigen_type),
                             ("dims", "p", "s", "beta"), one_value=("p",)),
    "approx": Subcommand("Finite-rank approximation certificates for decaying systems.", _per_trial(_run_approx),
                         ("seed", "trials", "dims", "p", "epsilon", "alpha", "beta", "profile"), one_value=("dims", "p")),
    "similarity": Subcommand("Nonzero spectrum of AB against BA for random rectangular pairs.", _per_trial(_run_similarity),
                             ("seed", "trials", "dims")),
}


def run(config: ExperimentConfig) -> RunReport:
    """Execute all trials of a subcommand and assemble the report.

    Trials are independent: trial t draws the stream of
    ``default_rng(SeedSequence([seed, t]))``, so the report body is
    byte-identical across repeat runs.  The runner gets these (t, generator)
    pairs a run at a time, each run's seeds hashed in one pass.  A run's
    size is the largest power of two at most _RUN_TRIALS and
    _STACK_ENTRIES // entries(config) (at least 1), so its stacks stay
    small at any trial count; runs start at its multiples, so none holds
    two word counts of t.  Rows are independent, so a record does not
    depend on the run it falls in.
    """
    row = COMMANDS[config.subcommand]
    start = time.perf_counter()
    size = 1 << (min(_RUN_TRIALS, max(1, _STACK_ENTRIES // row.entries(config))).bit_length() - 1)
    runs = (range(t, min(t + size, config.trials)) for t in range(0, config.trials, size))
    records = [rec for trials in runs for rec in row.runner(config, _run_generators(config.seed, trials))]

    pass_count = sum(1 for r in records if r.get("pass"))
    fail_count = len(records) - pass_count
    aggregate: dict[str, Any] = {
        "trials": config.trials,
        "records": len(records),
        "pass_count": pass_count,
        "fail_count": fail_count,
        "rng": {"name": RNG_NAME, "version": RNG_CONTRACT_VERSION},
    }
    defects = [r["defect"] for r in records if r.get("defect") is not None]
    if defects:
        aggregate["max_defect"] = max(abs(d) for d in defects)
    ratios = [r["ratio"] for r in records if r.get("ratio") is not None]
    if ratios:
        aggregate["max_ratio"] = max(ratios)
    if "verdict" in records[0]:
        # only eigen-type records carry one, and its single trial gives them all the same
        aggregate["verdict"] = records[0]["verdict"]
    wall = time.perf_counter() - start
    return RunReport(
        subcommand=config.subcommand,
        config=config.to_dict(),
        records=records,
        aggregate=aggregate,
        wall_time_s=wall,
    )
