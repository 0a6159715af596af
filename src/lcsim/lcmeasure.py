"""Finite local-causal measures: a source matrix plus one positive apparatus
kernel per side.

The induced joint measure on S1 × S2 × M1 × M2 factorizes as

    P(s1, s2, λ1, λ2) = PS[s1, s2] * K1[s1, λ1] * K2[s2, λ2]

and all structure lives in that split. Kernel rows are positive measures, not
necessarily normalized; their row masses p1, p2 decide triviality. A measure
is trivial when p1(s1) * p2(s2) = 1 across the support of the source, and
trivial measures cannot push the CHSH functional past 2. Row-stochastic local
transport leaves the row masses untouched, which is why it preserves
triviality, and why permutations (stochastic with stochastic inverses)
preserve nontriviality as well.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .circle import TWO_PI, integer, on_side, real, reals, spin_values
from .models import TSIRELSON_SETTINGS, chsh, chsh_pairs

#: Source entries above this mass threshold count as support.
SUPPORT_EPS = 1e-12

#: Tolerance of the triviality classification.
TRIVIAL_TOL = 1e-9

#: Tolerance on a source's unit mass.
UNIT_TOL = 1e-9

#: Most source entries that :func:`_deviation` reads at once (512 KB: a
#: grid-2048 source needs no grid × grid temporary), and most entries of one
#: block of :func:`random_trivial_sweep` (13 families of 64 × 64).
TRIVIAL_BLOCK = 2**16

#: How far above the classical bound 2 a sweep's CHSH value must read to
#: count as a violation.
VIOLATION_TOL = 1e-9

#: Largest grid of :func:`cosine_diagonal_measure`. Its source is a dense
#: grid × grid matrix in memory, and each command holds one at a time, so
#: memory grows as grid²: at grid 2048 `lcsim cosine-measure` and `lcsim
#: trivial --measure` on its file peak near 67 and 68 MB (child VmHWM); their
#: excess over a bare import's 30 MB grows roughly fourfold per doubling. The
#: file holds only the source's support.
#: Its kernels, and every matrix of a measure file that
#: :func:`measure_from_dict` reads, hold at most MAX_COSINE_GRID² entries too.
MAX_COSINE_GRID = 4096

#: Most entries of each random matrix: the n1 × n2 source and the n1 × m1 and
#: n2 × m2 kernels. A family's four members share one read-only source, and
#: :func:`random_trivial_sweep` holds the kernels of one family at a time,
#: reducing each to its row masses as it is drawn: at the source cap, `lcsim
#: trivial --random 2 --n1 2048 --n2 2048` peaks about 41 MB above a bare
#: import (child VmHWM), and at the kernel cap a family's kernels alone are
#: 256 MB.
MAX_RANDOM_ENTRIES = 2**22


def _check_matrix(name: str, arr: np.ndarray) -> None:
    """ValueError unless the float array `arr` is a matrix with finite,
    nonnegative entries."""
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValueError(f"{name} must be finite and nonnegative")


def _check_entries(cap: int, **shapes: tuple[int, int]) -> None:
    """ValueError, before anything is allocated, unless each named (rows,
    cols) shape of Python ints holds at most `cap` entries."""
    for name, (rows, cols) in shapes.items():
        if rows * cols > cap:
            raise ValueError(
                f"{name} of {rows} × {cols} = {rows * cols} entries is too large to allocate (at most {cap})"
            )


def _check_measure(PS: np.ndarray, K1: np.ndarray, K2: np.ndarray) -> None:
    """ValueError unless the float arrays PS, K1 and K2 make a
    :class:`DiscreteLCMeasure`: finite nonnegative matrices, kernel rows
    matching the source sides, a unit-mass source, and kernels that pass
    :func:`_check_kernels`."""
    for name, arr in (("PS", PS), ("K1", K1), ("K2", K2)):
        _check_matrix(name, arr)
    if K1.shape[0] != PS.shape[0] or K2.shape[0] != PS.shape[1]:
        raise ValueError(
            f"kernel rows must match the source sides: PS {PS.shape}, "
            f"K1 {K1.shape}, K2 {K2.shape}"
        )
    with np.errstate(over="ignore"):
        total = float(PS.sum())
    if abs(total - 1.0) > UNIT_TOL:
        raise ValueError(f"source matrix must sum to 1, got {total!r}")
    _check_kernels(K1, K2)


def _check_kernels(K1: np.ndarray, K2: np.ndarray) -> None:
    """ValueError unless the nonnegative kernels K1 and K2, each of one row
    or more, have finite row masses p1 and p2 and a finite max(p1)·max(p2):
    then their entries are finite, and so is every functional of a measure
    on a unit-mass source, each bounded by that product."""
    with np.errstate(over="ignore"):
        p1, p2 = K1.sum(axis=1), K2.sum(axis=1)
    for name, p in (("K1", p1), ("K2", p2)):
        if not np.isfinite(p).all():
            raise ValueError(f"{name} must be finite and nonnegative, with finite row masses")
    if not math.isfinite(float(p1.max()) * float(p2.max())):
        raise ValueError("the largest row masses of K1 and K2 must have a finite product")


def _freeze(obj, arrays: dict) -> None:
    """Set each of `arrays` on the frozen dataclass `obj`, made read-only in place."""
    for name, arr in arrays.items():
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


def _owned(cls, **arrays):
    """An instance of the frozen dataclass `cls` over arrays that this module
    just built or checked: each is made read-only in place, and neither
    copied nor checked again."""
    obj = object.__new__(cls)
    _freeze(obj, arrays)
    return obj


@dataclass(frozen=True)
class DiscreteLCMeasure:
    """Source matrix PS over S1×S2 and per-side kernels K1, K2 over S→M."""

    PS: np.ndarray
    K1: np.ndarray
    K2: np.ndarray

    def __post_init__(self) -> None:
        arrays = {name: np.array(getattr(self, name), dtype=float) for name in ("PS", "K1", "K2")}
        _check_measure(**arrays)
        _freeze(self, arrays)

    @property
    def n1(self) -> int:
        return self.PS.shape[0]

    @property
    def n2(self) -> int:
        return self.PS.shape[1]

    @property
    def m1(self) -> int:
        return self.K1.shape[1]

    @property
    def m2(self) -> int:
        return self.K2.shape[1]


@dataclass(frozen=True)
class TrivialityVerdict:
    """Outcome of the triviality test.

    c is the common row mass of side 1 when it is constant over the support
    (side 2 then carries 1/c); None when triviality holds pointwise without a
    constant split.
    """

    trivial: bool
    c: float | None
    max_deviation: float


def local_mass_functions(m: DiscreteLCMeasure) -> tuple[np.ndarray, np.ndarray]:
    """Row masses of the kernels: p1(s1) = Σ_λ K1[s1, λ], same on side 2."""
    return m.K1.sum(axis=1), m.K2.sum(axis=1)


# The two kernels of triviality and of the discrete correlation. Leading axes
# are blocks that broadcast together, so a block of measures costs one call;
# every entry is computed as for a single measure, bit for bit.


def _deviation(p1: np.ndarray, p2: np.ndarray, PS: np.ndarray, worst):
    """The largest of `worst` and |p1 ⊗ p2 - 1| where PS exceeds SUPPORT_EPS,
    NaN if any is NaN: p1 (..., n1), p2 (..., n2), PS (..., n1, n2). Rows go
    in blocks of at most TRIVIAL_BLOCK entries of PS, at least one row each;
    the maximum is exact, so it does not depend on the block size."""
    n1 = PS.shape[-2]
    step = max(1, TRIVIAL_BLOCK // (PS.size // n1))
    for start in range(0, n1, step):
        blk = slice(start, start + step)
        dev = p1[..., blk, None] * p2[..., None, :]  # |p1 ⊗ p2 - 1| in place
        dev -= 1.0
        worst = np.max(np.abs(dev, out=dev), where=PS[..., blk, :] > SUPPORT_EPS, initial=worst)
    return worst


def _correlations(w1: np.ndarray, PS: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """w1 @ PS @ w2 over the last axes, w1 (..., n1), PS (..., n1, n2) and
    w2 (..., n2): one vector-matrix product, then one dot product, each."""
    return (w1[..., None, :] @ PS @ w2[..., :, None])[..., 0, 0]


def is_trivial(m: DiscreteLCMeasure) -> TrivialityVerdict:
    """Check p1(s1) * p2(s2) = 1 within TRIVIAL_TOL on the support of the
    source, the entries above SUPPORT_EPS, by :func:`_deviation`."""
    p1, p2 = local_mass_functions(m)
    max_dev = float(_deviation(p1, p2, m.PS, 0.0))
    trivial = max_dev <= TRIVIAL_TOL
    c = None
    if trivial:
        rows = m.PS.max(axis=1) > SUPPORT_EPS  # the rows that meet the support
        vals = p1[rows]
        if vals.size and float(vals.max() - vals.min()) <= TRIVIAL_TOL * max(1.0, float(vals.max())):
            weights = m.PS.sum(axis=1)[rows]
            c = float(np.multiply(vals, weights).sum() / weights.sum())  # np.average's arithmetic
    return TrivialityVerdict(trivial=trivial, c=c, max_deviation=max_dev)


def rescale(m: DiscreteLCMeasure, q1, q2) -> DiscreteLCMeasure:
    """Move positive factors q1 ⊗ q2 from the kernels into the source.

    The induced measure on the full space is unchanged entrywise, but a
    non-constant q1 ⊗ q2 on the support flips a trivial measure to nontrivial.
    """
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    if q1.shape != (m.n1,) or q2.shape != (m.n2,):
        raise ValueError("rescaling vectors must match the source sides")
    if not (np.all(np.isfinite(q1)) and np.all(np.isfinite(q2))):
        raise ValueError("rescaling vectors must be finite")
    if np.any(q1 <= 0.0) or np.any(q2 <= 0.0):
        raise ValueError("rescaling vectors must be strictly positive")
    with np.errstate(over="ignore"):  # an overflowing mass is refused below
        mass = float(q1 @ m.PS @ q2)
    if abs(mass - 1.0) > UNIT_TOL:
        raise ValueError(f"rescaled source must have unit mass, got {mass!r}")
    return DiscreteLCMeasure(
        PS=m.PS * np.outer(q1, q2),
        K1=m.K1 / q1[:, None],
        K2=m.K2 / q2[:, None],
    )


@dataclass(frozen=True)
class LocalMarkovOperator:
    """Positive linear maps acting separately on the one-side spaces
    Ω1 = S1 × M1 and Ω2 = S2 × M2, in one of two forms per side.

    - Dense: a square matrix T[ω, ω']. The constructor takes only this form,
      and copies and checks what it is given.
    - Permutation: an index vector r, standing for T[ω, r[ω]] = 1 and 0
      elsewhere. Only :meth:`random_permutation` makes it; `T.ndim == 1`
      tells it apart.
    """

    T1: np.ndarray
    T2: np.ndarray

    def __post_init__(self) -> None:
        arrays = {name: np.array(getattr(self, name), dtype=float) for name in ("T1", "T2")}
        for name, arr in arrays.items():
            _check_matrix(name, arr)
        for name, arr in arrays.items():
            if arr.shape[0] != arr.shape[1]:
                raise ValueError(f"{name} must be square, got shape {arr.shape}")
        _freeze(self, arrays)

    @classmethod
    def random_stochastic(cls, rng: np.random.Generator, dim1: int, dim2: int) -> "LocalMarkovOperator":
        """Dense T1 and T2 with Dirichlet(1) rows, drawn in that order into
        two read-only views of one block of dim1² + dim2² entries.

        One block rather than two matrices keeps repeated transports off the
        page-fault path. glibc raises its heap trim threshold to twice the
        largest mmapped chunk freed so far, so once one block has been freed
        the heap keeps room for the next one. Two 2 MiB matrices at dimension
        512 raise it only to 4 MiB, which the pair exceeds once both are
        freed: the heap was trimmed after every transport, and the next one
        faulted about 4 MiB back in, some 1,100 minor faults.
        """
        dim1, dim2 = _check_operator_dims(dim1, dim2, dense=True)
        n1 = dim1 * dim1
        block = np.empty(n1 + dim2 * dim2)
        T1 = stochastic_matrix(rng, dim1, dim1, into=block[:n1].reshape(dim1, dim1))
        T2 = stochastic_matrix(rng, dim2, dim2, into=block[n1:].reshape(dim2, dim2))
        block.setflags(write=False)
        return _owned(cls, T1=T1, T2=T2)

    @classmethod
    def random_permutation(cls, rng: np.random.Generator, dim1: int, dim2: int) -> "LocalMarkovOperator":
        dim1, dim2 = _check_operator_dims(dim1, dim2, dense=False)
        return _owned(cls, T1=rng.permutation(dim1), T2=rng.permutation(dim2))


def _check_operator_dims(dim1: int, dim2: int, dense: bool) -> tuple[int, int]:
    """Both dimensions as Python ints; ValueError, before anything is
    allocated or drawn, unless they are nonnegative integers and, for the
    dense form, each dim × dim matrix holds at most MAX_RANDOM_ENTRIES
    entries."""
    dim1, dim2 = integer(dim1, "operator dimension dim1"), integer(dim2, "operator dimension dim2")
    if dense:
        _check_entries(MAX_RANDOM_ENTRIES, T1=(dim1, dim1), T2=(dim2, dim2))
    return dim1, dim2


def _transport_kernel(K: np.ndarray, T: np.ndarray) -> np.ndarray:
    """K'[s, (s', λ')] = Σ_λ K[s, λ] * T[(s, λ), (s', λ')] for a dense T. An
    index vector T puts each K[s, λ] at column T[s·m + λ] instead: every
    entry of the dense sum has at most that one nonzero term, so the two
    agree bit for bit."""
    n, w = K.shape
    if T.ndim == 1:
        out = np.zeros((n, n * w))
        out[np.repeat(np.arange(n), w), T] = K.ravel()
        return out
    return np.einsum("sl,slkm->skm", K, T.reshape(n, w, n, w)).reshape(n, n * w)


def apply_local_markov(m: DiscreteLCMeasure, op: LocalMarkovOperator) -> DiscreteLCMeasure:
    """Transport the measure by the local operator pair.

    The transported functional is again local-causal, with apparatus spaces
    enlarged to the one-side product spaces: the new side-1 kernel over
    S1 × (S1 × M1) is K1'[s, (s', λ')] = Σ_λ K1[s, λ] * T1[(s, λ), (s', λ')],
    and likewise on side 2. The operator index pairs (s, λ) are flattened
    row-major.
    """
    d1 = m.n1 * m.m1
    d2 = m.n2 * m.m2
    # Dense operators are square, so the first axis settles both forms.
    if op.T1.shape[0] != d1 or op.T2.shape[0] != d2:
        raise ValueError(
            f"operator dimensions {op.T1.shape}, {op.T2.shape} do not match "
            f"the one-side spaces ({d1}, {d1}), ({d2}, {d2})"
        )
    # The source is the input's own checked, read-only array. The new kernels
    # are sums of products of finite nonnegative entries, so only overflow
    # can make them invalid.
    K1, K2 = _transport_kernel(m.K1, op.T1), _transport_kernel(m.K2, op.T2)
    _check_kernels(K1, K2)
    return _owned(DiscreteLCMeasure, PS=m.PS, K1=K1, K2=K2)


def discrete_correlation(m: DiscreteLCMeasure, obs1, obs2) -> float:
    """<obs1 ⊗ obs2> under the induced pair measure PS * p1 * p2.

    Observables depend only on the system configurations and must take
    values in [-1, 1].
    """
    obs1 = np.asarray(obs1, dtype=float)
    obs2 = np.asarray(obs2, dtype=float)
    if obs1.shape != (m.n1,) or obs2.shape != (m.n2,):
        raise ValueError("observables must match the source sides")
    if not (np.abs(obs1).max() <= 1.0 + 1e-12 and np.abs(obs2).max() <= 1.0 + 1e-12):  # nan fails too
        raise ValueError("observable entries must lie in [-1, 1]")
    p1, p2 = local_mass_functions(m)
    return float(_correlations(obs1 * p1, m.PS, obs2 * p2))


def chsh_discrete(measures, obs1, obs2) -> float:
    """CHSH functional over a four-setting family sharing one source.

    measures = (m_ab, m_ab2, m_a2b, m_a2b2); obs1 = (o_a, o_a2) and
    obs2 = (o_b, o_b2) are the per-setting observables.
    """
    if len(measures) != 4:
        raise ValueError("a CHSH family has four members")
    for other in measures[1:]:
        if other.PS is not measures[0].PS and not np.array_equal(measures[0].PS, other.PS):
            raise ValueError("family members must share the source matrix")
    (o_a, o_a2), (o_b, o_b2) = obs1, obs2
    pairs = chsh_pairs((o_a, o_a2, o_b, o_b2))
    return chsh(*(discrete_correlation(m, o1, o2) for m, (o1, o2) in zip(measures, pairs)))


# ---------------------------------------------------------------------------
# Random instances


def stochastic_matrix(rng: np.random.Generator, rows: int, cols: int, into: np.ndarray | None = None) -> np.ndarray:
    """Row-stochastic matrix with Dirichlet(1) rows: standard exponential draws over their row sums.

    `into`, a writable C-contiguous float rows × cols array, receives the
    draws in place and is returned; the draws and their bits are the same
    either way."""
    g = rng.standard_exponential(size=(rows, cols), out=into)
    g /= g.sum(axis=1, keepdims=True)
    return g


def _check_random_shape(n1: int, n2: int, m1: int, m2: int) -> tuple[int, int, int, int]:
    """The sizes (n1, n2, m1, m2) as Python ints; ValueError, before anything
    is drawn, unless each is an integer of at least 1 and the source and
    kernels hold at most MAX_RANDOM_ENTRIES entries each."""
    sizes = {"n1": n1, "n2": n2, "m1": m1, "m2": m2}
    n1, n2, m1, m2 = (integer(size, f"random measure size {name}", 1) for name, size in sizes.items())
    _check_entries(MAX_RANDOM_ENTRIES, PS=(n1, n2), K1=(n1, m1), K2=(n2, m2))
    return n1, n2, m1, m2


def random_source(rng: np.random.Generator, n1: int, n2: int) -> np.ndarray:
    """Dirichlet(1) source: standard exponential draws over their sum, the
    same bits and generator state as ``rng.gamma(1.0, size=(n1, n2))``."""
    g = rng.standard_exponential(size=(n1, n2))
    g /= g.sum()
    return g


def _trivial_member(rng: np.random.Generator, source, n1: int, n2: int, m1: int, m2: int) -> DiscreteLCMeasure:
    """A measure with row masses c on side 1 and 1/c on side 2, drawn in this
    order: c, the source `source()`, c times a stochastic K1, a stochastic
    K2 over c."""
    c = float(np.exp(rng.uniform(-1.5, 1.5)))
    return _owned(
        DiscreteLCMeasure,
        PS=source(),
        K1=c * stochastic_matrix(rng, n1, m1),
        K2=stochastic_matrix(rng, n2, m2) / c,
    )


def random_trivial_measure(
    rng: np.random.Generator,
    n1: int = 64,
    n2: int = 64,
    m1: int = 8,
    m2: int = 8,
) -> DiscreteLCMeasure:
    """Trivial by construction: row masses are a random c on one side, 1/c on the other."""
    n1, n2, m1, m2 = _check_random_shape(n1, n2, m1, m2)
    return _trivial_member(rng, lambda: random_source(rng, n1, n2), n1, n2, m1, m2)


def random_trivial_family(
    rng: np.random.Generator,
    n1: int = 64,
    n2: int = 64,
    m1: int = 8,
    m2: int = 8,
) -> tuple[DiscreteLCMeasure, ...]:
    """Four trivial measures sharing one source, one per CHSH setting."""
    n1, n2, m1, m2 = _check_random_shape(n1, n2, m1, m2)
    PS = random_source(rng, n1, n2)
    return tuple(_trivial_member(rng, lambda: PS, n1, n2, m1, m2) for _ in range(4))


def random_nontrivial_measure(
    rng: np.random.Generator,
    n1: int = 64,
    n2: int = 64,
    m1: int = 8,
    m2: int = 8,
    min_deviation: float = 1e-3,
) -> DiscreteLCMeasure:
    """Row masses vary across configurations, so p1 ⊗ p2 cannot sit at 1."""
    n1, n2, m1, m2 = _check_random_shape(n1, n2, m1, m2)
    for _ in range(64):
        g1 = np.exp(rng.uniform(-1.0, 1.0, size=n1))
        g2 = np.exp(rng.uniform(-1.0, 1.0, size=n2))
        m = _owned(
            DiscreteLCMeasure,
            PS=random_source(rng, n1, n2),
            K1=g1[:, None] * stochastic_matrix(rng, n1, m1),
            K2=g2[:, None] * stochastic_matrix(rng, n2, m2),
        )
        if is_trivial(m).max_deviation >= min_deviation:
            return m
    raise RuntimeError("failed to draw a measure with the requested deviation")


def random_observables(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, size=n)


def _draw_observables(rng: np.random.Generator, n1: int, n2: int) -> tuple[list, list]:
    """Side 1's observables (o_a, o_a2), then side 2's (o_b, o_b2), drawn in that order."""
    return [random_observables(rng, n1) for _ in range(2)], [random_observables(rng, n2) for _ in range(2)]


def _chsh_values(obs1: np.ndarray, obs2: np.ndarray, p1, PS, p2) -> list[float]:
    """The CHSH value of each block of observables obs1 (..., 2, n1), which
    holds (o_a, o_a2), and obs2 (..., 2, n2), which holds (o_b, o_b2), on
    four members with row masses p1 (..., 4, n1) and p2 (..., 4, n2) in
    chsh_pairs order and sources PS: the value that :func:`chsh_discrete`
    gives, bit for bit."""
    # Which of (o_a, o_a2) and of (o_b, o_b2) each member takes.
    side1, side2 = (list(index) for index in zip(*chsh_pairs((0, 1, 0, 1))))
    corr = _correlations(obs1[..., side1, :] * p1, PS, obs2[..., side2, :] * p2)
    return [chsh(*row) for row in corr.reshape(-1, 4).tolist()]


def _family_masses(rng: np.random.Generator, n1: int, n2: int, m1: int, m2: int):
    """Draw a family with :func:`random_trivial_family` and keep only its
    source and its members' row masses p1 (4, n1) and p2 (4, n2): the
    kernels, up to MAX_RANDOM_ENTRIES entries each, are freed on return."""
    family = random_trivial_family(rng, n1, n2, m1, m2)
    p1, p2 = zip(*map(local_mass_functions, family))
    return family[0].PS, np.array(p1), np.array(p2)


def _trivial_block(rng: np.random.Generator, size: int, n1: int, n2: int, m1: int, m2: int, worst):
    """Draw `size` families of :func:`random_trivial_sweep`, each followed by
    its observables; return the largest of `worst` and their members'
    |p1 ⊗ p2 - 1| on the support, and their CHSH values in draw order."""
    # Each family, then its observables: the order the stream was drawn in.
    drawn = [(*_family_masses(rng, n1, n2, m1, m2), *_draw_observables(rng, n1, n2)) for _ in range(size)]
    sources, *parts = zip(*drawn)
    p1, p2, obs1, obs2 = map(np.array, parts)
    # A lone family's source is not copied: it may hold MAX_RANDOM_ENTRIES entries.
    PS = (sources[0][None] if size == 1 else np.stack(sources))[:, None]
    return _deviation(p1, p2, PS, worst), _chsh_values(obs1, obs2, p1, PS, p2)


def random_trivial_sweep(rng: np.random.Generator, count: int, n1: int, n2: int, m1: int, m2: int) -> dict:
    """Draw `count` families with :func:`random_trivial_family`, each
    followed by its four observables (side 1's two first), and report whether
    every member is trivial (`all_trivial`), the largest CHSH value
    (`max_chsh`) and how many values exceed 2 + VIOLATION_TOL (`violations`).

    Each verdict and value is the one that :func:`is_trivial` and
    :func:`chsh_discrete` give, bit for bit. A member is reduced to its row
    masses as it is drawn, so the kernels of one family at a time are held.
    A family then holds n1·n2 + 6·(n1 + n2) entries (its source, masses and
    observables), and families go in blocks of at most TRIVIAL_BLOCK such
    entries, at least one family, each block one call of either kernel."""
    n1, n2, m1, m2 = _check_random_shape(n1, n2, m1, m2)
    count = integer(count, "family count", 1)
    per_block = max(1, TRIVIAL_BLOCK // (n1 * n2 + 6 * (n1 + n2)))
    worst, best, violations = 0.0, -math.inf, 0
    for start in range(0, count, per_block):
        worst, values = _trivial_block(rng, min(per_block, count - start), n1, n2, m1, m2, worst)
        best = max([best, *values])
        violations += sum(value > 2.0 + VIOLATION_TOL for value in values)
    return {"all_trivial": bool(worst <= TRIVIAL_TOL), "max_chsh": best, "violations": violations}


def observable_sweep(rng: np.random.Generator, m: DiscreteLCMeasure, trials: int) -> float:
    """The largest :func:`chsh_discrete` value of the family (m,) * 4 over
    `trials` observable quadruples, each drawn side 1's two first."""
    best = -math.inf
    for _ in range(integer(trials, "trial count", 1)):
        best = max(best, chsh_discrete((m,) * 4, *_draw_observables(rng, m.n1, m.n2)))
    return best


# ---------------------------------------------------------------------------
# Diagonal cosine discretization

#: A cosine-diagonal file's meta family, and its fields with `lcsim cosine-measure`'s defaults in
#: cosine_diagonal_measure's argument order; the grid must be named, other missing fields read as here.
COSINE_FAMILY = "cosine-diagonal"
COSINE_DEFAULTS = {"grid": 64, "a": TSIRELSON_SETTINGS[0], "b": TSIRELSON_SETTINGS[2], "m1": 8, "m2": 8, "weight_side": 1}


def diagonal_grid(n_grid: int) -> np.ndarray:
    """Midpoint grid on the circle; arc boundaries of grid-aligned settings
    then fall between nodes."""
    return (np.arange(n_grid) + 0.5) * (TWO_PI / n_grid)


def _cosine_kernels(grid: np.ndarray, setting: float, m1: int, m2: int, weight_side: int) -> dict:
    """K1 and K2 of a cosine-diagonal measure: row masses |cos(s - setting)|
    over their grid mean on the weighted side and 1 on the other, each spread
    evenly over the side's m apparatus states."""
    w = np.abs(np.cos(grid - setting))
    w1, w2 = on_side(weight_side, w / w.mean(), np.ones(grid.size))
    return {"K1": np.repeat(w1[:, None] / m1, m1, axis=1), "K2": np.repeat(w2[:, None] / m2, m2, axis=1)}


def _cosine_weighted(n_grid: int, settings: dict, pairs, m1: int, m2: int, weight_side: int) -> list:
    """The weighted setting of each of `pairs`, (side 1, side 2) pairs of names
    of `settings`; ValueError, before any array exists, on a bad argument."""
    n_grid = integer(n_grid, "cosine-diagonal grid", 2, MAX_COSINE_GRID)
    m1, m2 = integer(m1, "kernel width m1", 1), integer(m2, "kernel width m2", 1)
    _check_entries(MAX_COSINE_GRID**2, K1=(n_grid, m1), K2=(n_grid, m2))
    settings = {name: real(value, f"cosine-diagonal setting {name}") for name, value in settings.items()}
    return [settings[on_side(weight_side, *pair)[0]] for pair in pairs]


def _cosine_measures(n_grid: int, settings: dict, pairs, m1: int, m2: int, weight_side: int):
    """The cosine-diagonal measures at `pairs`, all on one read-only diagonal
    source, and the grid they live on. The arguments are checked first; the
    measures are then valid by construction, so they are built through
    `_owned`: the uniform diagonal sums to 1 within 7e-16 for every grid up
    to MAX_COSINE_GRID, and finite settings give finite positive kernels."""
    weighted = _cosine_weighted(n_grid, settings, pairs, m1, m2, weight_side)
    grid = diagonal_grid(n_grid)
    PS = np.diag(np.full(n_grid, 1.0 / n_grid))
    measures = tuple(
        _owned(DiscreteLCMeasure, PS=PS, **_cosine_kernels(grid, setting, m1, m2, weight_side))
        for setting in weighted
    )
    return measures, grid


def cosine_diagonal_measure(
    n_grid: int,
    a: float,
    b: float,
    m1: int = 8,
    m2: int = 8,
    weight_side: int = 1,
) -> DiscreteLCMeasure:
    """Diagonal discretization of the |cos|/4 pair density at settings (a, b):
    uniform diagonal source, row masses |cos| over their grid mean on the
    weighted side. The induced mass Σ PS·p1·p2 is then 1, where the midpoint
    samples of (π/2)|cos| leave it at 1 + O(1/n²)."""
    (measure,), _ = _cosine_measures(n_grid, {"a": a, "b": b}, [("a", "b")], m1, m2, weight_side)
    return measure


def cosine_diagonal_family(n_grid: int, settings: tuple[float, float, float, float], m1: int, m2: int, weight_side: int):
    """Four-setting cosine family sharing the diagonal source, plus the
    matching ±1 spin observables on the grid.

    Returns (measures, obs1, obs2) shaped for :func:`chsh_discrete`;
    settings order is (a, a2, b, b2). Each member is the measure that
    :func:`cosine_diagonal_measure` builds at its pair, and all four share
    one read-only source.
    """
    names = ("a", "a2", "b", "b2")
    named = dict(zip(names, settings, strict=True))
    measures, grid = _cosine_measures(n_grid, named, chsh_pairs(names), m1, m2, weight_side)
    obs1 = tuple(spin_values(1, named[name], grid).astype(float) for name in ("a", "a2"))
    obs2 = tuple(spin_values(2, named[name], grid).astype(float) for name in ("b", "b2"))
    return measures, obs1, obs2


def check_cosine_file(measure: DiscreteLCMeasure, meta) -> tuple[int, int, int, int] | None:
    """None unless `meta` is an object of family COSINE_FAMILY; then (grid,
    m1, m2, weight_side) of the cosine_diagonal_measure that its fields name,
    or ValueError, shapes and arguments first, unless every entry is within
    1e-12 of that measure's. The source is read through its support and
    diagonal, so nothing of grid² entries is built."""
    if not (isinstance(meta, dict) and meta.get("family") == COSINE_FAMILY):
        return None
    fields = {**COSINE_DEFAULTS, "grid": None, **meta}  # the grid has no default
    grid, a, b, m1, m2, weight_side = (fields[key] for key in COSINE_DEFAULTS)
    stored = (measure.n1, measure.n2, measure.m1, measure.m2)
    if stored != (grid, grid, m1, m2):
        raise ValueError(
            f"cosine-diagonal meta (grid {grid!r}, m1 {m1!r}, m2 {m2!r}) does not match "
            f"the matrices (n1 {stored[0]}, n2 {stored[1]}, m1 {stored[2]}, m2 {stored[3]})"
        )
    (setting,) = _cosine_weighted(grid, {"a": a, "b": b}, [("a", "b")], m1, m2, weight_side)
    expected = _cosine_kernels(diagonal_grid(grid), setting, m1, m2, weight_side)
    rows, cols = np.nonzero(measure.PS)  # the expected source is 1/grid on the diagonal, 0 off it
    source = np.append(np.diagonal(measure.PS) - 1.0 / grid, measure.PS[rows, cols][rows != cols])
    for name, diff in (("PS", source), ("K1", measure.K1 - expected["K1"]), ("K2", measure.K2 - expected["K2"])):
        deviation = float(np.abs(diff).max())
        if not deviation <= 1e-12:
            raise ValueError(
                f"stored {name} deviates by {deviation:.3g} from the cosine-diagonal measure "
                f"its meta describes (grid {grid}, a {a!r}, b {b!r}, weight_side {weight_side})"
            )
    return grid, m1, m2, weight_side


def save_cosine_measure(path, grid: int, a: float, b: float, m1: int, m2: int, weight_side: int) -> dict:
    """Write cosine_diagonal_measure(grid, a, b, m1, m2, weight_side) to `path` with the meta naming it; return it."""
    meta = dict(zip(COSINE_DEFAULTS, (grid, a, b, m1, m2, weight_side)), family=COSINE_FAMILY)
    save_measure(path, cosine_diagonal_measure(grid, a, b, m1, m2, weight_side), meta=meta)
    return meta


def cosine_file_chsh(grid: int, m1: int, m2: int, weight_side: int) -> tuple[tuple[float, ...], float]:
    """TSIRELSON_SETTINGS and the CHSH value there of the cosine family on a checked file's grid, widths and side.

    The value is within 1e-12 of 2√2 only on grids divisible by 8. On other
    grids the settings miss the grid, and the value can read above 2√2:
    grid 12 on weight side 2 gives 2.9282, grid 7 on side 1 gives 2.8509."""
    family, obs1, obs2 = cosine_diagonal_family(grid, TSIRELSON_SETTINGS, m1, m2, weight_side)
    return TSIRELSON_SETTINGS, chsh_discrete(family, obs1, obs2)


# ---------------------------------------------------------------------------
# Serialization


def measure_to_dict(m: DiscreteLCMeasure, meta: dict | None = None) -> dict:
    """The measure as a JSON-ready document. `PS` is written as its support,
    the nonzero entries in row-major order as {"rows", "cols", "weights"}, so
    a diagonal source takes n entries instead of n²; a -0.0 entry is not in
    the support and reloads as +0.0. `K1` and `K2` are lists of rows."""
    rows, cols = np.nonzero(m.PS)
    doc = {
        "n1": m.n1,
        "n2": m.n2,
        "m1": m.m1,
        "m2": m.m2,
        "PS": {"rows": rows.tolist(), "cols": cols.tolist(), "weights": m.PS[rows, cols].tolist()},
        "K1": m.K1.tolist(),
        "K2": m.K2.tolist(),
    }
    if meta is not None:
        doc["meta"] = meta
    return doc


def _support_source(support: dict, n1: int, n2: int) -> np.ndarray:
    """The dense n1 × n2 source of a support object; ValueError unless it has
    exactly the keys rows, cols and weights, holding equal-length lists of
    in-range integer indices and of numbers by :func:`circle.reals`, with no
    (row, col) pair twice. Signs and mass are left to the measure's checks."""
    if sorted(support) != ["cols", "rows", "weights"]:
        raise ValueError(f"a PS support has exactly the keys cols, rows and weights, got {sorted(support)}")
    rows, cols, weights = support["rows"], support["cols"], support["weights"]
    if not all(isinstance(v, list) for v in (rows, cols, weights)):
        raise ValueError("PS support rows, cols and weights must be lists")
    if not len(rows) == len(cols) == len(weights):
        raise ValueError(
            f"PS support rows, cols and weights must have equal lengths, "
            f"got {len(rows)}, {len(cols)} and {len(weights)}"
        )
    for name, index, bound in (("rows", rows, n1), ("cols", cols, n2)):
        # type() and not isinstance(): a bool is not an index.
        if not all(type(i) is int and 0 <= i < bound for i in index):
            raise ValueError(f"PS support {name} must be integers in [0, {bound})")
    flat = np.array(rows, dtype=np.int64) * n2 + np.array(cols, dtype=np.int64)
    if np.unique(flat).size != flat.size:
        raise ValueError("PS support lists a (row, col) pair twice")
    weights = reals(weights, "PS support weights")
    if weights.ndim != 1:
        raise ValueError("PS support weights must be a list of numbers")
    PS = np.zeros((n1, n2))
    PS.flat[flat] = weights
    return PS


def measure_from_dict(doc: dict) -> tuple[DiscreteLCMeasure, dict | None]:
    """The measure and `meta` of a document that :func:`measure_to_dict`
    wrote, its matrices as lists. `PS` may also be a list of rows, the form
    files had before sources were written as their support."""
    if not isinstance(doc, dict):
        raise ValueError(f"measure document must be an object, got {type(doc).__name__}")
    for key in ("n1", "n2", "m1", "m2", "PS", "K1", "K2"):
        if key not in doc:
            raise ValueError(f"measure document is missing the {key!r} field")
    declared = n1, n2, m1, m2 = tuple(integer(doc[k], f"declared dimension {k}") for k in ("n1", "n2", "m1", "m2"))
    # Every file that cosine-measure writes stays within this cap.
    _check_entries(MAX_COSINE_GRID**2, PS=(n1, n2), K1=(n1, m1), K2=(n2, m2))
    PS = _support_source(doc["PS"], n1, n2) if isinstance(doc["PS"], dict) else reals(doc["PS"], "PS")
    K1, K2 = reals(doc["K1"], "K1"), reals(doc["K2"], "K2")
    # Each matrix was converted once, the support form straight into its dense
    # source; the constructor would copy them again.
    _check_measure(PS, K1, K2)
    m = _owned(DiscreteLCMeasure, PS=PS, K1=K1, K2=K2)
    if declared != (m.n1, m.n2, m.m1, m.m2):
        raise ValueError(
            f"declared dimensions {declared} do not match matrices "
            f"({m.n1}, {m.n2}, {m.m1}, {m.m2})"
        )
    return m, doc.get("meta")


def save_measure(path, m: DiscreteLCMeasure, meta: dict | None = None) -> None:
    Path(path).write_text(json.dumps(measure_to_dict(m, meta), sort_keys=True) + "\n")


def load_measure(path) -> tuple[DiscreteLCMeasure, dict | None]:
    return measure_from_dict(json.loads(Path(path).read_text()))
