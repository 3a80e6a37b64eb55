"""Deformed evaluation functionals, Gram matrices and GNS data.

Works over the Wick-type product with q(hbar) = e^(-hbar) on coordinates
w_1..w_d carrying the involution w_i* = w_(d+1-i).  Points live on the
antidiagonal set {z : z_i = conj(z_(d+1-i))}.  The deformed evaluation at z
acts on monomials by

    hbar <= 0:   w^K -> z^K e^(-hbar/2 sum m_ij K_i K_j)
    hbar  > 0:   w^K -> z^K e^(hbar sum_{i<j} K_i K_j + hbar/2 sum m_ij K_i K_j)

with m_ij = min(i-1, j-1, d-i, d-j) (1-based).  These are positive on the
deformed product; the plain evaluation is not once hbar > 0, which the
witness value e^(-hbar) - 1 certifies.

NumPy is imported inside the functions that build Gram matrices, check PSD
or build GNS data, so that importing this module, and with it every exact
computation of the package, does not load it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .poly import Exponent, Polynomial
from .probes import exponent_ball
from .reduction import star as table_star
from .catalog import wick_log_canonical_table
from .scalars import ComplexRing

if TYPE_CHECKING:
    import numpy as np


class StateError(ValueError):
    pass


def m_matrix(dim: int) -> List[List[int]]:
    return [[min(i - 1, j - 1, dim - i, dim - j) for j in range(1, dim + 1)]
            for i in range(1, dim + 1)]


@functools.cache
def _m_rows(dim: int) -> Tuple[Tuple[int, ...], ...]:
    """m_matrix(dim), read-only, built once per dimension."""
    return tuple(map(tuple, m_matrix(dim)))


def is_antidiagonal(z: Sequence[complex]) -> bool:
    d = len(z)
    return all(abs(z[i] - z[d - 1 - i].conjugate()) <= 1e-9 for i in range(d))


@dataclass(frozen=True)
class WickPoint:
    z: Tuple[complex, ...]

    def __post_init__(self):
        z = tuple(complex(v) for v in self.z)
        object.__setattr__(self, "z", z)
        if not is_antidiagonal(z):
            raise StateError("point must satisfy z_i = conj(z_(d+1-i))")

    @property
    def dim(self) -> int:
        return len(self.z)

    @staticmethod
    def from_half(half: Sequence[complex], dim: int) -> "WickPoint":
        """Fill the antidiagonal constraint from the first ceil(d/2) entries."""
        half = [complex(v) for v in half]
        if len(half) != (dim + 1) // 2:
            raise StateError(f"need {(dim + 1) // 2} independent entries for d={dim}")
        if dim % 2 == 1 and abs(half[-1].imag) > 1e-12:
            raise StateError("middle coordinate must be real for odd d")
        z = list(half) + [v.conjugate() for v in reversed(half[:dim // 2])]
        return WickPoint(tuple(z))


def random_wick_point(rng, dim: int) -> WickPoint:
    half = []
    for k in range((dim + 1) // 2):
        if dim % 2 == 1 and k == (dim + 1) // 2 - 1:
            half.append(complex(rng.uniform(-1.0, 1.0), 0.0))
        else:
            half.append(complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
    return WickPoint.from_half(half, dim)


def _pair_sum(K: Exponent) -> int:
    """sum over i < j of K_i K_j."""
    total = sum(K)
    return (total * total - sum(k * k for k in K)) // 2


def _m_quadratic(K: Exponent, m: Sequence[Sequence[int]]) -> int:
    return sum(m[i][j] * K[i] * K[j] for i in range(len(K)) for j in range(len(K)))


@dataclass
class StateFunctional:
    """Deformed point evaluation on Wick coordinates."""

    point: WickPoint
    hbar: float

    @property
    def dim(self) -> int:
        return self.point.dim

    def eval_monomial(self, K: Exponent) -> complex:
        # hbar = 0 takes the nonpositive branch; both formulas degenerate to
        # plain evaluation there
        m = _m_rows(self.point.dim)
        if self.hbar > 0:
            exponent = self.hbar * _pair_sum(K) + 0.5 * self.hbar * _m_quadratic(K, m)
        else:
            exponent = -0.5 * self.hbar * _m_quadratic(K, m)
        return self.eval_plain(K) * math.exp(exponent)

    def eval_plain(self, K: Exponent) -> complex:
        z = self.point.z
        value = 1 + 0j
        for zk, e in zip(z, K):
            value *= zk ** e
        return value

    def __call__(self, f: Polynomial) -> complex:
        if f.kind != "w":
            raise StateError("deformed evaluations act on w-kind polynomials")
        total = 0j
        for K, c in f.terms.items():
            total += f.ring.to_complex(c) * self.eval_monomial(K)
        return total


def nonpositivity_witness(z: WickPoint, hbar: float, j: int) -> complex:
    """delta_z((1 - w_j/z_j)* *_h (1 - w_j/z_j)) for the plain evaluation.

    Equals e^(-hbar) - 1, negative for hbar > 0: the undeformed point
    evaluation fails positivity.  Computed through the actual product and
    involution, not the closed answer.
    """
    d = z.dim
    if not 1 <= j <= d // 2:
        raise StateError("witness index must satisfy 1 <= j <= floor(d/2)")
    if abs(z.z[j - 1]) < 1e-12:
        raise StateError("witness needs z_j != 0")
    ring = ComplexRing()
    table = wick_log_canonical_table(ring, d, math.exp(-hbar) + 0j)
    one = Polynomial.one(ring, d, "w")
    wj = Polynomial.variable(ring, d, j, "w")
    a = one - wj.scale(1 / z.z[j - 1])
    product = table_star(a.conjugate(), a, table)
    total = 0j
    for K, c in product.terms.items():
        value = c
        for zk, e in zip(z.z, K):
            value *= zk ** e
        total += value
    return total


# -- Gram matrices -----------------------------------------------------------------


def state_basis(dim: int, degree: int) -> List[Exponent]:
    return list(_state_basis(dim, degree))


@functools.cache
def _state_basis(dim: int, degree: int) -> Tuple[Exponent, ...]:
    return tuple(sorted(exponent_ball(dim, degree),
                        key=lambda K: (sum(K), tuple(-k for k in K))))


class GramSkeleton(NamedTuple):
    """The integer structure of every Gram matrix and GNS build of one shape.

    Over the basis K, L of ``state_basis(dim, degree)`` (n monomials), with
    J running over the distinct rows rev(K) + L.  Every array is read-only.
    """

    inv: np.ndarray                  # (n, n): inversion count of (rev(K), L)
    index: np.ndarray                # (n, n): position of rev(K) + L among the J
    columns: Tuple[np.ndarray, ...]  # the J, one array per coordinate
    tops: Tuple[int, ...]            # the largest entry of each column
    pair: np.ndarray                 # sum_{i<j} J_i J_j of each J
    m_quadratic: np.ndarray          # sum_ij m_ij J_i J_j of each J
    scale_count: int                 # 1 + the largest inversion count
    sub_index: Tuple[int, ...]       # positions of the K with |K| <= degree - 1
    # per generator w_i: the position of w_i w^K and sum_{p<i} K_p, for
    # each K of sub_index in turn
    shifts: Tuple[Tuple[np.ndarray, Tuple[int, ...]], ...]


@functools.cache
def gram_skeleton(dim: int, degree: int) -> GramSkeleton:
    """The integer work of ``gram_matrix`` and ``gns_build`` for one shape.

    It depends on (dim, degree) alone, so each process builds it once per
    shape: inversion counts, the distinct rows rev(K) + L with each pair's
    index into them, their pair sums and m-quadratic forms, and where
    left multiplication by each generator sends the low-degree basis.
    """
    import numpy as np

    basis = _state_basis(dim, degree)
    n = len(basis)
    B = np.array(basis, dtype=np.int64).reshape(n, dim)
    B_rev = B[:, ::-1]
    # inversion count of (rev(K), L): sum_j rev(K)_j * (L_0 + ... + L_(j-1))
    inv = B_rev @ (np.cumsum(B, axis=1) - B).T
    J = (B_rev[:, None, :] + B[None, :, :]).reshape(n * n, dim)
    rows, index = _unique_rows(J)
    total = rows.sum(axis=1)
    pair = (total * total - (rows * rows).sum(axis=1)) // 2
    m_quadratic = ((rows @ np.array(m_matrix(dim), dtype=np.int64)) * rows).sum(axis=1)
    columns = tuple(np.ascontiguousarray(column) for column in rows.T)

    position = {K: a for a, K in enumerate(basis)}
    sub_index = tuple(a for a, K in enumerate(basis) if sum(K) <= degree - 1)
    low = [basis[a] for a in sub_index]
    shifts = []
    for p in range(dim):
        targets = np.array([position[K[:p] + (K[p] + 1,) + K[p + 1:]] for K in low],
                           dtype=np.intp)
        shifts.append((targets, tuple(sum(K[:p]) for K in low)))

    arrays = [inv, index, pair, m_quadratic, *columns, *(t for t, _ in shifts)]
    for array in arrays:
        array.flags.writeable = False
    return GramSkeleton(inv, index.reshape(n, n), columns,
                        tuple(int(c.max()) for c in columns), pair, m_quadratic,
                        int(inv.max()) + 1, sub_index, tuple(shifts))


def gram_matrix(state: StateFunctional, degree: int,
                deformed: bool = True) -> Tuple[List[Exponent], np.ndarray]:
    """M[K, L] = delta(conj(w^K) *_h w^L) over the monomial basis |K| <= degree.

    With q = e^(-hbar) the product contributes the prefactor
    e^(-hbar * sum_{i<j} rev(K)_j L_i) on w^(rev(K)+L).  ``deformed=False``
    evaluates with the plain point evaluation instead (the functional that
    loses positivity for hbar > 0).

    The integer work depends on the shape alone and comes from its
    ``gram_skeleton``, built once per (dim, degree): the inversion counts
    of all pairs, the distinct rows of rev(K) + L and the pair sums and
    m-quadratic forms of those rows.  Only the state's float work runs per
    call, and it takes the scalar code's steps, so that every entry is
    bit-identical to ``exp(-hbar * inv) * eval_monomial(rev(K) + L)``:
    ``math.exp`` once per distinct exponent and once per inversion count
    (NumPy's exp may differ from libm by an ulp), the powers z_k ** e in
    Python, and complex products as separate real and imaginary float
    operations in the order of Python's complex product (NumPy's complex
    multiply loop may fuse them).
    """
    import numpy as np

    if degree < 0:
        raise StateError("degree must be non-negative")
    basis = state_basis(state.dim, degree)
    skeleton = gram_skeleton(state.dim, degree)
    value_re, value_im = _evaluate_rows(state, skeleton, deformed)
    h = state.hbar
    scales = np.array([math.exp(-h * k) for k in range(skeleton.scale_count)])
    index = skeleton.index
    M = np.empty(index.shape, dtype=complex)
    M.real, M.imag = _complex_product(scales[skeleton.inv], 0.0,
                                      value_re[index], value_im[index])
    return basis, M


def _unique_rows(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct rows of an integer matrix, and the index of each row among them.

    Sorts the columns as integer keys (``np.unique(axis=0)`` sorts rows as
    opaque bytes and is several times slower here).
    """
    import numpy as np

    order = np.lexsort(rows.T)
    ordered = rows[order]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    index = np.empty(len(rows), dtype=np.intp)
    index[order] = np.cumsum(starts) - 1
    return ordered[starts], index


def _complex_product(a_re, a_im, b_re, b_im):
    """Parts of a * b, rounded step by step as Python's complex product rounds."""
    return a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re


def _evaluate_rows(state: StateFunctional, skeleton: GramSkeleton,
                   deformed: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of eval_monomial (or eval_plain) of every row."""
    import numpy as np

    count = len(skeleton.pair)
    value_re, value_im = np.ones(count), np.zeros(count)
    for zk, e, top in zip(state.point.z, skeleton.columns, skeleton.tops):
        powers = np.array([zk ** p for p in range(top + 1)])
        value_re, value_im = _complex_product(value_re, value_im,
                                              powers.real[e], powers.imag[e])
    if not deformed:
        return value_re, value_im
    h = state.hbar
    mq = skeleton.m_quadratic
    if h > 0:
        exponent = h * skeleton.pair + (0.5 * h) * mq
    else:
        exponent = (-0.5 * h) * mq
    factor = np.array([math.exp(x) for x in exponent.tolist()])
    return _complex_product(value_re, value_im, factor, 0.0)


@dataclass
class PsdResult:
    passed: bool
    min_eigenvalue: float
    scale: float


def psd_check(M: np.ndarray, tol: float = 1e-9) -> PsdResult:
    """Positive semidefiniteness of a Hermitian matrix by eigendecomposition."""
    import numpy as np

    hermitian_defect = float(np.max(np.abs(M - M.conj().T))) if M.size else 0.0
    scale = float(np.max(np.abs(M))) if M.size else 0.0
    if hermitian_defect > 1e-12 * max(1.0, scale):
        raise StateError(f"matrix is not Hermitian (defect {hermitian_defect:.3e})")
    eigenvalues = np.linalg.eigvalsh(M)
    min_eig = float(eigenvalues[0]) if eigenvalues.size else 0.0
    spectral = float(np.max(np.abs(eigenvalues))) if eigenvalues.size else 0.0
    return PsdResult(min_eig >= -tol * max(1.0, spectral), min_eig, spectral)


def vandermonde_psd_check(hbar: float, n: int) -> bool:
    """V_ij = e^(-ij*hbar), 0 <= i,j <= n: PSD with Vandermonde determinant.

    det V = prod_{i<j} (e^(-j*hbar) - e^(-i*hbar)), non-negative for
    hbar <= 0.
    """
    import numpy as np

    if hbar > 0:
        raise StateError("the Vandermonde certificate applies to hbar <= 0")
    if n > 12:
        raise StateError("conditioning guard: n <= 12")
    nodes = [math.exp(-i * hbar) for i in range(n + 1)]
    V = np.array([[math.exp(-i * j * hbar) for j in range(n + 1)] for i in range(n + 1)])
    det = float(np.linalg.det(V))
    expected = 1.0
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            expected *= nodes[j] - nodes[i]
    close = abs(det - expected) <= 1e-8 * max(1.0, abs(expected))
    return close and psd_check(V, tol=1e-9).passed


# -- the sign-flip isomorphism ---------------------------------------------------------


def reversal_isomorphism(f: Polynomial, hbar: float, direction: str = "forward") -> Polynomial:
    """w^K -> e^(hbar sum_{i<j} K_i K_j) w^(reversed K), and its inverse.

    Intertwines the products at hbar and -hbar and the involutions; pulling
    the deformed evaluation at conj(z) and -hbar back along it gives the
    deformed evaluation at z and hbar.
    """
    if direction not in ("forward", "inverse"):
        raise StateError("direction must be 'forward' or 'inverse'")
    if f.kind != "w":
        raise StateError("the isomorphism acts on w-kind polynomials")
    ring = f.ring
    h = hbar if direction == "forward" else -hbar
    # reversal is one-to-one on exponents, so no two terms meet
    out = {tuple(reversed(K)): c * ring.coerce(math.exp(h * _pair_sum(K)))
           for K, c in f.terms.items()}
    return Polynomial(ring, f.dim, out, "w")


# -- GNS construction ---------------------------------------------------------------


@dataclass
class GnsData:
    basis: List[Exponent]
    gram: np.ndarray
    eigenvalues: np.ndarray
    rank: int
    rank_gap_warning: bool
    quotient_onb: np.ndarray          # monomial coords of the orthonormal classes
    domain_onb: np.ndarray            # quotient coords of the degree-(D-1) subspace ONB
    domain_representatives: np.ndarray
    operators: Dict[int, np.ndarray]  # generator index -> matrix domain -> quotient
    adjoint_residual: float


RANK_TOL = 1e-10  # relative to the largest Gram eigenvalue
PSD_TOL = 1e-9


def gns_build(state: StateFunctional, degree: int) -> GnsData:
    """Quotient representation data from the Gram matrix.

    The Gram matrix must pass ``psd_check`` at ``PSD_TOL``.  The quotient
    basis collects eigenvectors above ``RANK_TOL`` times the largest;
    left multiplication by each generator is computed on the degree-(D-1)
    part of the quotient so that products stay inside the degree-D basis and
    the adjoint relation <pi(w_i) f, g> = <f, pi(w_(d+1-i)) g> is exact up
    to rounding.
    """
    import numpy as np

    basis, M = gram_matrix(state, degree)
    check = psd_check(M, tol=PSD_TOL)
    if not check.passed:
        raise StateError(f"Gram matrix is not PSD (min eigenvalue {check.min_eigenvalue:.3e})")
    vals, vecs = np.linalg.eigh(M)
    top = float(vals[-1]) if vals.size else 0.0
    cut = RANK_TOL * max(top, 1e-300)
    retained = [k for k, lam in enumerate(vals) if lam > cut]
    rank_gap_warning = any(cut < lam <= 10 * cut for lam in vals)
    N = vecs[:, retained] / np.sqrt(vals[retained])

    skeleton = gram_skeleton(state.dim, degree)
    sub_index = list(skeleton.sub_index)
    h = state.hbar

    # classes of the low-degree monomials, in quotient coordinates
    S = N.conj().T @ M[:, sub_index]
    U, s, Vh = np.linalg.svd(S, full_matrices=False) if sub_index else (
        np.zeros((len(retained), 0)), np.zeros(0), np.zeros((0, 0)))
    s_cut = (1e-12 * s[0]) if s.size else 0.0
    keep = [k for k, sv in enumerate(s) if sv > s_cut]
    F = U[:, keep]
    R_small = Vh.conj().T[:, keep] / s[keep] if keep else np.zeros((len(sub_index), 0))

    operators: Dict[int, np.ndarray] = {}
    residual = 0.0
    columns = np.arange(len(sub_index))
    for i, (targets, below) in enumerate(skeleton.shifts, start=1):
        A = np.zeros((len(basis), len(sub_index)), dtype=complex)
        A[targets, columns] = [math.exp(-h * b) for b in below]
        operators[i] = N.conj().T @ M @ (A @ R_small)
    for i in range(1, state.dim + 1):
        conj_i = state.dim + 1 - i
        defect = operators[i].conj().T @ F - F.conj().T @ operators[conj_i]
        if defect.size:
            residual = max(residual, float(np.max(np.abs(defect))))

    return GnsData(basis, M, vals, len(retained), rank_gap_warning,
                   N, F, R_small, operators, residual)


# -- point separation ---------------------------------------------------------------


@dataclass
class SeparationResult:
    separated: bool
    witness: Optional[WickPoint]
    value: float


GRID_VALUES = (-1.0, -0.5, 0.5, 1.0)
RANDOM_POINTS = 100


def point_separation_probe(f: Polynomial, hbar: float, rng) -> SeparationResult:
    """Search for a point whose deformed evaluation of f exceeds 1e-9 in modulus.

    Walks a small real tensor grid embedded in the antidiagonal set, then
    ``RANDOM_POINTS`` random points.  Nonvanishing is generic, so absence
    after the search is a probe failure rather than a proof.
    """
    if f.is_zero():
        raise StateError("point separation needs a nonzero polynomial")
    d = f.dim
    grid = itertools.product(GRID_VALUES, repeat=(d + 1) // 2)
    for half in itertools.chain(grid, itertools.repeat(None, RANDOM_POINTS)):
        point = (WickPoint.from_half(half, d) if half is not None
                 else random_wick_point(rng, d))
        state = StateFunctional(point, hbar)
        value = abs(state(f))
        if value > 1e-9:
            return SeparationResult(True, point, value)
    return SeparationResult(False, None, 0.0)
