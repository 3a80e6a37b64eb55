"""Sparse commutative polynomials and free-algebra words.

A commutative polynomial is a mapping from exponent tuples to nonzero ring
scalars, e.g. with d = 3 the term 2*x1^2*x2 is stored as {(2, 1, 0): 2}.
Generators are numbered 1..d; position k of an exponent tuple belongs to
generator k+1.  The ``kind`` flag distinguishes real coordinates ("x") from
Wick coordinates ("w"); it changes nothing about arithmetic but switches
the conjugation rule: x-kind conjugation only conjugates coefficients,
w-kind conjugation additionally reverses every exponent tuple, matching
the involution w_i* = w_{d+1-i}.

Noncommutative polynomials store words (tuples of generator letters).  A
word is standard when its letters are non-decreasing; standard words
correspond bijectively to exponent tuples.
"""

from __future__ import annotations

from math import comb
from operator import le
from typing import Dict, Mapping, Tuple

from .scalars import Ring

Exponent = Tuple[int, ...]
Word = Tuple[int, ...]


def exponent_to_word(K: Exponent) -> Word:
    """Standard word of a multi-index: generator i repeated K[i-1] times."""
    letters = []
    for i, k in enumerate(K, start=1):
        letters.extend([i] * k)
    return tuple(letters)


def word_to_exponent(word: Word, dim: int) -> Exponent:
    K = [0] * dim
    for letter in word:
        K[letter - 1] += 1
    return tuple(K)


def is_standard(word: Word) -> bool:
    return all(map(le, word, word[1:]))


def inversion_weight(K: Exponent, L: Exponent) -> int:
    """Sum over i < j of K_j * L_i: reductions needed to merge x^K x^L."""
    total = 0
    prefix = 0
    for j in range(len(K)):
        if j > 0:
            prefix += L[j - 1]
        total += K[j] * prefix
    return total


def grlex_key(K: Exponent):
    # graded order, highest total degree first, then lexicographic on x1
    return (-sum(K), tuple([-k for k in K]))


class DimensionMismatch(ValueError):
    pass


class Polynomial:
    """Immutable-by-convention sparse polynomial over a scalar ring."""

    __slots__ = ("ring", "dim", "kind", "terms")

    def __init__(self, ring: Ring, dim: int, terms: Mapping[Exponent, object] | None = None,
                 kind: str = "x"):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        if kind not in ("x", "w"):
            raise ValueError("generator kind must be 'x' or 'w'")
        self.ring = ring
        self.dim = dim
        self.kind = kind
        clean: Dict[Exponent, object] = {}
        if terms:
            for K, c in terms.items():
                if len(K) != dim:
                    raise DimensionMismatch(f"exponent {K} does not fit dimension {dim}")
                if any(e < 0 for e in K):
                    raise ValueError(f"negative exponent in {K}")
                if not ring.is_zero(c):
                    clean[tuple(K)] = c
        self.terms = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_checked(cls, ring: Ring, dim: int, terms: Mapping[Exponent, object],
                     kind: str = "x") -> "Polynomial":
        """Build from exponent tuples known to have length dim and no negative entry.

        Drops zero coefficients as the constructor does but checks no
        exponent: for terms computed from exponents of polynomials of the
        same dimension, which were checked when they were made.
        """
        self = object.__new__(cls)
        self.ring = ring
        self.dim = dim
        self.kind = kind
        is_zero = ring.is_zero
        self.terms = {K: c for K, c in terms.items() if not is_zero(c)}
        return self

    @classmethod
    def zero(cls, ring: Ring, dim: int, kind: str = "x") -> "Polynomial":
        return cls(ring, dim, {}, kind)

    @classmethod
    def constant(cls, ring: Ring, dim: int, value, kind: str = "x") -> "Polynomial":
        return cls(ring, dim, {(0,) * dim: ring.coerce(value)}, kind)

    @classmethod
    def one(cls, ring: Ring, dim: int, kind: str = "x") -> "Polynomial":
        return cls.constant(ring, dim, 1, kind)

    @classmethod
    def variable(cls, ring: Ring, dim: int, index: int, kind: str = "x") -> "Polynomial":
        if not 1 <= index <= dim:
            raise ValueError(f"generator index {index} out of range 1..{dim}")
        K = tuple(1 if k == index - 1 else 0 for k in range(dim))
        return cls(ring, dim, {K: ring.one}, kind)

    @classmethod
    def monomial(cls, ring: Ring, dim: int, K: Exponent, coeff=None, kind: str = "x") -> "Polynomial":
        return cls(ring, dim, {tuple(K): ring.one if coeff is None else coeff}, kind)

    # -- arithmetic -----------------------------------------------------------

    def _check_compatible(self, other: "Polynomial"):
        if self.dim != other.dim or self.kind != other.kind:
            raise DimensionMismatch(
                f"incompatible polynomials: d={self.dim}/{other.dim}, kind={self.kind}/{other.kind}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        for K, c in other.terms.items():
            if K in out:
                out[K] = out[K] + c
            else:
                out[K] = c
        return Polynomial.from_checked(self.ring, self.dim, out, self.kind)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        for K, c in other.terms.items():
            if K in out:
                out[K] = out[K] - c
            else:
                out[K] = -c
        return Polynomial.from_checked(self.ring, self.dim, out, self.kind)

    def __neg__(self):
        return Polynomial.from_checked(self.ring, self.dim,
                                       {K: -c for K, c in self.terms.items()}, self.kind)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_compatible(other)
            out: Dict[Exponent, object] = {}
            for K, a in self.terms.items():
                for L, b in other.terms.items():
                    M = tuple([k + l for k, l in zip(K, L)])
                    c = a * b
                    if M in out:
                        out[M] = out[M] + c
                    else:
                        out[M] = c
            return Polynomial.from_checked(self.ring, self.dim, out, self.kind)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, scalar) -> "Polynomial":
        c = scalar if type(scalar) is type(self.ring.zero) else self.ring.coerce(scalar)
        if self.ring.is_zero(c):
            return Polynomial.zero(self.ring, self.dim, self.kind)
        return Polynomial.from_checked(self.ring, self.dim,
                                       {K: a * c for K, a in self.terms.items()}, self.kind)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.one(self.ring, self.dim, self.kind)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- involution and calculus ---------------------------------------------

    def conjugate(self) -> "Polynomial":
        out = {}
        for K, c in self.terms.items():
            key = tuple(reversed(K)) if self.kind == "w" else K
            cc = self.ring.conjugate(c)
            if key in out:
                out[key] = out[key] + cc
            else:
                out[key] = cc
        return Polynomial.from_checked(self.ring, self.dim, out, self.kind)

    def derivative(self, index: int) -> "Polynomial":
        """Formal partial derivative with respect to generator ``index`` (1-based)."""
        if not 1 <= index <= self.dim:
            raise ValueError(f"generator index {index} out of range 1..{self.dim}")
        p = index - 1
        out = {}
        for K, c in self.terms.items():
            if K[p] == 0:
                continue
            M = K[:p] + (K[p] - 1,) + K[p + 1:]
            scaled = c * K[p]
            if M in out:
                out[M] = out[M] + scaled
            else:
                out[M] = scaled
        return Polynomial.from_checked(self.ring, self.dim, out, self.kind)

    def shift(self, offsets) -> "Polynomial":
        """Substitute generator i -> generator i + offsets[i-1].

        (x_p + c_p)^e expands as the binomial row sum_k C(e, k) c_p^(e-k) x_p^k.
        Each term multiplies its rows across p straight into one dict; the
        row of each (p, e) is built once per call.
        """
        ring = self.ring
        offsets = [ring.coerce(c) for c in offsets]
        if len(offsets) != self.dim:
            raise DimensionMismatch("offset vector length must equal the dimension")
        rows: Dict[Tuple[int, int], list] = {}

        def row(p: int, e: int) -> list:
            # (k, C(e, k) c^(e-k)) for the nonzero entries; None at k = e
            # stands for the coefficient 1, which needs no product
            c = offsets[p]
            out = [(e, None)]
            if e and not ring.is_zero(c):
                power = ring.one
                for k in range(e - 1, -1, -1):
                    power = power * c
                    out.append((k, power * comb(e, k)))
            return out

        out: Dict[Exponent, object] = {}
        for K, c in self.terms.items():
            partial = [((), c)]
            for p, e in enumerate(K):
                entries = rows.get((p, e))
                if entries is None:
                    entries = rows[(p, e)] = row(p, e)
                partial = [(M + (k,), a if b is None else a * b)
                           for M, a in partial for k, b in entries]
            for M, a in partial:
                out[M] = out[M] + a if M in out else a
        return Polynomial.from_checked(ring, self.dim, out, self.kind)

    def evaluate(self, point):
        """Evaluate at a point; entries anything the coefficients multiply with."""
        if len(point) != self.dim:
            raise DimensionMismatch("point length must equal the dimension")
        total = None
        for K, c in self.terms.items():
            value = c
            for p, e in enumerate(K):
                for _ in range(e):
                    value = value * point[p]
            total = value if total is None else total + value
        return self.ring.zero if total is None else total

    # -- structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(K) for K in self.terms), default=0)

    def min_total_degree(self):
        """Smallest total degree with nonzero coefficient; inf for zero."""
        return min((sum(K) for K in self.terms), default=float("inf"))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    def map_coefficients(self, fn, ring: Ring | None = None) -> "Polynomial":
        target = ring if ring is not None else self.ring
        return Polynomial(target, self.dim, {K: fn(c) for K, c in self.terms.items()}, self.kind)

    def close_to(self, other: "Polynomial", tol: float = 1e-10, scale: float = 1.0) -> bool:
        self._check_compatible(other)
        keys = set(self.terms) | set(other.terms)
        zero = self.ring.zero
        return all(
            self.ring.close(self.terms.get(K, zero), other.terms.get(K, zero), tol, scale)
            for K in keys
        )

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.dim == other.dim and self.kind == other.kind
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.dim, self.kind, frozenset(self.terms.items())))

    def __repr__(self):
        from .parsing import format_poly
        return f"<{format_poly(self)}>"


class NcPolynomial:
    """Linear combination of free-algebra words over a scalar ring."""

    __slots__ = ("ring", "dim", "terms")

    def __init__(self, ring: Ring, dim: int, terms: Mapping[Word, object] | None = None):
        self.ring = ring
        self.dim = dim
        clean: Dict[Word, object] = {}
        if terms:
            for word, c in terms.items():
                if any(not 1 <= letter <= dim for letter in word):
                    raise ValueError(f"letter out of range in word {word}")
                if not ring.is_zero(c):
                    clean[tuple(word)] = c
        self.terms = clean

    @classmethod
    def from_checked(cls, ring: Ring, dim: int, terms: Mapping[Word, object]) -> "NcPolynomial":
        """Build from word tuples whose letters are known to lie in 1..dim.

        Checks no letter, and drops only exactly zero coefficients: for the
        rewrite step, whose words come from words of polynomials and tables
        of the same dimension and whose coefficients are pruned once, on the
        finished product.
        """
        self = object.__new__(cls)
        self.ring = ring
        self.dim = dim
        self.terms = {w: c for w, c in terms.items() if c}
        return self

    def concat(self, other: "NcPolynomial") -> "NcPolynomial":
        out: Dict[Word, object] = {}
        for w1, a in self.terms.items():
            for w2, b in other.terms.items():
                w = w1 + w2
                c = a * b
                if w in out:
                    out[w] = out[w] + c
                else:
                    out[w] = c
        return NcPolynomial(self.ring, self.dim, out)

    def __eq__(self, other):
        if not isinstance(other, NcPolynomial):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __repr__(self):
        parts = [f"{c!r}*{'.'.join(map(str, w)) or '1'}" for w, c in sorted(self.terms.items())]
        return "<nc " + (" + ".join(parts) if parts else "0") + ">"
