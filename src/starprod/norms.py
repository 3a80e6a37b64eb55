"""Coefficient-weighted seminorms on finite polynomial data.

Four kinds, all finite sums over the nonzero coefficients f_L:

    rho       sum |f_L| rho_1^L_1 ... rho_d^L_d
    tr        sum |f_L| C^|L| (|L|!)^R
    macgyver  sum |f_L| C^(|L|^2)
    adic      the order o(f): smallest total degree with a nonzero
              coefficient (infinity for the zero polynomial)

Completions never appear here; truncated coefficient tables stand in for
analytic elements, so every evaluation is exact up to float rounding.

Each spec keeps a memo of its weights, by exponent for rho and by degree for
tr and macgyver; it is no dataclass field, so equality, hash and repr ignore it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .poly import Polynomial

NORM_KINDS = ("rho", "tr", "macgyver", "adic")


@dataclass(frozen=True)
class NormSpec:
    kind: str
    rho: Optional[Tuple[float, ...]] = None
    C: Optional[float] = None
    R: Optional[float] = None

    def __post_init__(self):
        kind = self.kind.lower()
        object.__setattr__(self, "kind", kind)
        if kind not in NORM_KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}; expected one of {NORM_KINDS}")
        if kind == "rho":
            if not self.rho or any(r <= 0 for r in self.rho):
                raise ValueError("rho norm needs strictly positive weights")
            object.__setattr__(self, "rho", tuple(float(r) for r in self.rho))
        elif kind == "tr":
            if self.C is None or self.C <= 0:
                raise ValueError("tr norm needs C > 0")
            if self.R is None or self.R < 0:
                raise ValueError("tr norm needs R >= 0")
        elif kind == "macgyver":
            if self.C is None or self.C <= 0:
                raise ValueError("macgyver norm needs C > 0")
        object.__setattr__(self, "_weights", {})

    @staticmethod
    def rho_norm(rho: Sequence[float]) -> "NormSpec":
        return NormSpec("rho", rho=tuple(rho))

    @staticmethod
    def tr_norm(C: float, R: float = 0.0) -> "NormSpec":
        return NormSpec("tr", C=C, R=R)

    @staticmethod
    def macgyver_norm(C: float) -> "NormSpec":
        return NormSpec("macgyver", C=C)

    @staticmethod
    def adic() -> "NormSpec":
        return NormSpec("adic")


def adic_order(f: Polynomial) -> float:
    return f.min_total_degree()


def seminorm(f: Polynomial, spec: NormSpec) -> float:
    """Evaluate a seminorm on a finite polynomial (coefficients to complex)."""
    if spec.kind == "adic":
        return adic_order(f)
    to_complex = f.ring.to_complex
    weights = spec._weights
    total = 0.0
    if spec.kind == "rho":
        if len(spec.rho) != f.dim:
            raise ValueError("rho weight vector length must equal the dimension")
        for K, c in f.terms.items():
            w = weights.get(K)
            if w is None:
                w = 1.0
                for r, e in zip(spec.rho, K):
                    w *= r ** e
                weights[K] = w
            total += abs(to_complex(c)) * w
    elif spec.kind == "tr":
        for K, c in f.terms.items():
            deg = sum(K)
            if deg not in weights:
                weights[deg] = (spec.C ** deg, float(math.factorial(deg)) ** spec.R)
            C_deg, factorial_R = weights[deg]
            total += abs(to_complex(c)) * C_deg * factorial_R
    else:  # macgyver
        for K, c in f.terms.items():
            deg = sum(K)
            if deg not in weights:
                weights[deg] = spec.C ** (deg * deg)
            total += abs(to_complex(c)) * weights[deg]
    return total


def adic_distance(f: Polynomial, g: Polynomial) -> float:
    """Ultrametric 2^(-o(f-g)); zero when f = g."""
    order = adic_order(f - g)
    if order == float("inf"):
        return 0.0
    return 2.0 ** (-order)
