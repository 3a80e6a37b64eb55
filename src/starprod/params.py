"""Evaluation rules for deformation parameters.

A parameter such as q is bound to a rule describing both its value at a
concrete hbar and its exact expansion in the formal variable t:

    exp_i           e^(i*hbar)            1 + it + (it)^2/2! + ...
    exp_neg         e^(-hbar)             1 - t + t^2/2! - ...
    affine          1 + i*hbar            1 + it
    inverse_affine  1/(1 - i*hbar)        1 + it + (it)^2 + ...
    exp_scaled      e^(i*lambda*hbar)     1 + i*lambda*t + ...
    mixed           (N + e^(i(N+1)hbar))/(N+1)
    constant        a fixed scalar
    formal          the indeterminate q itself (rational_q ring only)

Every non-constant rule expands with constant term 1; this is checked when
a catalog is assembled.  Rules with poles reject evaluation there.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

from .scalars import (
    ComplexRing,
    GaussRational,
    RationalQRing,
    RationalRing,
    Ring,
    RingError,
    SeriesRing,
)

RULE_NAMES = ("exp_i", "exp_neg", "affine", "inverse_affine", "exp_scaled",
              "mixed", "constant", "formal")


class ParameterError(ValueError):
    pass


def _parse_constant(text: str) -> GaussRational:
    """Exact constant from text like '3/2', '-1', '1+2i', '2i'."""
    text = text.strip().strip("()")
    m = text
    # split into real and imaginary parts on the last +/- not at the start
    if m.endswith("i"):
        body = m[:-1]
        split = max(body.rfind("+"), body.rfind("-"))
        if split > 0:
            re_part, im_part = body[:split], body[split:]
        else:
            re_part, im_part = "0", body or "1"
        if im_part in ("+", "-"):
            im_part += "1"
        return GaussRational(Fraction(re_part), Fraction(im_part))
    return GaussRational(Fraction(m))


@dataclass(frozen=True)
class ParameterRule:
    """One named evaluation rule, with optional rule-specific constants."""

    rule: str
    value: Optional[GaussRational] = None      # constant
    scale: Optional[Fraction] = None           # lambda for exp_scaled
    order: Optional[int] = None                # N for mixed

    def __post_init__(self):
        if self.rule not in RULE_NAMES:
            raise ParameterError(f"unknown rule {self.rule!r}; expected one of {RULE_NAMES}")
        if self.rule == "constant" and self.value is None:
            raise ParameterError("constant rule needs a value")
        if self.rule == "exp_scaled" and self.scale is None:
            raise ParameterError("exp_scaled rule needs a scale factor")
        if self.rule == "mixed" and (self.order is None or self.order < 0):
            raise ParameterError("mixed rule needs a non-negative order N")

    @staticmethod
    def parse(text: str) -> "ParameterRule":
        """Parse CLI syntax: 'exp_i', 'exp_scaled:1/2', 'mixed:3', 'const:3/2'."""
        name, _, arg = text.partition(":")
        name = name.strip()
        if name in ("const", "constant"):
            return ParameterRule("constant", value=_parse_constant(arg or "1"))
        if name == "exp_scaled":
            return ParameterRule("exp_scaled", scale=Fraction(arg or "1"))
        if name == "mixed":
            return ParameterRule("mixed", order=int(arg or "0"))
        if arg:
            raise ParameterError(f"rule {name!r} takes no argument")
        return ParameterRule(name)

    # -- evaluation ---------------------------------------------------------------

    def evaluate(self, hbar: complex) -> complex:
        if self.rule == "exp_i":
            return cmath.exp(1j * hbar)
        if self.rule == "exp_neg":
            return cmath.exp(-hbar)
        if self.rule == "affine":
            return 1 + 1j * hbar
        if self.rule == "inverse_affine":
            denom = 1 - 1j * hbar
            if abs(denom) < 1e-12:
                raise ParameterError("inverse_affine has a pole at hbar = -i")
            return 1 / denom
        if self.rule == "exp_scaled":
            return cmath.exp(1j * float(self.scale) * hbar)
        if self.rule == "mixed":
            n = self.order
            return (n + cmath.exp(1j * (n + 1) * hbar)) / (n + 1)
        if self.rule == "constant":
            return complex(self.value)
        raise ParameterError(f"rule {self.rule!r} has no numeric evaluation")

    def series(self, ring: SeriesRing):
        """Exact expansion in t up to the ring's truncation order."""
        return ring.from_coefficients(self.coefficients(ring.order))

    def coefficients(self, n: int) -> List[GaussRational]:
        """The coefficients of t^0 .. t^n in the exact expansion."""
        i = GaussRational(0, 1)
        if self.rule == "exp_i":
            coeffs = [i ** k / Fraction(math.factorial(k)) for k in range(n + 1)]
        elif self.rule == "exp_neg":
            coeffs = [GaussRational(Fraction((-1) ** k, math.factorial(k))) for k in range(n + 1)]
        elif self.rule == "affine":
            coeffs = [GaussRational(1), i] + [GaussRational(0)] * (n - 1)
        elif self.rule == "inverse_affine":
            coeffs = [i ** k for k in range(n + 1)]
        elif self.rule == "exp_scaled":
            lam = GaussRational(self.scale)
            coeffs = [(i * lam) ** k / Fraction(math.factorial(k)) for k in range(n + 1)]
        elif self.rule == "mixed":
            m = self.order
            inner = [(i * (m + 1)) ** k / Fraction(math.factorial(k)) for k in range(n + 1)]
            inner[0] = inner[0] + m
            coeffs = [c / Fraction(m + 1) for c in inner]
        elif self.rule == "constant":
            coeffs = [self.value] + [GaussRational(0)] * n
        else:
            raise ParameterError(f"rule {self.rule!r} has no series expansion")
        return coeffs

    def resolve(self, ring: Ring, hbar: Optional[complex] = None):
        """The scalar this rule produces in the given ring."""
        if isinstance(ring, SeriesRing):
            return self.series(ring)
        if isinstance(ring, RationalQRing):
            if self.rule == "formal":
                return ring.q
            if self.rule == "constant":
                return ring.coerce(self.value)
            raise ParameterError(
                f"rule {self.rule!r} cannot live in the rational-function ring; "
                "use 'formal' or 'constant'")
        if isinstance(ring, RationalRing):
            if self.rule != "constant":
                raise ParameterError(
                    f"rule {self.rule!r} is not exact; bind a constant in the rational ring")
            return self.value
        if isinstance(ring, ComplexRing):
            if self.rule == "constant":
                return complex(self.value)
            if hbar is None:
                raise ParameterError(f"rule {self.rule!r} needs hbar for evaluation")
            return self.evaluate(hbar)
        raise RingError(f"unsupported ring {ring!r}")


@dataclass
class ParameterCatalog:
    """Named parameter bindings for one star-product instance."""

    rules: Dict[str, ParameterRule] = field(default_factory=dict)

    def __post_init__(self):
        for name, rule in self.rules.items():
            if rule.rule in ("constant", "formal"):
                continue
            if rule.coefficients(0)[0] != GaussRational(1):
                raise ParameterError(
                    f"parameter {name!r}: expansion of {rule.rule} must start at 1")

    @staticmethod
    def from_spec(spec: Dict) -> "ParameterCatalog":
        """Build from JSON-style bindings: {"q": "exp_i", "p": {"rule": ...}}."""
        rules = {}
        for name, binding in spec.items():
            if isinstance(binding, str):
                rules[name] = ParameterRule.parse(binding)
            elif isinstance(binding, dict):
                kind = binding.get("rule")
                kwargs = {}
                if "value" in binding:
                    kwargs["value"] = _parse_constant(str(binding["value"]))
                if "lambda" in binding:
                    kwargs["scale"] = Fraction(str(binding["lambda"]))
                if "N" in binding:
                    kwargs["order"] = int(binding["N"])
                rules[name] = ParameterRule(kind, **kwargs)
            else:
                raise ParameterError(f"bad binding for {name!r}: {binding!r}")
        return ParameterCatalog(rules)

    def resolve(self, ring: Ring, hbar: Optional[complex] = None) -> Dict[str, object]:
        return {name: rule.resolve(ring, hbar) for name, rule in self.rules.items()}
