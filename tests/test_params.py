"""The parameter rules, pinned value for value.

``data/parameter_rules.json`` records, for every rule kind (exp_scaled with
lambda > 0, < 0 and = 0, mixed for N = 0..4, a constant), the float value
``evaluate`` gives at a grid of hbar as ``float.hex`` of both parts, and the
exact coefficients of t^0..t^6 of its expansion.  The grid holds real hbar,
both signed zeros as floats and as complex numbers, complex hbar, and the 16
points of the circle of radius 1 on which ``verify._auto_q_bound`` samples
hbar around hbar = 0.5.  Every value must stay bit for bit, signed zeros
included.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from starprod.params import ParameterCatalog, ParameterError, ParameterRule, _parse_constant
from starprod.scalars import GaussRational, RationalQ, RationalQRing
from starprod.verify import Q_DISC_POINTS

TABLE = json.loads((Path(__file__).parent / "data" / "parameter_rules.json").read_text())


def _hbar(entry):
    if isinstance(entry, str):
        return float.fromhex(entry)
    return complex(float.fromhex(entry[0]), float.fromhex(entry[1]))


HBARS = [_hbar(entry) for entry in TABLE["hbars"]]


def _hex(value: complex) -> str:
    return f"{value.real.hex()} {value.imag.hex()}"


def test_the_grid_holds_the_auto_q_circle():
    circle = [complex(math.cos(2 * math.pi * k / Q_DISC_POINTS),
                      math.sin(2 * math.pi * k / Q_DISC_POINTS))
              for k in range(Q_DISC_POINTS)]
    assert HBARS[-Q_DISC_POINTS:] == circle
    assert [repr(h) for h in HBARS[:3]] == ["-0.7", "-0.0", "0.0"]


@pytest.mark.parametrize("text", sorted(TABLE["evaluate"]))
def test_evaluate_is_the_recorded_value_bit_for_bit(text):
    rule = ParameterRule.parse(text)
    got = []
    for hbar in HBARS:
        try:
            got.append(_hex(rule.evaluate(hbar)))
        except ParameterError:
            got.append("pole")
    assert got == TABLE["evaluate"][text]


@pytest.mark.parametrize("text", sorted(TABLE["coefficients"]))
def test_coefficients_are_the_recorded_values(text):
    expected = [GaussRational(*map(Fraction, entry.split()))
                for entry in TABLE["coefficients"][text]]
    assert ParameterRule.parse(text).coefficients(6) == expected


def test_every_rule_and_kind_is_recorded():
    kinds = {ParameterRule.parse(text).rule for text in TABLE["evaluate"]}
    assert kinds == {"exp_i", "exp_neg", "affine", "inverse_affine", "exp_scaled",
                     "mixed", "constant"}
    scales = {ParameterRule.parse(text).scale for text in TABLE["evaluate"]} - {None}
    assert min(scales) < 0 and 0 in scales and max(scales) > 0
    orders = {ParameterRule.parse(text).order for text in TABLE["evaluate"]} - {None}
    assert orders == {0, 1, 2, 3, 4}


def test_resolve_in_the_rational_function_ring():
    ring = RationalQRing()
    assert ParameterRule("formal").resolve(ring) == ring.q
    third = ParameterRule.parse("const:1/3").resolve(ring)
    assert isinstance(third, RationalQ) and third == ring.coerce(GaussRational(Fraction(1, 3)))
    for text in ("exp_i", "exp_neg", "affine", "inverse_affine", "exp_scaled:2", "mixed:1"):
        with pytest.raises(ParameterError, match="rational-function ring"):
            ParameterRule.parse(text).resolve(ring)


@pytest.mark.parametrize("text, re, im", [
    ("2i", 0, 2), ("i", 0, 1), ("-i", 0, -1), ("1+i", 1, 1), ("1-i", 1, -1),
    ("(3/2-1/4i)", Fraction(3, 2), Fraction(-1, 4)), ("-5/7", Fraction(-5, 7), 0),
])
def test_constants_parse_with_and_without_a_real_part(text, re, im):
    assert _parse_constant(text) == GaussRational(Fraction(re), Fraction(im))


def test_object_bindings_give_lambda_order_and_value():
    rules = ParameterCatalog.from_spec({
        "q": {"rule": "exp_scaled", "lambda": "-3/2"},
        "p": {"rule": "mixed", "N": 3},
        "r": {"rule": "constant", "value": "1+i"},
        "s": "exp_neg",
    }).rules
    assert rules["q"] == ParameterRule("exp_scaled", scale=Fraction(-3, 2))
    assert rules["p"] == ParameterRule("mixed", order=3)
    assert rules["r"] == ParameterRule("constant", value=GaussRational(1, 1))
    assert rules["s"] == ParameterRule("exp_neg")


@pytest.mark.parametrize("binding", [3, 1.5, ["exp_i"], None])
def test_a_binding_neither_text_nor_object_is_a_parameter_error(binding):
    with pytest.raises(ParameterError, match="bad binding for 'q'"):
        ParameterCatalog.from_spec({"q": binding})
