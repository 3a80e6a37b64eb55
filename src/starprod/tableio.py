"""JSON files describing relation tables.

Schema:

    {
      "dimension": 3,
      "kind": "x",
      "ring": "rational" | "complex" | "series" | "rational_q",
      "truncation_order": 8,
      "parameters": {"q": "exp_i", "p": {"rule": "constant", "value": "3/2"}},
      "relations": [{"j": 2, "i": 1, "tail": "(q-1)*x1*x2"}, ...]
    }

The tail strings use the polynomial grammar extended by the parameter
names.  The loader normalizes tails into the standard-ordered commutative
form (sparse exponent maps) and validates the series-mode requirement that
tails start at order t.  A missing field, a field of the wrong JSON type, a
``dimension`` below 1, a relation lacking ``i``, ``j`` or ``tail``, and a pair
``(i, j)`` given twice raise ``TableFileError`` naming the field.
Without a ``ring`` argument the file's declared ring is used.  ``check_table``
parses a file once without building a table, so that a run spec can reject
it when it is loaded.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Dict, Optional

from .params import ParameterCatalog
from .parsing import parse_poly
from .reduction import RelationTable
from .scalars import DEFAULT_TRUNCATION, ComplexRing, Ring, make_ring


class TableFileError(ValueError):
    pass


NUMBER = (int, float)  # the kind of a JSON number
_JSON_NAMES = {dict: "object", list: "list", int: "integer", NUMBER: "number", str: "string"}


def json_typed(value, where: str, kind, error: type):
    """``value`` when it is a JSON ``kind`` (a bool is no number; a number
    comes back as a float), else an ``error`` naming ``where``; the kind
    ``[k]`` is a non-empty list of ``k``."""
    if isinstance(kind, list):
        if not json_typed(value, where, list, error):
            raise error(f"{where}: expected a non-empty JSON list, got []")
        for n, entry in enumerate(value):
            json_typed(entry, f"{where}[{n}]", kind[0], error)
    elif isinstance(value, bool) or not isinstance(value, kind):
        raise error(f"{where}: expected a JSON {_JSON_NAMES[kind]}, "
                    f"got {type(value).__name__}")
    return float(value) if kind is NUMBER else value


_typed = partial(json_typed, error=TableFileError)


def _parse_tails(spec: Dict, ring: Ring, env: Dict):
    """(dimension, kind, tails) of a table file, its tails parsed over ``ring``
    with the parameter values of ``env``."""
    try:
        dim = _typed(spec["dimension"], "dimension", int)
        kind = spec.get("kind", "x")
        relations = _typed(spec["relations"], "relations", list)
    except KeyError as exc:
        raise TableFileError(f"missing field {exc}") from None
    if dim < 1:
        raise TableFileError(f"dimension: expected a positive integer, got {dim}")
    tails = {}
    for n, entry in enumerate(relations):
        _typed(entry, f"relation {n}", dict)
        try:
            key = tuple(_typed(entry[field], f"relation {n}, {field}", int) for field in "ij")
            tail = _typed(entry["tail"], f"relation {n}, tail", str)
        except KeyError as exc:
            raise TableFileError(f"relation {entry!r} lacks field {exc}") from None
        if key in tails:
            raise TableFileError(f"relation (i, j) = {key} given twice")
        tails[key] = parse_poly(tail, dim, ring, kind, params=env)
    return dim, kind, tails


def _rules(spec: Dict) -> ParameterCatalog:
    return ParameterCatalog.from_spec(_typed(spec.get("parameters", {}), "parameters", dict))


def table_from_dict(spec: Dict, hbar: Optional[complex] = None,
                    ring: Optional[Ring] = None) -> RelationTable:
    if ring is None:
        order = _typed(spec.get("truncation_order", DEFAULT_TRUNCATION), "truncation_order", int)
        ring = make_ring(spec.get("ring", "rational"), truncation_order=order)
    rules = _rules(spec)
    dim, kind, tails = _parse_tails(spec, ring, rules.resolve(ring, hbar))
    return RelationTable(ring, dim, kind, tails, name=spec.get("name", "file"))


def check_table(spec: Dict):
    """Parse every tail of a table file once, without building a table.

    Each parameter stands for a complex NaN, which every operation but a
    division by an exact zero accepts, so the text is checked (fields,
    parameter rules, grammar, names, generator indices, divisions by an
    exact zero) and no value at any hbar is.
    """
    _parse_tails(spec, ComplexRing(), dict.fromkeys(_rules(spec).rules,
                                                    complex(math.nan, math.nan)))
