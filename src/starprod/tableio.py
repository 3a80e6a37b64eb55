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
tails start at order t.  A missing field, a relation lacking ``i``, ``j`` or
``tail``, and a pair ``(i, j)`` given twice raise ``TableFileError``.
Without a ``ring`` argument the file's declared ring is used.  ``check_table``
parses a file once without building a table, so that a run spec can reject
it when it is loaded.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from .params import ParameterCatalog
from .parsing import parse_poly
from .reduction import RelationTable
from .scalars import ComplexRing, Ring, make_ring


class TableFileError(ValueError):
    pass


def _parse_tails(spec: Dict, ring: Ring, env: Dict):
    """(dimension, kind, tails) of a table file, its tails parsed over ``ring``
    with the parameter values of ``env``."""
    try:
        dim = int(spec["dimension"])
        kind = spec.get("kind", "x")
        relations = spec["relations"]
    except KeyError as exc:
        raise TableFileError(f"missing field {exc}") from None
    tails = {}
    for entry in relations:
        try:
            key, tail = (int(entry["i"]), int(entry["j"])), entry["tail"]
        except KeyError as exc:
            raise TableFileError(f"relation {entry!r} lacks field {exc}") from None
        if key in tails:
            raise TableFileError(f"relation (i, j) = {key} given twice")
        tails[key] = parse_poly(tail, dim, ring, kind, params=env)
    return dim, kind, tails


def table_from_dict(spec: Dict, hbar: Optional[complex] = None,
                    ring: Optional[Ring] = None) -> RelationTable:
    if ring is None:
        ring = make_ring(spec.get("ring", "rational"),
                         truncation_order=int(spec.get("truncation_order", 8)))
    rules = ParameterCatalog.from_spec(spec.get("parameters", {}))
    dim, kind, tails = _parse_tails(spec, ring, rules.resolve(ring, hbar))
    return RelationTable(ring, dim, kind, tails, name=spec.get("name", "file"))


def check_table(spec: Dict):
    """Parse every tail of a table file once, without building a table.

    Each parameter stands for a complex NaN, which every operation but a
    division by an exact zero accepts, so the text is checked (fields,
    parameter rules, grammar, names, generator indices, divisions by an
    exact zero) and no value at any hbar is.
    """
    rules = ParameterCatalog.from_spec(spec.get("parameters", {})).rules
    _parse_tails(spec, ComplexRing(), dict.fromkeys(rules, complex(math.nan, math.nan)))
