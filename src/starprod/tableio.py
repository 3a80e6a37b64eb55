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
Without a ``ring`` argument the file's declared ring is used.
"""

from __future__ import annotations

from typing import Dict, Optional

from .params import ParameterCatalog
from .parsing import parse_poly
from .reduction import RelationTable
from .scalars import Ring, make_ring


class TableFileError(ValueError):
    pass


def table_from_dict(spec: Dict, hbar: Optional[complex] = None,
                    ring: Optional[Ring] = None) -> RelationTable:
    try:
        dim = int(spec["dimension"])
        kind = spec.get("kind", "x")
        relations = spec["relations"]
    except KeyError as exc:
        raise TableFileError(f"missing field {exc}") from None
    if ring is None:
        ring = make_ring(spec.get("ring", "rational"),
                         truncation_order=int(spec.get("truncation_order", 8)))
    rules = ParameterCatalog.from_spec(spec.get("parameters", {}))
    env = rules.resolve(ring, hbar)
    tails = {}
    for entry in relations:
        try:
            key, tail = (int(entry["i"]), int(entry["j"])), entry["tail"]
        except KeyError as exc:
            raise TableFileError(f"relation {entry!r} lacks field {exc}") from None
        if key in tails:
            raise TableFileError(f"relation (i, j) = {key} given twice")
        tails[key] = parse_poly(tail, dim, ring, kind, params=env)
    return RelationTable(ring, dim, kind, tails, name=spec.get("name", "file"))
