#!/usr/bin/env python3
"""Sweep hbar to zero and tabulate commutator residuals.

For a chosen catalog, prints one row per hbar with the residual
|(f *_h g - g *_h f)/(i h) - {f, g}|_rho for a few sample pairs.  Output
is plain TSV for external plotting; the order in hbar can be fitted from
it (``star verify``'s classical_limit rows report the fitted orders).

    python scripts/classical_limit_sweep.py --catalog log_canonical
    python scripts/classical_limit_sweep.py --catalog quantum_weyl --pairs 5
"""

import argparse
import random

from starprod.catalog import build_catalog, catalog_poisson
from starprod.norms import NormSpec, seminorm
from starprod.probes import default_hbar_sequence, random_polynomial
from starprod.reduction import poisson_bracket
from starprod.scalars import make_ring


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--catalog", default="log_canonical",
                        choices=["log_canonical", "quantum_weyl", "nonquadratic"])
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--max-degree", type=int, default=3)
    args = parser.parse_args()

    d = 3 if args.catalog == "nonquadratic" else 2
    options = {"lambda": 1} if args.catalog == "quantum_weyl" else {}
    if args.catalog == "nonquadratic":
        options["N"] = 2

    ring = make_ring("complex")
    rng = random.Random(args.seed)
    eta = catalog_poisson(args.catalog, d, options=dict(options))
    spec = NormSpec.rho_norm((1.0,) * d)
    pairs = [(random_polynomial(rng, ring, d, args.max_degree, 2),
              random_polynomial(rng, ring, d, args.max_degree, 2))
             for _ in range(args.pairs)]

    hbars = default_hbar_sequence()
    header = "hbar\t" + "\t".join(f"pair{k}" for k in range(len(pairs)))
    print(header)
    for h in hbars:
        star = build_catalog(args.catalog, ring, d, None, h, dict(options)).star
        row = [f"{h:.3e}"]
        for f, g in pairs:
            delta = (star(f, g) - star(g, f)).scale(1 / (1j * h))
            residual = seminorm(delta - poisson_bracket(eta, f, g), spec)
            row.append(f"{residual:.6e}")
        print("\t".join(row))


if __name__ == "__main__":
    main()
