#!/usr/bin/env python3
"""Stress the exact identities on random configurations.

Samples random path configurations for a given period and reruns every
identity the library promises: conservation, both factorization checks,
defining relations, form invariance, eight-vertex parity, signature method
agreement, Casimir extraction, and the loop order product.  Prints a
summary and exits nonzero on the first discrepancy.

Usage: python scripts/fuzz_identities.py [m n k samples seed]
"""

import sys

from vertexmod.configuration import random_config
from vertexmod.lattice import Lattice
from vertexmod.representation import (
    balanced_words,
    build_module,
    casimir,
    check_order_product,
    verify_relations,
)
from vertexmod.scalar import Radical
from vertexmod.topology import components, eight_vertex_violations, overlay
from vertexmod.unitarity import signature_coloring, signature_direct, verify_invariance


def first_failure(cfg, words, tally):
    """(component, identity) of the first identity that fails, or None.

    ``tally`` accumulates the module and negative loop product counts.
    """
    if cfg.conservation_violations():
        return "-", "conservation"
    for kind in ("P", "q"):
        if cfg.mte_violations(kind):
            return "-", f"factorization identity ({kind})"
    for word in words[:5]:
        rep = check_order_product(cfg, word, (-15, 15))
        if not rep.identity_ok:
            return "-", f"loop order product for word {word}: {rep.identity_failures[:2]}"
        tally["negatives"] += len(rep.sign_failures)
    for comp in components(cfg):
        if not comp.finite:
            continue
        rep = build_module(cfg, comp)
        if not verify_relations(rep).ok:
            return comp.id, "defining relations"
        if not verify_invariance(rep).ok:
            return comp.id, "form invariance"
        if eight_vertex_violations(cfg, comp, overlay(cfg, comp)):
            return comp.id, "eight-vertex property"
        if signature_direct(cfg, comp) != signature_coloring(cfg, comp):
            return comp.id, "signature method agreement"
        if not comp.contractible:
            res = casimir(rep, words[0])
            if res.scalar is not None and res.scalar != Radical.xi_power(1):
                return comp.id, f"casimir scalar xi (got {res.scalar})"
        tally["modules"] += 1
    return None


def main() -> int:
    m, n, k, samples, seed0 = (int(x) for x in (sys.argv[1:] + ["5", "2", "2", "200", "0"])[:5])
    lat = Lattice(m, n)
    words = balanced_words(m, n)
    tally = {"modules": 0, "negatives": 0}
    for seed in range(seed0, seed0 + samples):
        cfg = random_config(lat, k, seed)
        failure = first_failure(cfg, words, tally)
        if failure is not None:
            comp, identity = failure
            print(f"seed {seed}, component {comp}: {identity} fails", file=sys.stderr)
            return 1
    print(f"({m},{n}) x {samples} samples: all identities exact on {tally['modules']} modules "
          f"({tally['negatives']} negative loop products seen, as expected)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
