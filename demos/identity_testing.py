"""Deterministic rank of structured symbolic matrices, without randomness.

An order-k instance antisymmetrizes rank-one k-tensors and contracts them
with k-1 symbolic points; at k = 2 a pair (u, v) gives the row
(u.x) v - (v.x) u.  The generic rank of such a matrix equals a partition
rank of the family of spans, so it can be computed exactly instead of by
plugging in random points.  This script does both and compares.

Run:  python3 demos/identity_testing.py
"""

from __future__ import annotations

import random

from genrank import (
    DEFAULT_PRIME,
    FieldSpec,
    RkInstance,
    rk_family,
    rk_randomized_rank,
    rk_rank,
    split_to_planes,
    rho,
)

Q = FieldSpec.rationals()


def main():
    # Four pairs in K^3.  The first three live in the same plane z=0, so
    # their evaluated rows are forced into a single line inside that plane:
    # three rows, but only one dimension of generic content.
    inst = RkInstance(Q, 3, 2, (
        ((1, 0, 0), (0, 1, 0)),
        ((1, 1, 0), (1, 2, 0)),
        ((2, 1, 0), (0, 3, 0)),
        ((0, 0, 1), (1, 0, 0)),
    ))
    family, dropped = rk_family(inst)
    det = rk_rank(inst)
    print(f"R2 instance: {len(inst.tensors)} rows, {len(family)} nondegenerate, "
          f"dropped {dropped or 'none'}")
    print(f"deterministic generic rank: {det}")

    # Cross-check by actually evaluating at random points mod a large prime.
    rand = rk_randomized_rank(inst, DEFAULT_PRIME, trials=5, rng=random.Random(7))
    print(f"randomized evaluation rank:  {rand}")
    assert det == rand

    # The first three planes coincide, so the optimal partition merges them.
    result = rho(family, 1)
    print(f"optimal partition of the span family: {list(result.partition.blocks)}")

    # A k=3 instance in K^4: two tensors sharing two factors, one independent.
    tensors = (
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)),
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1)),
        ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    )
    rk_inst = RkInstance(Q, 4, 3, tensors)
    det_k = rk_rank(rk_inst)
    rand_k = rk_randomized_rank(rk_inst, DEFAULT_PRIME, trials=5, rng=random.Random(11))
    print(f"\nRk instance (k=3): deterministic {det_k}, randomized {rand_k}")
    assert det_k == rand_k

    # Any family can be split into planes without changing its c=1 value,
    # which is how higher-dimensional members reduce to the order-2 shape.
    planes = split_to_planes(family)
    print(f"\nsplit_to_planes: {len(family)} members -> {len(planes)} planes, "
          f"rho_1 {rho(family, 1).value} -> {rho(planes, 1).value}")


if __name__ == "__main__":
    main()
