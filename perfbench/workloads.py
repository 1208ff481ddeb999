"""Workload fixtures, solve lists and correctness checks.

Fixtures are generated with the standard library alone, from the workload
seed, and written as the JSON documents the genrank loaders accept.  They do
not come from `genrank.verify`: a benchmark input must stay the same when the
program under test changes, so it cannot be drawn by code inside that program.

Each workload fixes the *shape* of its instances (member dimensions, graphs,
instance sizes) and lets the seed draw the numbers: vector entries, residues,
vertex labels and the CLI's evaluation seed.  The work a solve does depends
on the shape (for `rho`, on the hat sizes the engine passes through), so
every seed runs the same work on the same code paths.  A seed-1 and a seed-3
rho-auto pass make the same 9016 oracle evaluations.
"""

from __future__ import annotations

import functools
import json
import os
import random
from fractions import Fraction

P61 = (1 << 61) - 1

# Member dimensions of the rho-auto families (members of Q^8).  In general
# position the engine's hat sizes depend only on these and on c; the comment
# gives the largest hat at c = 1, 3/2, 2.  Every insertion with a hat of at
# most 16 members runs the exhaustive scan, so a hat of h costs 2^h oracle
# evaluations and the pass is dominated by the hats of 9 and 10.
RHO_DIM_SCHEDULES = (
    (2, 1, 3, 3, 3, 3, 3, 3, 3, 1),        # 4, 5, 7
    (2, 2, 3, 2, 3, 3, 2, 2, 3, 3),        # 4, 6, 9
    (2, 3, 2, 1, 3, 2, 2, 3, 2, 2),        # 5, 7, 9
    (1, 3, 1, 2, 3, 3, 1, 1, 3, 1),        # 5, 8, 9
    (3, 2, 1, 3, 3, 3, 3, 2, 2, 1, 1),     # 4, 5, 10
    (3, 1, 2, 2, 3, 3, 3, 1, 2, 1, 1),     # 5, 6, 10
)
RHO_C_VALUES = ("1", "3/2", "2")

# rigidity-2d graphs: n vertices and n*deg/2 edges, average degree 3 (below
# the Laman count 2n-3), 4 (just above it), 5 and 7.  The min-norm-point cost
# of one graph swings by 10x or more between random graphs of one size, so the
# graphs themselves are fixed templates drawn once from TEMPLATE_SEED, and the
# workload seed relabels their vertices: every seed solves the same
# combinatorial problems, in different coordinates.
RIGIDITY_2D_SHAPES = tuple((n, n * deg // 2) for n in (12, 14, 16) for deg in (3, 4, 5, 7))
TEMPLATE_SEED = 0

# identity-fp instance shapes over F_(2^61-1).
R2_SHAPES = ((10, 50), (11, 60), (12, 70))          # (ambient dim, rows)
RK_SHAPES = ((10, 3, 60), (11, 4, 60), (12, 3, 60))  # (ambient dim, k, tensors)
# The t = 3 graphs are templates too, with their labels kept: the cost of
# eliminating a sparse rigidity matrix depends on its fill-in, which the vertex
# order sets.  The seed reaches them through the CLI's --seed, which draws the
# random evaluation points.
T3_SHAPES = ((24, 83), (30, 130), (36, 189))        # (vertices, edges)


def _write(directory: str, name: str, doc: dict) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _random_edges(n: int, m: int, rng: random.Random) -> list[list[int]]:
    """m distinct edges drawn uniformly, listed in lexicographic order."""
    pairs = [[u, v] for u in range(n) for v in range(u + 1, n)]
    return sorted(rng.sample(pairs, m))


def _residues(dim: int, rng: random.Random) -> list[int]:
    return [rng.randrange(P61) for _ in range(dim)]


def build_rho_auto(directory: str, rng: random.Random) -> list[dict]:
    solves = []
    for f, dims in enumerate(RHO_DIM_SCHEDULES):
        doc = {"field": "q", "ambient_dim": 8, "subspaces": [
            [[rng.randint(-5, 5) for _ in range(8)] for _ in range(k)] for k in dims]}
        path = _write(directory, f"family{f}.json", doc)
        for c in RHO_C_VALUES:
            solves.append({"argv": ["rho", path, "--c", c], "file": path, "c": c})
    return solves


def build_rigidity_2d(directory: str, rng: random.Random) -> list[dict]:
    template = random.Random(TEMPLATE_SEED)
    solves = []
    for g, (n, m) in enumerate(RIGIDITY_2D_SHAPES):
        edges = _random_edges(n, m, template)
        label = list(range(n))
        rng.shuffle(label)
        doc = {"n": n, "edges": [[label[u], label[v]] for u, v in edges]}
        path = _write(directory, f"graph{g}.json", doc)
        solves.append({"argv": ["rigidity", path, "--t", "2", "--sfm", "mnp"], "file": path})
    return solves


def build_identity_fp(directory: str, rng: random.Random) -> list[dict]:
    field = {"fp": P61}
    template = random.Random(TEMPLATE_SEED)
    cli_seed = str(rng.randrange(1 << 32))
    solves = []

    def pair(name: str, doc: dict, first: list[str], second: list[str]):
        path = _write(directory, name, doc)
        base = len(solves)
        solves.append({"argv": [first[0], path, *first[1:]], "file": path, "pair": base + 1})
        solves.append({"argv": [second[0], path, *second[1:]], "file": path, "pair": base})

    for i, (d, rows) in enumerate(R2_SHAPES):
        doc = {"field": field, "ambient_dim": d,
               "rows": [{"u": _residues(d, rng), "v": _residues(d, rng)} for _ in range(rows)]}
        pair(f"r2_{i}.json", doc, ["pit-r2"], ["rand-rank", "--seed", cli_seed])
    for i, (d, k, count) in enumerate(RK_SHAPES):
        doc = {"field": field, "ambient_dim": d, "k": k,
               "tensors": [[_residues(d, rng) for _ in range(k)] for _ in range(count)]}
        pair(f"rk_{i}.json", doc, ["pit-rk"], ["rand-rank", "--seed", cli_seed])
    for i, (n, m) in enumerate(T3_SHAPES):
        doc = {"n": n, "edges": _random_edges(n, m, template)}
        pair(f"t3_{i}.json", doc, ["rigidity", "--t", "3", "--seed", cli_seed],
             ["rand-rank", "--t", "3", "--seed", cli_seed])
    return solves


BUILDERS = {
    "rho-auto": build_rho_auto,
    "rigidity-2d": build_rigidity_2d,
    "identity-fp": build_identity_fp,
}


# -- correctness checks --------------------------------------------------------
# A check takes one solve, its parsed output and the parsed outputs of the
# whole pass (to reach a partner solve), and says whether the answer is right.
# Checks run outside the timed region, on unwrapped code, against an
# independent path.

@functools.lru_cache(maxsize=None)
def _family(path: str):
    from genrank.jsonio import load_family, load_json

    return load_family(load_json(path))


def check_rho_auto(solve: dict, out: dict, outputs: list) -> bool:
    """Value and partition match the min-norm-point backend and rho_of_partition."""
    from genrank import Partition, rho, rho_of_partition
    from genrank.jsonio import format_value

    family = _family(solve["file"])
    c = Fraction(solve["c"])
    ref = rho(family, c, backend="mnp")
    return (out["value"] == format_value(ref.value)
            and out["partition"] == ref.partition.to_lists()
            and rho_of_partition(family, Partition.from_blocks(out["partition"]), c)
            == Fraction(out["value"]))


def check_rigidity_2d(solve: dict, out: dict, outputs: list) -> bool:
    """rigid matches the pebble game; rank matches a randomized rank over F_(2^61-1)."""
    from genrank import FieldSpec, Matrix, laman_oracle, randomized_rank
    from genrank.jsonio import load_graph, load_json
    from genrank.rigidity import symbolic_rigidity_row

    graph = load_graph(load_json(solve["file"]))
    field = FieldSpec.prime(P61)

    def evaluate(r: random.Random) -> Matrix:
        x = [r.randrange(P61) for _ in range(2 * graph.n)]
        rows = tuple(tuple(a % P61 for a in symbolic_rigidity_row(graph, 2, e, x))
                     for e in graph.edges)
        return Matrix(field, rows, 2 * graph.n)

    return (out["rigid"] == laman_oracle(graph)
            and out["rank"] == randomized_rank(evaluate, field, trials=5, rng=random.Random(1)))


def check_identity_fp(solve: dict, out: dict, outputs: list) -> bool:
    """A deterministic rank equals the randomized rank of the same file; t = 3 ranks
    are at most the required rank."""
    partner = outputs[solve["pair"]]
    return (partner is not None and out["rank"] == partner["rank"]
            and out["rank"] <= out.get("required", out["rank"]))


CHECKS = {
    "rho-auto": check_rho_auto,
    "rigidity-2d": check_rigidity_2d,
    "identity-fp": check_identity_fp,
}
