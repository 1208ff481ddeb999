"""Generic bar-joint rigidity of graphs via subspace partition rank.

Each edge {u, v} of an n-vertex graph contributes, for target dimension t,
the t-dimensional coordinate subspace spanned by e_{j*n+u} - e_{j*n+v} for
j = 0..t-1 inside K^(t*n).  The generic rank of the parametric rigidity
matrix equals the partition rank of that family at c=1, which is exact and
deterministic for t=2; higher t falls back to randomized evaluation, with the
field-size and trial-count checks of `symbolic.randomized_rank`.  A
(2,3)-pebble game gives an independent combinatorial answer for t=2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .engine import rho
from .errors import BadOrder, BadVertex, DuplicateEdge, LoopEdge, TooFewVertices
from .fields import DEFAULT_PRIME, FieldSpec
from .linalg import Matrix, Subspace, subspace_from_rows
from .partitions import SubspaceFamily
from .symbolic import randomized_rank


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on vertices 0..n-1."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for u, v in self.edges:
            if not (isinstance(u, int) and isinstance(v, int)) or not (0 <= u < self.n and 0 <= v < self.n):
                raise BadVertex(f"edge ({u}, {v}) outside vertex range 0..{self.n - 1}")
            if u == v:
                raise LoopEdge(f"loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise DuplicateEdge(f"edge {key} appears twice")
            seen.add(key)

    @classmethod
    def from_edges(cls, n: int, edges: Sequence[Sequence[int]]) -> "Graph":
        return cls(n, tuple((min(u, v), max(u, v)) for u, v in edges))


@dataclass(frozen=True)
class RigidityReport:
    dimension: int
    rank: int
    required: int
    rigid: bool
    dof: int
    method: str


def edge_subspace(n: int, u: int, v: int, t: int, field: FieldSpec | None = None) -> Subspace:
    """The t-dimensional subspace of K^(t*n) carried by edge {u, v}."""
    if u == v:
        raise BadVertex(f"loop at vertex {u}")
    if not (0 <= u < n and 0 <= v < n):
        raise BadVertex(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
    field = field or FieldSpec.rationals()
    one = field.one()
    rows = []
    for j in range(t):
        row = [field.zero()] * (t * n)
        row[j * n + u] = one
        row[j * n + v] = field.neg(one)
        rows.append(row)
    return subspace_from_rows(field, t * n, rows)


def rigidity_family(graph: Graph, t: int, field: FieldSpec | None = None) -> SubspaceFamily:
    field = field or FieldSpec.rationals()
    members = tuple(edge_subspace(graph.n, u, v, t, field) for u, v in graph.edges)
    return SubspaceFamily(field, t * graph.n, members)


def rigidity_rank_2d(graph: Graph, backend: str | None = None) -> int:
    """Exact generic rank of the planar rigidity matrix."""
    if not graph.edges:
        return 0
    return int(rho(rigidity_family(graph, 2), 1, backend=backend).value)


def symbolic_rigidity_row(graph: Graph, t: int, edge: Sequence[int], x: Sequence) -> tuple:
    """Row of the parametric rigidity matrix for one edge at placement x.

    Columns come in t blocks of n; the entry in block j at vertex u is
    x[j*n+u] - x[j*n+v], the one at v its negation, zero elsewhere.
    """
    u, v = edge
    if not (0 <= u < graph.n and 0 <= v < graph.n) or u == v:
        raise BadVertex(f"bad edge ({u}, {v})")
    if len(x) != t * graph.n:
        raise BadVertex(f"placement has length {len(x)}, expected {t * graph.n}")
    row = [0] * (t * graph.n)
    for j in range(t):
        diff = x[j * graph.n + u] - x[j * graph.n + v]
        row[j * graph.n + u] = diff
        row[j * graph.n + v] = -diff
    return tuple(row)


def rigidity_evaluation(graph: Graph, t: int, prime: int = DEFAULT_PRIME
                        ) -> tuple[Callable[[random.Random], Matrix], FieldSpec, int]:
    """The rigidity matrix at a random placement over F_prime, its field and rank bound.

    A placement's rows are some of the complete graph's rows at that
    placement, and no placement ranks above the complete graph's generic
    rank: for n >= t+1 that is required_rank(n, t), because the trivial
    motions (t translations, t(t-1)/2 rotations) span the kernel at a
    generic placement.  So the bound is min(m, required_rank(n, t)) for m
    edges, and m when n <= t.
    """
    if t < 1:
        raise BadOrder(f"rigidity dimension t must be at least 1, got {t}")
    field = FieldSpec.prime(prime)

    def evaluate(r: random.Random) -> Matrix:
        x = [r.randrange(prime) for _ in range(t * graph.n)]
        rows = tuple(tuple(a % prime for a in symbolic_rigidity_row(graph, t, e, x))
                     for e in graph.edges)
        return Matrix(field, rows, t * graph.n)

    m = len(graph.edges)
    bound = min(m, required_rank(graph.n, t)) if graph.n >= t + 1 else m
    return evaluate, field, bound


def rigidity_randomized_rank(graph: Graph, t: int, prime: int = DEFAULT_PRIME, trials: int = 5,
                             rng: random.Random | None = None) -> int:
    """randomized_rank of the rigidity matrix at random placements over F_prime.

    `trials` is a maximum: evaluation stops at the first placement whose
    rank reaches min(m, t*n - t(t+1)/2) (just m when n <= t), a bound no
    placement exceeds (see `rigidity_evaluation`).
    """
    evaluate, field, bound = rigidity_evaluation(graph, t, prime)
    return randomized_rank(evaluate, field, trials, rng, bound=bound)


def required_rank(n: int, t: int) -> int:
    """Rank of a generically rigid framework: t*n - t(t+1)/2, for n >= t+1."""
    return t * n - t * (t + 1) // 2


def rigidity_report(graph: Graph, t: int = 2, backend: str | None = None,
                    prime: int = DEFAULT_PRIME, trials: int = 5, seed: int = 0) -> RigidityReport:
    """Rank, required rank, rigidity verdict and degrees of freedom.

    t=2 is answered deterministically through the partition rank; t >= 3 has
    no known deterministic reduction, so the rank is the best of at most
    `trials` random evaluations over F_prime, with prime above the edge
    count (a one-sided lower bound that is correct with high probability;
    the trials stop once one reaches min(m, required)).
    """
    if t < 2:
        raise BadOrder(f"rigidity dimension t must be at least 2, got {t}")
    if graph.n <= t:
        raise TooFewVertices(
            f"need at least t+1 = {t + 1} vertices for dimension {t}, got {graph.n}")
    required = required_rank(graph.n, t)
    if t == 2:
        rk = rigidity_rank_2d(graph, backend=backend)
        method = "deterministic"
    else:
        rk = rigidity_randomized_rank(graph, t, prime, trials, random.Random(seed))
        method = "randomized"
    return RigidityReport(
        dimension=t,
        rank=rk,
        required=required,
        rigid=rk == required,
        dof=required - rk,
        method=method,
    )


def laman_oracle(graph: Graph) -> bool:
    """True iff the graph has a spanning minimally rigid (Laman) subgraph.

    Runs the (2,3)-pebble game: every vertex starts with two pebbles, an edge
    is accepted when four pebbles can be gathered on its endpoints, accepted
    edges are oriented and consume a pebble from their tail.  Accepted edges
    are exactly an independent set in the planar rigidity matroid, so the
    graph spans a Laman subgraph iff 2n-3 edges are accepted.
    """
    n = graph.n
    if n < 2:
        raise TooFewVertices(f"need at least 2 vertices, got {n}")
    pebbles = [2] * n
    out: list[set[int]] = [set() for _ in range(n)]

    def fetch_pebble(root: int, protect: tuple[int, int]) -> bool:
        """Pull one pebble to root along reversed directed paths, if any."""
        seen = {protect[0], protect[1]}
        seen.add(root)
        parent: dict[int, int] = {}
        stack = [root]
        goal = None
        while stack and goal is None:
            a = stack.pop()
            for b in out[a]:
                if b in seen:
                    continue
                seen.add(b)
                parent[b] = a
                if pebbles[b] > 0:
                    goal = b
                    break
                stack.append(b)
        if goal is None:
            return False
        pebbles[goal] -= 1
        pebbles[root] += 1
        node = goal
        while node != root:
            prev = parent[node]
            out[prev].discard(node)
            out[node].add(prev)
            node = prev
        return True

    accepted = 0
    for u, v in graph.edges:
        while pebbles[u] + pebbles[v] < 4:
            if not fetch_pebble(u, (u, v)) and not fetch_pebble(v, (u, v)):
                break
        if pebbles[u] + pebbles[v] >= 4:
            pebbles[u] -= 1
            out[u].add(v)
            accepted += 1
    return accepted == 2 * n - 3
