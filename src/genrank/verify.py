"""Seeded self-check suites behind the `verify` subcommand, and the checks they share.

Each invariant the package promises is one `check_*` function, which takes one
instance and returns the failures it found.  The suites run these checks on
small random instances drawn from one master seed (per-suite seeds are derived
in a fixed order), so a failing run reproduces exactly; the acceptance tests
run the same checks on their larger seeded sweeps.
"""

from __future__ import annotations

import copy
import itertools
import random
from fractions import Fraction
from typing import Callable

from .engine import EngineState, empty_state, insert_subspace, insertion_oracle, rho
from .errors import GenrankError
from .fields import DEFAULT_PRIME, FieldSpec
from .linalg import (
    Matrix,
    Subspace,
    determinant,
    dot,
    kernel_in_subspace,
    nullspace,
    rank,
    rref,
    sample_vector,
    span_dim,
    subspace_from_rows,
    zero_subspace,
)
from .partitions import (
    Partition,
    SpanRankCache,
    SubspaceFamily,
    _set_partitions,
    hat_family,
    is_refinement,
    restrict_partition,
    rho_bruteforce,
    rho_of_partition,
)
from .rigidity import (
    Graph,
    laman_oracle,
    required_rank,
    rigidity_evaluation,
    rigidity_family,
    rigidity_randomized_rank,
    rigidity_rank_2d,
    rigidity_report,
)
from .sfm import (
    SubmodularOracle,
    maximality_closure,
    minimize_exhaustive,
    minimize_polynomial,
    verify_submodular,
)
from .symbolic import (
    IntersectionBasis,
    RkInstance,
    intersect_with_codim_k,
    intersect_with_hyperplane,
    randomized_rank,
    rk_evaluation,
    rk_randomized_rank,
    rk_rank,
    split_to_planes,
)

SUITE_NAMES = ("linalg", "partitions", "sfm", "engine", "symbolic", "rigidity")

# The c values every sweep exercises: below, at, between and above typical dims.
C_VALUES = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))

BACKENDS = ("exhaustive", "mnp")

# The two fields the small sweeps run over.
SAMPLE_FIELDS = (FieldSpec.rationals(), FieldSpec.prime(10007))

# (name, graph, planar rank, rigid, degrees of freedom)
NAMED_GRAPHS = (
    ("K3", Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)]), 3, True, 0),
    ("P3", Graph.from_edges(3, [(0, 1), (1, 2)]), 2, False, 1),
    ("C4", Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), 4, False, 1),
    ("K4", Graph.from_edges(4, list(itertools.combinations(range(4), 2))), 5, True, 0),
)


# -- generators (also used by the acceptance tests) ---------------------------

def random_subspace(field: FieldSpec, ambient_dim: int, rng: random.Random,
                    max_dim: int = 3, bound: int = 5) -> Subspace:
    """A nonzero subspace spanned by up to max_dim random vectors."""
    target = rng.randint(1, max_dim)
    while True:
        rows = [sample_vector(field, ambient_dim, rng, bound) for _ in range(target)]
        if any(any(a != 0 for a in row) for row in rows):
            return subspace_from_rows(field, ambient_dim, rows)


def random_family(field: FieldSpec, ambient_dim: int, size: int, rng: random.Random,
                  max_dim: int = 3, dup_rate: float = 0.15, bound: int = 5,
                  min_dim: int = 1) -> SubspaceFamily:
    """A random family; with probability dup_rate a member repeats an earlier one."""
    members: list[Subspace] = []
    for _ in range(size):
        if members and rng.random() < dup_rate:
            members.append(rng.choice(members))
        else:
            while True:
                s = random_subspace(field, ambient_dim, rng, max_dim, bound)
                if s.dim >= min_dim:
                    members.append(s)
                    break
    return SubspaceFamily(field, ambient_dim, tuple(members))


def random_partition(n: int, rng: random.Random) -> Partition:
    """A uniform-ish random set partition of {0..n-1} (random block assignment)."""
    labels = [rng.randrange(n) for _ in range(n)]
    blocks: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        blocks.setdefault(lab, []).append(i)
    return Partition.from_blocks(blocks.values())


def random_graph(n: int, rng: random.Random, edge_prob: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < edge_prob]
    return Graph.from_edges(n, edges)


def graphs_up_to_iso(n: int) -> list[Graph]:
    """Every simple graph on n labeled vertices, one representative per iso class.

    Walks edge-set bitmasks in increasing order; each unseen mask starts a new
    class and its whole orbit under vertex permutations is marked seen.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    index = {pair: i for i, pair in enumerate(pairs)}
    moves = []
    for perm in itertools.permutations(range(n)):
        moves.append(tuple(index[tuple(sorted((perm[u], perm[v])))] for u, v in pairs))
    reps = []
    seen: set[int] = set()
    for mask in range(1 << len(pairs)):
        if mask in seen:
            continue
        reps.append(mask)
        for move in moves:
            image = 0
            m = mask
            while m:
                low = m & -m
                image |= 1 << move[low.bit_length() - 1]
                m ^= low
            seen.add(image)
    return [Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            for mask in reps]


def random_rk_instance(field: FieldSpec, ambient_dim: int, order: int, n_tensors: int,
                       rng: random.Random, bound: int = 5) -> RkInstance:
    tensors = tuple(
        tuple(sample_vector(field, ambient_dim, rng, bound) for _ in range(order))
        for _ in range(n_tensors))
    return RkInstance(field, ambient_dim, order, tensors)


def coverage_oracle(n: int, rng: random.Random, universe: int = 10) -> SubmodularOracle:
    """Random coverage-minus-modular function: submodular by construction."""
    sets = [frozenset(j for j in range(universe) if rng.random() < 0.4) for _ in range(n)]
    weights = [Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(n)]

    def fn(subset: frozenset[int]) -> Fraction:
        covered = set()
        for i in subset:
            covered |= sets[i]
        return Fraction(len(covered)) - sum((weights[i] for i in subset), Fraction(0))

    return SubmodularOracle(n, fn)


def all_minimizing_masks(oracle: SubmodularOracle) -> tuple[Fraction, list[int]]:
    best = oracle.eval_mask(0)
    masks = [0]
    for mask in range(1, 1 << oracle.n):
        v = oracle.eval_mask(mask)
        if v < best:
            best, masks = v, [mask]
        elif v == best:
            masks.append(mask)
    return best, masks


def intersection_dim(family: SubspaceFamily, constraints: Matrix) -> int:
    """dim span of the union of the members' intersections with kernel(constraints):
    the hyperplane construction for one constraint, signed minors for more."""
    if constraints.nrows == 1:
        bases = [intersect_with_hyperplane(f, constraints.rows[0]) for f in family]
    else:
        bases = [intersect_with_codim_k(f, constraints) for f in family]
    vectors = [w for basis in bases for w in basis.vectors]
    return rank(Matrix.from_rows(family.field, vectors, family.ambient_dim)) if vectors else 0


def permutation_contraction(inst: RkInstance, points) -> Matrix:
    """Reference contraction: antisymmetrize entrywise, then contract."""
    k, n, fld = inst.order, inst.ambient_dim, inst.field
    rows = []
    for factors in inst.tensors:
        row = [fld.zero()] * n
        for idx in itertools.product(range(n), repeat=k):
            entry = fld.zero()
            for sigma in itertools.permutations(range(k)):
                term = fld.one()
                for r in range(k):
                    term = fld.mul(term, factors[sigma[r]][idx[r]])
                odd = sum(a > b for a, b in itertools.combinations(sigma, 2)) % 2
                entry = fld.add(entry, fld.neg(term) if odd else term)
            for r in range(k - 1):
                entry = fld.mul(entry, points[r][idx[r]])
            row[idx[-1]] = fld.add(row[idx[-1]], entry)
        rows.append(tuple(row))
    return Matrix(fld, tuple(rows), n)


# -- shared checks: one instance in, the list of failures found out ------------

def _failed(*checks: tuple[bool, str]) -> list[str]:
    """The messages of the (condition, message) pairs whose condition is false."""
    return [message for ok, message in checks if not ok]


def check_rref(m: Matrix) -> list[str]:
    """rref idempotent, rank == column rank, nullspace independent and annihilated."""
    reduced, rk = rref(m)
    kernel = nullspace(m)
    return _failed(
        (rref(reduced) == (reduced, rk) and rk == reduced.nrows,
         "rref not idempotent or kept zero rows"),
        (rank(m) == rk == rank(m.transpose()), "rank, rref rank and column rank disagree"),
        (rk + len(kernel) == m.ncols and
         (not kernel or rank(Matrix.from_rows(m.field, kernel, m.ncols)) == len(kernel)),
         "rank-nullity fails"),
        (all(dot(m.field, row, y) == 0 for y in kernel for row in m.rows),
         "nullspace vector not annihilated"))


def check_kernel_in_subspace(f: Subspace, constraints: Matrix) -> list[str]:
    """kernel_in_subspace lies in f and the constraints' kernel, with the expected dim."""
    inter = kernel_in_subspace(f, constraints)
    mdots = [[dot(f.field, c, b) for b in f.rows] for c in constraints.rows]
    return _failed(
        (all(f.contains(v) and all(dot(f.field, c, v) == 0 for c in constraints.rows)
             for v in inter.rows), "kernel_in_subspace vector invalid"),
        (inter.dim == f.dim - rank(Matrix.from_rows(f.field, mdots, f.dim)),
         "kernel_in_subspace dimension off"))


def sample_orders(n: int) -> list[list[int]]:
    """A few fixed orders of range(n): identity, reversed, evens then odds, a rotation."""
    ident = list(range(n))
    return [ident, ident[::-1], ident[::2] + ident[1::2], ident[n // 2:] + ident[:n // 2]]


def _prefix_masks(order: list[int]) -> list[int]:
    masks, mask = [], 0
    for i in order:
        mask |= 1 << i
        masks.append(mask)
    return masks


def check_span_cache(members: list[Subspace], seed: Subspace | None = None) -> list[str]:
    """SpanRankCache against direct spans: rank on every mask, prefix_ranks along the
    sample orders, and subspace (its stored rows) on every mask.

    seed, when given, supplies the cache's seed rows.  One cache walks the
    orders first and then scans every mask; another scans first and then
    walks, so each way of building states is checked on states the other
    built.  Both then read every mask's subspace twice, largest mask first and
    then smallest first, so a read that changed a state shared with another
    mask shows up in that mask's answer.
    """
    space = seed or members[0]
    fixed = [seed] if seed else []
    masks = range(1 << len(members))

    def selected(mask: int) -> list[Subspace]:
        return fixed + [f for i, f in enumerate(members) if mask >> i & 1]

    def direct_span(mask: int) -> Subspace:
        rows = [row for f in selected(mask) for row in f.rows]
        if not rows:
            return zero_subspace(space.field, space.ambient_dim)
        return subspace_from_rows(space.field, space.ambient_dim, rows)

    def walk(cache: SpanRankCache, label: str) -> list[tuple[bool, str]]:
        return [(cache.prefix_ranks(order) ==
                 [span_dim(selected(m)) for m in _prefix_masks(order)],
                 f"prefix_ranks on {label} cache disagrees with direct span along {order}")
                for order in sample_orders(len(members))]

    def scan(cache: SpanRankCache, label: str) -> list[tuple[bool, str]]:
        return [(cache.rank(mask) == span_dim(selected(mask)),
                 f"span cache ({label}) disagrees with direct span on mask {mask}")
                for mask in masks]

    def read(cache: SpanRankCache, label: str) -> list[tuple[bool, str]]:
        checks = []
        for mask in [*reversed(masks), *masks]:
            got, want = cache.subspace(mask), direct_span(mask)
            checks.append((got == want,
                           f"span cache ({label}) subspace differs from direct span "
                           f"on mask {mask}"))
        return checks

    def new_cache() -> SpanRankCache:
        return SpanRankCache(members, seed.rows if seed else (),
                             space.field, space.ambient_dim)

    walked, scanned = new_cache(), new_cache()
    return _failed(*walk(walked, "fresh"), *scan(walked, "walked"), *read(walked, "walked"),
                   *scan(scanned, "fresh"), *walk(scanned, "scanned"), *read(scanned, "scanned"))


def check_unique_minimizer(family: SubspaceFamily, c) -> list[str]:
    """rho_bruteforce gives the least value and its unique fewest-blocks partition."""
    result = rho_bruteforce(family, c)
    values = [(rho_of_partition(family, pi, c), pi)
              for pi in map(Partition.from_blocks, _set_partitions(len(family)))]
    best = min(v for v, _ in values)
    fewest = min(pi.n_blocks for v, pi in values if v == best)
    winners = [pi for v, pi in values if v == best and pi.n_blocks == fewest]
    return _failed((best == result.value and winners == [result.partition],
                    f"{len(winners)} fewest-block minimizers at c={c}, "
                    f"brute force {result.value} vs {best}"))


def check_engine_matches_bruteforce(family: SubspaceFamily, c) -> list[str]:
    """rho equals rho_bruteforce in value and partition on both SFM backends."""
    brute = rho_bruteforce(family, c)
    fast = {backend: rho(family, c, backend=backend) for backend in BACKENDS}
    return _failed(*(
        ((r.value, r.partition) == (brute.value, brute.partition),
         f"engine/{backend} at c={c}: {r.value} vs brute force {brute.value}")
        for backend, r in fast.items()))


def check_insertion_order(family: SubspaceFamily, c, perm: list[int],
                          backend: str | None = None) -> list[str]:
    """rho of the members taken in order perm, relabeled back, equals rho of the family."""
    reference = rho(family, c, backend=backend)
    result = rho(SubspaceFamily(family.field, family.ambient_dim,
                                tuple(family[i] for i in perm)), c, backend=backend)
    relabeled = result.partition.relabel({j: perm[j] for j in range(len(perm))})
    return _failed(((result.value, relabeled) == (reference.value, reference.partition),
                    f"insertion order {perm} changed the result at c={c}"))


def check_mnp_matches_exhaustive(oracle: SubmodularOracle) -> list[str]:
    """Min-norm point and the exhaustive scan agree on value and maximal minimizer."""
    exact = minimize_exhaustive(oracle)
    wolfe = minimize_polynomial(oracle)
    return _failed(
        (wolfe.value == exact.value,
         f"min-norm-point value {wolfe.value} != exhaustive {exact.value}"),
        (wolfe.minimizer == exact.minimizer, "min-norm-point maximal minimizer differs"))


def check_minimizer_lattice(oracle: SubmodularOracle) -> list[str]:
    """Minimizers (all 2^n sets scanned) form a lattice; their union is the maximal one."""
    _, masks = all_minimizing_masks(oracle)
    mask_set = set(masks)
    union = 0
    for m in masks:
        union |= m
    return _failed(
        (all((a | b) in mask_set and (a & b) in mask_set for a in masks for b in masks),
         "minimizers not a lattice"),
        (minimize_exhaustive(oracle).minimizer ==
         frozenset(j for j in range(oracle.n) if union >> j & 1),
         "exhaustive minimizer is not the union of minimizers"))


def check_insertion_oracle(hat: SubspaceFamily, member: Subspace, c) -> list[str]:
    """Insertion oracle: submodular, a minimizer lattice, minimum == rho_c(hat + member),
    and eval_prefixes along sample orders equal to a fresh oracle's eval_mask."""
    oracle = insertion_oracle(hat, member, c)
    joint = SubspaceFamily(hat.field, hat.ambient_dim, hat.members + (member,))
    chained = insertion_oracle(hat, member, c)
    fresh = insertion_oracle(hat, member, c)
    return _failed(
        (verify_submodular(oracle), "insertion oracle not submodular"),
        (minimize_exhaustive(oracle).value == rho_bruteforce(joint, c).value,
         "oracle minimum != joint partition rank"),
        *((chained.eval_prefixes(order) == [fresh.eval_mask(m) for m in _prefix_masks(order)],
           f"eval_prefixes along {order} != eval_mask")
          for order in sample_orders(len(hat)))) + check_minimizer_lattice(oracle)


def check_hat_spans(state: EngineState, family: SubspaceFamily) -> list[str]:
    """Each hat member's stored rows are those of the canonical span of its block's original rows."""
    failures = []
    for member, block in zip(state.hat, state.blocks):
        direct = subspace_from_rows(family.field, family.ambient_dim,
                                    [row for i in sorted(block) for row in family[i].rows])
        failures += _failed((member == direct,
                             f"hat member for block {sorted(block)} is not its block's span"))
    return failures


def check_rigidity_pebble(graph: Graph) -> list[str]:
    """The planar rank reaches 2n-3 exactly when the pebble game accepts."""
    return _failed(((rigidity_rank_2d(graph) == 2 * graph.n - 3) == laman_oracle(graph),
                    f"rank/pebble-game mismatch on n={graph.n}, edges {graph.edges}"))


def check_named_graph(name: str, graph: Graph, expect_rank: int, expect_rigid: bool,
                      expect_dof: int, rng: random.Random) -> list[str]:
    """A NAMED_GRAPHS entry: its planar report, brute-force rho and randomized rank."""
    report = rigidity_report(graph)
    brute = rho_bruteforce(rigidity_family(graph, 2), 1).value
    randomized = rigidity_randomized_rank(graph, 2, trials=5, rng=rng)
    return _failed(
        ((report.dimension, report.method, report.required, report.rank, report.rigid,
          report.dof) == (2, "deterministic", 2 * graph.n - 3, expect_rank, expect_rigid,
                          expect_dof),
         f"{name}: report ({report.rank}, {report.rigid}, {report.dof})"),
        (brute == expect_rank, f"{name}: brute force gives {brute}"),
        (randomized == expect_rank, f"{name}: randomized rank {randomized}"))


def check_symbolic_rank(inst: RkInstance, trials: int, rng: random.Random) -> list[str]:
    """Deterministic order-k rank == randomized evaluation rank over F_(2^61-1)."""
    deterministic = rk_rank(inst)
    randomized = rk_randomized_rank(inst, DEFAULT_PRIME, trials, rng)
    return _failed((deterministic == randomized,
                    f"order {inst.order}: deterministic {deterministic} != randomized {randomized}"))


def check_randomized_bound(evaluate: Callable[[random.Random], Matrix], field: FieldSpec,
                           bound: int, trials: int, rng: random.Random) -> list[str]:
    """Every one of `trials` evaluations ranks at most `bound`, their maximum equals
    randomized_rank stopped at `bound`, and both leave the rng in one state.

    Draws only from copies of rng's state, so rng itself is not advanced.
    """
    every = copy.copy(rng)
    ranks = [rank(evaluate(random.Random(every.getrandbits(64)))) for _ in range(trials)]
    above = [(trial, rk) for trial, rk in enumerate(ranks, start=1) if rk > bound]
    if above:
        return [f"(trial, rank) {above} above the structural bound {bound}"]
    stopped = copy.copy(rng)
    early = randomized_rank(evaluate, field, trials, stopped, bound=bound)
    return _failed(
        (early == max(ranks), f"rank stopped at bound {bound} is {early}, "
                              f"the maximum over all {trials} trials {max(ranks)}"),
        (stopped.getstate() == every.getstate(), "stopping early left the rng in another state"))


def check_w_basis(basis: IntersectionBasis) -> list[str]:
    """w-vectors lie in the subspace, have zero dots, and span its constraint kernel."""
    f, constraints = basis.subspace, basis.constraints
    return _failed(
        (all(f.contains(w) and all(dot(f.field, c, w) == 0 for c in constraints.rows)
             for w in basis.vectors), "w-vector outside the subspace or with a nonzero dot"),
        (basis.as_subspace() == kernel_in_subspace(f, constraints),
         "w-basis span differs from the exact kernel"))


def check_split_to_planes(family: SubspaceFamily) -> list[str]:
    """split_to_planes yields dim*(dim-1)/2 planes per member and keeps rho_1."""
    planes = split_to_planes(family)
    return _failed(
        (all(p.dim == 2 for p in planes) and
         len(planes) == sum(f.dim * (f.dim - 1) // 2 for f in family),
         f"split produced {len(planes)} members, not all planes of the bases"),
        (rho(planes, 1).value == rho(family, 1).value,
         "splitting to planes changed the c=1 partition rank"))


def check_intersection_identity(family: SubspaceFamily, constraints: Matrix) -> list[str]:
    """rho_k(F) == dim span of the members' intersections with k generic constraints."""
    k = constraints.nrows
    got, expected = intersection_dim(family, constraints), rho(family, k).value
    return _failed((got == expected, f"codim-{k} intersection dim {got} != rho_{k} {expected}"))


# -- suite plumbing ------------------------------------------------------------

class _Check:
    """Collects failure descriptions; caps how many are kept per suite."""

    def __init__(self, cap: int = 10):
        self.failures: list[str] = []
        self._cap = cap
        self._dropped = 0

    def ok(self, condition: bool, message: str):
        if not condition:
            if len(self.failures) < self._cap:
                self.failures.append(message)
            else:
                self._dropped += 1

    def extend(self, messages: list[str], where: str):
        for message in messages:
            self.ok(False, f"{message} ({where})")

    def done(self) -> list[str]:
        if self._dropped:
            self.failures.append(f"... and {self._dropped} more failures")
        return self.failures


def suite_linalg(seed: int) -> list[str]:
    rng = random.Random(seed)
    check = _Check()
    for field in SAMPLE_FIELDS:
        for trial in range(20):
            nrows = rng.randint(1, 5)
            ncols = rng.randint(1, 6)
            m = Matrix.from_rows(
                field, [sample_vector(field, ncols, rng) for _ in range(nrows)], ncols)
            check.extend(check_rref(m), f"{field}, trial {trial}")
        for trial in range(12):
            n = rng.randint(1, 4)
            rows = [sample_vector(field, n, rng) for _ in range(n)]
            if n >= 2:
                singular = list(rows)
                singular[-1] = singular[0]
                check.ok(determinant(field, singular) == 0,
                         f"determinant of repeated-row matrix nonzero (trial {trial})")
                swapped = list(rows)
                swapped[0], swapped[1] = swapped[1], swapped[0]
                check.ok(determinant(field, swapped) == field.neg(determinant(field, rows)),
                         f"determinant not alternating (trial {trial})")
            eye = [tuple(field.one() if i == j else field.zero() for j in range(n))
                   for i in range(n)]
            check.ok(determinant(field, eye) == field.one(),
                     f"determinant of identity != 1 (trial {trial})")
        for trial in range(10):
            ambient = rng.randint(3, 6)
            f = random_subspace(field, ambient, rng)
            for row in f.basis.rows:
                check.ok(f.contains(row), f"subspace misses its own basis row (trial {trial})")
            combo = [field.zero()] * ambient
            for row in f.basis.rows:
                coef = field.from_int(rng.randint(-3, 3))
                combo = [field.add(a, field.mul(coef, b)) for a, b in zip(combo, row)]
            check.ok(f.contains(tuple(combo)), f"combination not contained (trial {trial})")
            k = rng.randint(1, 2)
            constraints = Matrix.from_rows(
                field, [sample_vector(field, ambient, rng) for _ in range(k)], ambient)
            check.extend(check_kernel_in_subspace(f, constraints), f"trial {trial}")
    for field in SAMPLE_FIELDS:
        for trial in range(20):
            a = sample_vector(field, 1, rng)[0]
            check.ok(field.parse(field.format(a)) == a, f"parse/format round trip (trial {trial})")
            if a != 0:
                check.ok(field.mul(a, field.inv(a)) == field.one(),
                         f"inverse fails (trial {trial})")
    return check.done()


def suite_partitions(seed: int) -> list[str]:
    rng = random.Random(seed)
    check = _Check()
    for field in SAMPLE_FIELDS:
        for trial in range(8):
            n = rng.randint(1, 6)
            ambient = rng.randint(3, 6)
            family = random_family(field, ambient, n, rng)
            dims = [f.dim for f in family]
            total_span = span_dim(list(family.members))
            check.extend(check_span_cache(list(family.members)), f"trial {trial}")
            check.extend(check_span_cache(list(family.members[1:]), family[0]),
                         f"trial {trial}, seeded")
            for c in C_VALUES:
                singles = rho_of_partition(family, Partition.singletons(n), c)
                check.ok(singles == sum(Fraction(d) - c for d in dims),
                         f"singleton value wrong (trial {trial}, c={c})")
                whole = rho_of_partition(family, Partition.single_block(n), c)
                check.ok(whole == Fraction(total_span) - c,
                         f"single-block value wrong (trial {trial}, c={c})")
                result = rho_bruteforce(family, c)
                check.ok(result.value <= singles and result.value <= whole,
                         f"brute force above a trivial partition (trial {trial}, c={c})")
                for _ in range(5):
                    pi = random_partition(n, rng)
                    check.ok(result.value <= rho_of_partition(family, pi, c),
                             f"brute force not minimal (trial {trial}, c={c})")
                hat = hat_family(family, result.partition, c)
                check.ok(len(hat) == result.partition.n_blocks,
                         f"hat size != block count (trial {trial}, c={c})")
                for block, member in zip(result.partition.blocks, hat.members):
                    direct = subspace_from_rows(
                        field, ambient,
                        [row for i in block for row in family[i].rows])
                    check.ok(member == direct,
                             f"hat member is not its block span (trial {trial}, c={c})")
    for trial in range(15):
        n = rng.randint(2, 7)
        pi = random_partition(n, rng)
        check.ok(is_refinement(Partition.singletons(n), pi),
                 f"singletons not a refinement (trial {trial})")
        check.ok(is_refinement(pi, Partition.single_block(n)),
                 f"partition does not refine the single block (trial {trial})")
        check.ok(is_refinement(pi, pi), f"refinement not reflexive (trial {trial})")
        subset = frozenset(i for i in range(n) if rng.random() < 0.6)
        if subset:
            restricted = restrict_partition(pi, subset)
            check.ok(restricted.ground == subset,
                     f"restriction ground set wrong (trial {trial})")
            for block in restricted.blocks:
                check.ok(any(set(block) <= set(b) for b in pi.blocks),
                         f"restricted block not inside an original block (trial {trial})")
    return check.done()


def suite_sfm(seed: int) -> list[str]:
    rng = random.Random(seed)
    check = _Check()
    for trial in range(12):
        n = rng.randint(2, 8)
        oracle = coverage_oracle(n, rng)
        check.ok(verify_submodular(oracle, trials=100, rng=rng),
                 f"coverage oracle not submodular (trial {trial})")
        check.extend(check_mnp_matches_exhaustive(oracle), f"trial {trial}")
        if n <= 6:
            check.extend(check_minimizer_lattice(oracle), f"trial {trial}")
        exact = minimize_exhaustive(oracle)
        closure = maximality_closure(oracle, exact.minimizer)
        check.ok(closure == exact.minimizer,
                 f"maximal minimizer not closed (trial {trial})")
        orders = [list(range(n)) for _ in range(5)]
        for order in orders:
            rng.shuffle(order)
        small = min(exact.minimizer) if exact.minimizer else None
        start = frozenset([small]) if small is not None and \
            oracle.eval(frozenset([small])) == exact.value else exact.minimizer
        results = {maximality_closure(oracle, start, order) for order in orders}
        check.ok(len(results) == 1, f"closure depends on scan order (trial {trial})")
    return check.done()


def suite_engine(seed: int) -> list[str]:
    rng = random.Random(seed)
    check = _Check()
    for field in SAMPLE_FIELDS:
        for trial in range(6):
            n = rng.randint(1, 6)
            ambient = rng.randint(3, 7)
            family = random_family(field, ambient, n, rng)
            where = f"{field}, trial {trial}"
            for c in C_VALUES:
                check.extend(check_engine_matches_bruteforce(family, c), where)
                perm = list(range(n))
                rng.shuffle(perm)
                check.extend(check_insertion_order(family, c, perm), where)
            check.ok(rho(family, 0).value == Fraction(span_dim(list(family.members))),
                     f"c=0 shortcut wrong ({where})")
            check.ok(rho(family, -1).value == Fraction(span_dim(list(family.members))) + 1,
                     f"c=-1 shortcut wrong ({where})")
            # stepwise fold: hat discipline, merged spans and oracle consistency
            # at every insertion
            c = Fraction(1)
            for backend in BACKENDS:
                state = empty_state(field, ambient, c)
                for i, member in enumerate(family):
                    if state.hat and backend == "exhaustive":
                        check.extend(check_insertion_oracle(state.hat_family(), member, c),
                                     f"{where}, step {i}")
                    state = insert_subspace(state, member, i, backend=backend)
                    check.extend(check_hat_spans(state, family), f"{where}, {backend}, step {i}")
                    hat_check = rho_bruteforce(state.hat_family(), c)
                    check.ok(hat_check.partition.n_blocks == len(state.hat),
                             f"hat not all singletons ({where}, {backend}, step {i})")
    empty = SubspaceFamily(FieldSpec.rationals(), 3, ())
    result = rho(empty, 1)
    check.ok(result.value == 0 and result.partition.n_blocks == 0,
             "empty family does not give (0, empty partition)")
    return check.done()


def suite_symbolic(seed: int) -> list[str]:
    rng = random.Random(seed)
    check = _Check()
    rational, small_prime = SAMPLE_FIELDS
    for trial in range(8):
        ambient = rng.randint(3, 6)
        inst = random_rk_instance(rational, ambient, 2, rng.randint(1, 6), rng)
        check.extend(check_randomized_bound(*rk_evaluation(inst), 3, rng), f"trial {trial}")
        check.extend(check_symbolic_rank(inst, 3, rng), f"trial {trial}")
    for trial in range(4):
        ambient = rng.randint(4, 6)
        inst = random_rk_instance(rational, ambient, 3, rng.randint(1, 4), rng)
        check.extend(check_randomized_bound(*rk_evaluation(inst), 3, rng), f"trial {trial}")
        check.extend(check_symbolic_rank(inst, 3, rng), f"trial {trial}")
    for field in (rational, small_prime):
        for trial in range(10):
            ambient = rng.randint(3, 6)
            f = random_subspace(field, ambient, rng)
            x = sample_vector(field, ambient, rng)
            if all(a == 0 for a in x):
                continue
            check.extend(check_w_basis(intersect_with_hyperplane(f, x)),
                         f"hyperplane, {field}, trial {trial}")
        for trial in range(6):
            ambient = rng.randint(5, 7)
            k = rng.randint(1, 2)
            f = random_subspace(field, ambient, rng, max_dim=4)
            if f.dim <= k:
                continue
            constraints = Matrix.from_rows(
                field, [sample_vector(field, ambient, rng) for _ in range(k)], ambient)
            check.extend(check_w_basis(intersect_with_codim_k(f, constraints)),
                         f"codim-{k}, {field}, trial {trial}")
    big = FieldSpec.prime(DEFAULT_PRIME)
    for trial in range(6):
        ambient = rng.randint(4, 6)
        family = random_family(big, ambient, rng.randint(1, 4), rng, min_dim=2)
        x = sample_vector(big, ambient, rng)
        check.extend(check_intersection_identity(family, Matrix.from_rows(big, [x], ambient)),
                     f"trial {trial}")
    for trial in range(4):
        ambient = rng.randint(5, 7)
        k = 2
        family = random_family(big, ambient, rng.randint(1, 3), rng,
                               max_dim=ambient - 2, min_dim=k + 1)
        constraints = Matrix.from_rows(
            big, [sample_vector(big, ambient, rng) for _ in range(k)], ambient)
        check.extend(check_intersection_identity(family, constraints), f"trial {trial}")
    for trial in range(4):
        ambient = rng.randint(4, 6)
        family = random_family(rational, ambient, rng.randint(1, 4), rng, min_dim=2)
        check.extend(check_split_to_planes(family), f"trial {trial}")
    return check.done()


def suite_rigidity(seed: int) -> list[str]:
    rng = random.Random(seed)
    check = _Check()
    for n in (2, 3, 4):
        for graph in graphs_up_to_iso(n):
            check.extend(check_rigidity_pebble(graph), "census")
    for trial in range(6):
        n = rng.randint(4, 6)
        graph = random_graph(n, rng)
        check.extend(check_rigidity_pebble(graph), f"trial {trial}")
        for t in (2, 3):
            check.extend(check_randomized_bound(*rigidity_evaluation(graph, t), 5, rng),
                         f"trial {trial}, t={t}")
    k4 = NAMED_GRAPHS[3][1]
    report3 = rigidity_report(k4, t=3, trials=3, seed=rng.randrange(2**32))
    check.ok(report3.rank == 6 and report3.rigid and report3.method == "randomized",
             f"K4 in three dimensions: rank {report3.rank}, rigid {report3.rigid}")
    check.ok(required_rank(4, 3) == 6, "required rank for n=4, t=3 is not 6")
    for entry in NAMED_GRAPHS:
        check.extend(check_named_graph(*entry, rng), "named graphs")
    return check.done()


_SUITES = {
    "linalg": suite_linalg,
    "partitions": suite_partitions,
    "sfm": suite_sfm,
    "engine": suite_engine,
    "symbolic": suite_symbolic,
    "rigidity": suite_rigidity,
}


def suite_seeds(master_seed: int) -> dict[str, int]:
    """Per-suite seeds drawn in the fixed SUITE_NAMES order."""
    base = random.Random(master_seed)
    return {name: base.getrandbits(64) for name in SUITE_NAMES}


def run_suites(names: list[str], master_seed: int) -> dict[str, tuple[bool, list[str]]]:
    """Run the named suites; a crash inside a suite counts as a failure."""
    seeds = suite_seeds(master_seed)
    results: dict[str, tuple[bool, list[str]]] = {}
    for name in names:
        try:
            failures = _SUITES[name](seeds[name])
        except GenrankError as exc:
            failures = [f"raised {type(exc).__name__}: {exc}"]
        results[name] = (not failures, failures)
    return results
