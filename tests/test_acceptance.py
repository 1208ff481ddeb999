"""Acceptance gate: every top-level guarantee at its full stated size.

Each test covers one guarantee, runs it on seeded instances at the sizes the
package promises to handle, and prints a single PASS/FAIL line with counts
and elapsed time.  All tolerances are exact equality; randomized comparisons
run over F_p with p = 2^61 - 1, where the per-trial failure probability is
below 10^-17 for every size used here.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from fractions import Fraction

from genrank.engine import empty_state, insert_subspace, rho
from genrank.fields import DEFAULT_PRIME, FieldSpec
from genrank.linalg import Matrix, sample_vector
from genrank.partitions import (
    SubspaceFamily,
    hat_family,
    is_refinement,
    restrict_partition,
    rho_bruteforce,
)
from genrank.symbolic import evaluate_rk_matrix, intersect_with_codim_k, intersect_with_hyperplane
from genrank.verify import (
    BACKENDS,
    C_VALUES,
    NAMED_GRAPHS,
    SAMPLE_FIELDS,
    check_engine_matches_bruteforce,
    check_insertion_oracle,
    check_intersection_identity,
    check_named_graph,
    check_rigidity_pebble,
    check_symbolic_rank,
    check_unique_minimizer,
    check_w_basis,
    graphs_up_to_iso,
    intersection_dim,
    permutation_contraction,
    random_family,
    random_rk_instance,
    random_subspace,
)

BIG = FieldSpec.prime(DEFAULT_PRIME)


def _report(label, failures, detail, start):
    status = "PASS" if not failures else "FAIL"
    elapsed = time.perf_counter() - start
    print(f"{status} {label}: {detail} ({elapsed:.1f}s)")
    assert not failures, f"{label}: " + "; ".join(failures[:5])


def _at(where, messages):
    """Tag the failures a shared check returned with the instance they came from."""
    return [f"{where}: {message}" for message in messages]


def _sweep_families():
    """The 200 seeded families shared by the equivalence and oracle criteria."""
    rng = random.Random(20011)
    families = []
    for field in SAMPLE_FIELDS:
        for _ in range(100):
            ambient = rng.randint(2, 8)
            size = rng.randint(1, 7)
            families.append(random_family(field, ambient, size, rng))
    return families


def test_01_bruteforce_equivalence():
    """rho == rho_bruteforce in value and partition, both backends, 200 families."""
    start = time.perf_counter()
    failures = []
    families = _sweep_families()
    for idx, family in enumerate(families):
        for c in C_VALUES:
            failures += _at(f"family {idx}", check_engine_matches_bruteforce(family, c))
    checked = len(families) * len(C_VALUES) * len(BACKENDS)
    _report("criterion-01 brute-force equivalence", failures,
            f"{checked} engine runs match the brute-force oracle exactly", start)


def test_02_rigidity_ground_truth():
    """rank == 2n-3 iff the pebble game accepts, all graphs with 2..6 vertices.

    One representative per isomorphism class; the single one-vertex graph is
    outside the pebble game's domain (it needs two vertices) and has no edges
    to rank, so the census starts at n = 2.
    """
    start = time.perf_counter()
    failures = []
    checked = 0
    for n in range(2, 7):
        for graph in graphs_up_to_iso(n):
            checked += 1
            failures += check_rigidity_pebble(graph)
    _report("criterion-02 rigidity ground truth", failures,
            f"{checked} graphs agree with the pebble game", start)


def test_03_named_instances():
    """K3, P3, C4, K4: exact reports, brute-force and randomized cross-checks."""
    start = time.perf_counter()
    failures = []
    rng = random.Random(20033)
    for entry in NAMED_GRAPHS:
        failures += check_named_graph(*entry, rng)
    _report("criterion-03 named rigidity instances", failures,
            "K3/P3/C4/K4 exact on all three oracles", start)


def test_04_pit_r2_agreement():
    """Deterministic r2 rank == randomized evaluation rank, 100 instances."""
    start = time.perf_counter()
    failures = []
    rng = random.Random(20044)
    for idx in range(100):
        ambient = rng.randint(2, 10)
        inst = random_rk_instance(FieldSpec.rationals(), ambient, 2, rng.randint(1, 12), rng)
        failures += _at(f"instance {idx}", check_symbolic_rank(inst, 5, rng))
    _report("criterion-04 PIT r2 agreement", failures,
            "100/100 instances: deterministic == randomized", start)


def test_05_pit_rk_agreement():
    """Deterministic rk rank == randomized, 50 k=3 instances; determinant
    expansion == permutation-sum contraction on 20 of them."""
    start = time.perf_counter()
    failures = []
    rng = random.Random(20055)
    for idx in range(50):
        n = rng.randint(4, 6)
        inst = random_rk_instance(FieldSpec.rationals(), n, 3, rng.randint(1, 8), rng)
        failures += _at(f"instance {idx}", check_symbolic_rank(inst, 5, rng))
        if idx < 20:
            points = [sample_vector(inst.field, n, rng) for _ in range(2)]
            if evaluate_rk_matrix(inst, points) != permutation_contraction(inst, points):
                failures.append(f"instance {idx}: expansion != contraction")
    _report("criterion-05 PIT rk agreement", failures,
            "50/50 rank agreements, 20/20 exact contraction matches", start)


def test_06_intersection_identities():
    """rho(F,1) == generic hyperplane intersection dim (100 pairs);
    rho(F,k) == codim-k intersection dim for k in {2,3} (50 pairs)."""
    start = time.perf_counter()
    failures = []
    rng = random.Random(20066)
    for idx in range(100):
        ambient = rng.randint(4, 8)
        family = random_family(BIG, ambient, rng.randint(1, 5), rng, min_dim=2)
        x = sample_vector(BIG, ambient, rng)
        failures += _at(f"hyperplane {idx}", check_intersection_identity(
            family, Matrix.from_rows(BIG, [x], ambient)))
    for idx in range(50):
        k = rng.choice((2, 3))
        ambient = rng.randint(k + 3, 8)
        family = random_family(BIG, ambient, rng.randint(1, 4), rng,
                               max_dim=min(k + 2, ambient - 1), min_dim=k + 1)
        constraints = Matrix.from_rows(
            BIG, [sample_vector(BIG, ambient, rng) for _ in range(k)], ambient)
        failures += _at(f"codim-{k} {idx}", check_intersection_identity(family, constraints))
    _report("criterion-06 intersection identities", failures,
            "100 hyperplane + 50 codim-k identities exact", start)


def test_07_w_basis_exactness():
    """Emitted intersection vectors: zero dots, exact span, 200 pairs."""
    start = time.perf_counter()
    failures = []
    rng = random.Random(20077)
    fields = (*SAMPLE_FIELDS, BIG)
    for idx in range(200):
        field = fields[idx % 3]
        k = rng.choice((1, 1, 2, 3))
        ambient = rng.randint(k + 2, 8)
        f = random_subspace(field, ambient, rng, max_dim=k + 2)
        while f.dim <= k:
            f = random_subspace(field, ambient, rng, max_dim=k + 2)
        if k == 1:
            x = sample_vector(field, ambient, rng)
            while all(a == 0 for a in x):
                x = sample_vector(field, ambient, rng)
            basis = intersect_with_hyperplane(f, x)
        else:
            constraints = Matrix.from_rows(
                field, [sample_vector(field, ambient, rng) for _ in range(k)], ambient)
            basis = intersect_with_codim_k(f, constraints)
        failures += _at(f"pair {idx}", check_w_basis(basis))
    _report("criterion-07 w-basis exactness", failures,
            "200 subspace/constraint pairs: zero dots, exact spans", start)


def test_08_submodularity_and_lattice():
    """Every insertion oracle in the sweep: submodular, minimizers a lattice."""
    start = time.perf_counter()
    failures = []
    oracles = 0
    for idx, family in enumerate(_sweep_families()):
        for c in C_VALUES:
            state = empty_state(family.field, family.ambient_dim, c)
            for i, member in enumerate(family):
                if state.hat:
                    oracles += 1
                    where = f"family {idx}, c={c}, step {i}"
                    if len(state.hat) > 6:
                        failures.append(f"{where}: oracle ground {len(state.hat)} > 6")
                    else:
                        failures += _at(where, check_insertion_oracle(
                            state.hat_family(), member, c))
                state = insert_subspace(state, member, i)
    _report("criterion-08 submodularity and lattice", failures,
            f"{oracles} insertion oracles verified exhaustively", start)


def test_09_structural_properties():
    """Uniqueness, refinement monotonicity, hat replacement/fixpoint/associativity."""
    start = time.perf_counter()
    failures = []
    rng = random.Random(20099)
    for idx in range(100):
        field = FieldSpec.rationals() if idx % 2 else FieldSpec.prime(10007)
        ambient = rng.randint(3, 6)
        c = rng.choice(C_VALUES)
        n_f = rng.randint(1, 5)
        n_g = rng.randint(0, min(3, 7 - n_f))
        family = random_family(field, ambient, n_f, rng)
        extra = random_family(field, ambient, n_g, rng) if n_g else None
        result = rho_bruteforce(family, c)

        failures += _at(f"instance {idx}", check_unique_minimizer(family, c))

        # refinement monotonicity on a random subfamily
        subset = sorted(i for i in range(n_f) if rng.random() < 0.6)
        if subset:
            sub = SubspaceFamily(field, ambient, tuple(family[i] for i in subset))
            sub_pi = rho_bruteforce(sub, c).partition.relabel(
                {j: subset[j] for j in range(len(subset))})
            if not is_refinement(sub_pi, restrict_partition(result.partition, subset)):
                failures.append(f"instance {idx}: refinement fails on {subset}")

        # hat replacement, fixpoint, associativity
        hat = hat_family(family, result.partition, c)
        hat_pi = rho_bruteforce(hat, c).partition
        if hat_pi.n_blocks != len(hat):
            failures.append(f"instance {idx}: hat not all singletons")
        if extra is not None:
            joint = SubspaceFamily(field, ambient, family.members + extra.members)
            replaced = SubspaceFamily(field, ambient, hat.members + extra.members)
            v1 = rho_bruteforce(joint, c)
            v2 = rho_bruteforce(replaced, c)
            if v1.value != v2.value:
                failures.append(f"instance {idx}: hat replacement changes value")
            hat_joint = hat_family(joint, v1.partition, c)
            hat_replaced = hat_family(replaced, v2.partition, c)
            if Counter(hat_joint.members) != Counter(hat_replaced.members):
                failures.append(f"instance {idx}: hat associativity fails")
    _report("criterion-09 structural properties", failures,
            "100 instances: uniqueness, refinement, hat lemmas exact", start)


def test_10_statistical_genericity():
    """Fraction of non-generic hyperplanes stays under the union bound."""
    start = time.perf_counter()
    field = FieldSpec.prime(10007)
    rng = random.Random(20100)
    ambient = 6
    family = random_family(field, ambient, 5, rng, min_dim=2, dup_rate=0.0)
    expected = rho(family, 1).value
    samples = 2000
    mismatches = 0
    for _ in range(samples):
        x = sample_vector(field, ambient, rng)
        if intersection_dim(family, Matrix.from_rows(field, [x], ambient)) != expected:
            mismatches += 1
    q = Fraction(5, 10007)
    bound = float(q) + 3 * math.sqrt(float(q) * (1 - float(q)) / samples)
    failures = []
    if mismatches / samples > bound:
        failures.append(f"{mismatches}/{samples} non-generic, bound {bound:.5f}")
    _report("criterion-10 statistical genericity", failures,
            f"{mismatches}/{samples} non-generic hyperplanes, bound {bound:.5f}", start)
