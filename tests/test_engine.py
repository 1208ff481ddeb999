"""The insertion engine against the brute-force oracle."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from genrank.engine import (
    AUTO_EXHAUSTIVE_LIMIT,
    EngineState,
    empty_state,
    insert_subspace,
    insertion_oracle,
    rho,
)
from genrank.errors import InternalInvariantError, MixedAmbient, NotConverged
from genrank.fields import FieldSpec
from genrank.linalg import span_dim, subspace_from_rows
from genrank.partitions import Partition, SubspaceFamily, rho_bruteforce, rho_of_partition
from genrank.verify import (
    C_VALUES,
    check_engine_matches_bruteforce,
    check_insertion_order,
    random_family,
)

Q = FieldSpec.rationals()
FP = FieldSpec.prime(10007)


def line(field, ambient, coords):
    return subspace_from_rows(field, ambient, [[field.from_int(a) for a in coords]])


def test_insertion_oracle_frozen_example():
    base = SubspaceFamily(Q, 2, (line(Q, 2, [1, 0]), line(Q, 2, [0, 1])))
    g = line(Q, 2, [1, 1])
    oracle = insertion_oracle(base, g, 1)
    assert oracle.eval(frozenset()) == 0
    assert oracle.eval({0}) == 1
    assert oracle.eval({1}) == 1
    assert oracle.eval({0, 1}) == 1


def test_insertion_oracle_empty_base():
    base = SubspaceFamily(Q, 3, ())
    g = subspace_from_rows(Q, 3, [[Fraction(1), Fraction(0), Fraction(0)],
                                  [Fraction(0), Fraction(1), Fraction(0)]])
    oracle = insertion_oracle(base, g, 1)
    assert oracle.n == 0
    assert oracle.eval(frozenset()) == 1  # d(g) - c


def test_insertion_oracle_mixed_ambient():
    base = SubspaceFamily(Q, 3, (line(Q, 3, [1, 0, 0]),))
    with pytest.raises(MixedAmbient):
        insertion_oracle(base, line(Q, 4, [1, 0, 0, 0]), 1)
    with pytest.raises(MixedAmbient):
        insertion_oracle(base, line(FP, 3, [1, 0, 0]), 1)


def test_insert_subspace_steps():
    state = empty_state(Q, 2, Fraction(1))
    state = insert_subspace(state, line(Q, 2, [1, 0]), 0)
    assert len(state.hat) == 1 and state.blocks == (frozenset({0}),)
    state = insert_subspace(state, line(Q, 2, [0, 1]), 1)
    assert len(state.hat) == 2
    # the new line joins nobody: all three stay singletons
    state = insert_subspace(state, line(Q, 2, [1, 1]), 2)
    assert len(state.hat) == 3
    assert state.value() == 0
    assert state.partition() == Partition.singletons(3)


def test_insert_duplicate_plane_merges():
    p = subspace_from_rows(Q, 3, [[Fraction(1), Fraction(0), Fraction(0)],
                                  [Fraction(0), Fraction(1), Fraction(0)]])
    state = empty_state(Q, 3, Fraction(1))
    state = insert_subspace(state, p, 0)
    state = insert_subspace(state, p, 1)
    assert len(state.hat) == 1
    assert state.blocks == (frozenset({0, 1}),)
    assert state.value() == 1


def test_rho_matches_bruteforce_sweep():
    rng = random.Random(45)
    for field in (Q, FP):
        for _ in range(12):
            family = random_family(field, rng.randint(3, 7), rng.randint(0, 6), rng)
            for c in C_VALUES:
                assert check_engine_matches_bruteforce(family, c) == []


def test_rho_insertion_order_independent():
    rng = random.Random(46)
    for _ in range(8):
        n = rng.randint(2, 6)
        family = random_family(Q, 5, n, rng)
        for _ in range(10):
            perm = list(range(n))
            rng.shuffle(perm)
            assert check_insertion_order(family, 1, perm) == []


def test_rho_empty_family():
    result = rho(SubspaceFamily(Q, 3, ()), 1)
    assert result.value == 0
    assert result.partition.n_blocks == 0


def test_rho_nonpositive_c():
    family = SubspaceFamily(Q, 3, (line(Q, 3, [1, 0, 0]), line(Q, 3, [0, 1, 0])))
    result = rho(family, 0)
    assert result.value == 2
    assert result.partition == Partition.single_block(2)
    result = rho(family, -1)
    assert result.value == 3
    assert result.partition == Partition.single_block(2)
    result = rho(family, Fraction(-1, 2))
    assert result.value == Fraction(5, 2)


def test_rho_duplicates_below_c_stay_separate():
    l = line(Q, 3, [1, 0, 0])
    family = SubspaceFamily(Q, 3, (l, l, l))
    result = rho(family, 2)
    assert result.value == -3
    assert result.partition == Partition.singletons(3)
    assert check_engine_matches_bruteforce(family, 2) == []


def test_rho_accepts_string_and_int_c():
    family = SubspaceFamily(Q, 3, (line(Q, 3, [1, 0, 0]),))
    assert rho(family, "1/2").value == Fraction(1, 2)
    assert rho(family, 1).value == 0


def test_large_ground_set_uses_mnp(monkeypatch):
    import genrank.engine as engine_module

    # force the auto path to pick mnp by shrinking the threshold
    monkeypatch.setattr(engine_module, "AUTO_EXHAUSTIVE_LIMIT", 2)
    rng = random.Random(47)
    family = random_family(Q, 5, 6, rng)
    assert rho(family, 1).value == rho_bruteforce(family, 1).value
    assert AUTO_EXHAUSTIVE_LIMIT == 5  # public constant untouched


def test_engine_state_value_and_hat_family():
    state = empty_state(Q, 3, Fraction(1))
    state = insert_subspace(state, line(Q, 3, [1, 0, 0]), 0)
    state = insert_subspace(state, line(Q, 3, [0, 1, 0]), 1)
    hat = state.hat_family()
    assert len(hat) == 2
    assert state.value() == 0
    assert span_dim(list(hat.members)) == 2


def test_check_hat_rejects_equal_spans_at_or_above_c():
    from genrank.engine import _check_hat

    p = subspace_from_rows(Q, 3, [[Fraction(1), Fraction(0), Fraction(0)],
                                  [Fraction(0), Fraction(1), Fraction(0)]])
    with pytest.raises(InternalInvariantError):
        _check_hat([p, p], Fraction(1))
    l = line(Q, 3, [1, 0, 0])
    _check_hat([l, l], Fraction(2))  # below c: allowed


def test_insertion_failures_name_the_insertion(monkeypatch):
    import genrank.sfm as sfm_module

    # a hat that breaks the engine's invariant: two equal planes at c = 2
    plane = subspace_from_rows(Q, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    state = EngineState(Fraction(2), 4, Q, (plane, plane), (frozenset({0}), frozenset({1})))
    g = line(Q, 4, [0, 0, 0, 1])
    with pytest.raises(InternalInvariantError) as info:
        insert_subspace(state, g, 7)
    assert type(info.value) is InternalInvariantError
    message = str(info.value)
    assert "coincide with dimension 2 >= c = 2" in message
    assert message.endswith("(inserting member 7 into a hat of 2, c = 2, backend exhaustive)")
    monkeypatch.setattr(sfm_module, "_WOLFE_MAX_STEPS", 0)
    state = empty_state(Q, 4, Fraction(1, 2))
    state = insert_subspace(state, plane, 0)
    with pytest.raises(NotConverged, match=r"\(inserting member 3 into a hat of 1, "
                                           r"c = 1/2, backend mnp\)$"):
        insert_subspace(state, g, 3, backend="mnp")


def test_mnp_at_two_hundred_members():
    # the north-star family size: 200 members of Q^12, hats of up to 75 members
    family = random_family(Q, 12, 200, random.Random(200), max_dim=3)
    c = Fraction(3, 2)
    result = rho(family, c, backend="mnp")
    assert rho_of_partition(family, result.partition, c) == result.value
    perm = list(range(200))
    random.Random(0).shuffle(perm)
    assert check_insertion_order(family, c, perm, backend="mnp") == []


@pytest.mark.parametrize("run", ["rho", "rho-mnp", "rigidity"])
def test_insertion_path_never_derives_the_fraction_basis(monkeypatch, run):
    """The engine works on Subspace.rows alone: no input or hat member computes basis."""
    import genrank.engine as engine_module
    from genrank.rigidity import rigidity_rank_2d
    from genrank.verify import random_graph

    seen = []
    original = engine_module.insert_subspace

    def recording(state, g, original_index, backend=None):
        new = original(state, g, original_index, backend=backend)
        seen.append(g)
        seen.extend(new.hat)
        return new

    monkeypatch.setattr(engine_module, "insert_subspace", recording)
    if run == "rigidity":
        rigidity_rank_2d(random_graph(12, random.Random(12), .4))
    else:
        family = random_family(Q, 8, 24, random.Random(24), max_dim=2)
        rho(family, Fraction(3, 2), backend="mnp" if run == "rho-mnp" else None)
    assert len(seen) > 24
    assert all("basis" not in vars(s) for s in seen)
