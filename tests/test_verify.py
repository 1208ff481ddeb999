"""The verify suites end to end, and the shared checks fed wrong answers."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import genrank.verify as verify
from genrank.cli import main
from genrank.engine import empty_state, insert_subspace
from genrank.fields import FieldSpec
from genrank.linalg import Matrix, subspace_from_rows
from genrank.partitions import SpanRankCache, SubspaceFamily, rho_bruteforce
from genrank.rigidity import rigidity_family
from genrank.sfm import SubmodularOracle
from genrank.symbolic import IntersectionBasis

Q = FieldSpec.rationals()


def test_verify_all_suites_pass(capsys):
    for seed in (0, 1):
        assert main(["verify", "--seed", str(seed)]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "seed": seed, "suites": {name: "pass" for name in verify.SUITE_NAMES}}


def test_shared_checks_flag_wrong_answers(monkeypatch):
    name, k3, rank2, rigid, dof = verify.NAMED_GRAPHS[0]
    assert len(verify.check_named_graph(name, k3, rank2 + 1, rigid, dof, random.Random(0))) == 3
    plane = subspace_from_rows(Q, 3, [(1, 0, 0), (0, 1, 0)])
    stray = IntersectionBasis(plane, Matrix.from_rows(Q, [(1, 1, 0)], 3), ((1, 0, 0),))
    assert len(verify.check_w_basis(stray)) == 2
    # wrong engine, deterministic rank, pebble game and minimizer list
    monkeypatch.setattr(verify, "rho", lambda fam, c, backend=None: rho_bruteforce(fam, c + 1))
    monkeypatch.setattr(verify, "rk_rank", lambda inst: -1)
    monkeypatch.setattr(verify, "laman_oracle", lambda graph: False)
    monkeypatch.setattr(verify, "all_minimizing_masks", lambda oracle: (Fraction(0), [1, 2]))
    family = rigidity_family(k3, 2)
    assert len(verify.check_engine_matches_bruteforce(family, 1)) == 2
    assert verify.check_intersection_identity(family, Matrix.from_rows(Q, [(1, 2, 3, 4, 5, 7)], 6))
    assert verify.check_symbolic_rank(verify.random_rk_instance(Q, 3, 2, 2, random.Random(0)),
                                      1, random.Random(0))
    assert verify.check_rigidity_pebble(k3)
    assert verify.check_minimizer_lattice(SubmodularOracle(2, lambda s: Fraction(0))) == [
        "minimizers not a lattice"]


def test_chain_checks_flag_wrong_answers(monkeypatch):
    members = [subspace_from_rows(Q, 4, rows) for rows in (
        [(1, 0, 0, 0)], [(0, 1, 2, 0)], [(1, 1, 1, 1)], [(0, 0, 1, 0), (1, 0, 0, 3)])]
    family = SubspaceFamily(Q, 4, tuple(members))
    state = empty_state(Q, 4, Fraction(1))
    for i, member in enumerate(members[:3]):
        state = insert_subspace(state, member, i)
    hat = state.hat_family()
    assert verify.check_span_cache(members) == []
    assert verify.check_span_cache(members[1:], members[0]) == []
    assert verify.check_insertion_oracle(hat, members[3], 1) == []
    assert verify.check_hat_spans(state, family) == []
    # a hat member swapped for another block's span
    swapped = type(state)(state.c, state.ambient_dim, state.field,
                          state.hat[::-1], state.blocks)
    assert len(verify.check_hat_spans(swapped, family)) == 2
    # every chain rank off by one: each walk along each sample order fails
    real = SpanRankCache.prefix_ranks
    monkeypatch.setattr(SpanRankCache, "prefix_ranks",
                        lambda self, order: [r + 1 for r in real(self, order)])
    assert len(verify.check_span_cache(members)) == 2 * len(verify.sample_orders(4))
    assert len(verify.check_span_cache(members[1:], members[0])) == 2 * len(
        verify.sample_orders(3))
    assert len(verify.check_insertion_oracle(hat, members[3], 1)) == len(
        verify.sample_orders(len(hat)))
