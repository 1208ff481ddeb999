"""Graph rigidity: deterministic plane rank, randomized t >= 3, pebble game."""

from __future__ import annotations

import random

import pytest

from genrank.errors import (
    BadOrder,
    BadTrials,
    BadVertex,
    CharTooSmall,
    DuplicateEdge,
    LoopEdge,
    TooFewVertices,
)
from genrank.fields import FieldSpec
from genrank.rigidity import (
    Graph,
    edge_subspace,
    laman_oracle,
    required_rank,
    rigidity_evaluation,
    rigidity_family,
    rigidity_randomized_rank,
    rigidity_rank_2d,
    rigidity_report,
    symbolic_rigidity_row,
)
from genrank.verify import (
    NAMED_GRAPHS,
    check_named_graph,
    check_randomized_bound,
    check_rigidity_pebble,
    graphs_up_to_iso,
    random_graph,
)

K3, P3, C4, K4 = (graph for _, graph, *_ in NAMED_GRAPHS)


def test_graph_validation():
    g = Graph.from_edges(3, [(2, 1)])
    assert g.edges == ((1, 2),)
    with pytest.raises(BadVertex):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(LoopEdge):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(DuplicateEdge):
        Graph.from_edges(3, [(0, 1), (1, 0)])


def test_edge_subspace():
    s = edge_subspace(3, 0, 1, 2)
    assert s.ambient_dim == 6 and s.dim == 2
    # block j carries e_{j*n+u} - e_{j*n+v}
    assert s.contains(tuple(map(s.field.from_int, [1, -1, 0, 0, 0, 0])))
    assert s.contains(tuple(map(s.field.from_int, [0, 0, 0, 1, -1, 0])))
    fp = FieldSpec.prime(10007)
    assert edge_subspace(3, 0, 1, 2, fp).field == fp


def test_rigidity_family():
    family = rigidity_family(K3, 2)
    assert len(family) == 3 and family.ambient_dim == 6
    assert all(f.dim == 2 for f in family)
    assert len(rigidity_family(Graph.from_edges(3, []), 2)) == 0


def test_required_rank():
    assert required_rank(3, 2) == 3
    assert required_rank(4, 2) == 5
    assert required_rank(4, 3) == 6
    assert required_rank(5, 3) == 9


def test_named_reports():
    rng = random.Random(0)
    for entry in NAMED_GRAPHS:
        assert check_named_graph(*entry, rng) == []


def test_report_input_validation():
    with pytest.raises(BadOrder):
        rigidity_report(K3, t=1)
    with pytest.raises(TooFewVertices):
        rigidity_report(Graph.from_edges(2, [(0, 1)]), t=2)
    with pytest.raises(TooFewVertices):
        rigidity_report(K3, t=3)
    for t in (0, -1):
        with pytest.raises(BadOrder):
            rigidity_randomized_rank(K4, t)
    for trials in (0, -2):
        with pytest.raises(BadTrials):
            rigidity_report(K4, t=3, trials=trials)


def test_k4_three_dimensions_randomized():
    report = rigidity_report(K4, t=3, seed=0)
    assert report.method == "randomized"
    assert report.rank == 6 and report.rigid and report.dof == 0
    # seeded: the exact same report again
    assert rigidity_report(K4, t=3, seed=0) == report


def test_randomized_rank_stops_at_structural_bound(monkeypatch):
    import genrank.symbolic as symbolic_module

    calls = []
    monkeypatch.setattr(symbolic_module, "rank",
                        lambda m, rank=symbolic_module.rank: calls.append(m) or rank(m))
    k4_plus_edge = Graph.from_edges(6, list(K4.edges) + [(4, 5)])
    # (graph, t, rank, trials evaluated): K4 reaches min(m, t*n - t(t+1)/2) at
    # once in 2-D and 3-D; K4 plus a disjoint edge has rank 6 < min(7, 9) in 2-D
    for graph, t, rk, evaluated in ((K4, 2, 5, 1), (K4, 3, 6, 1), (k4_plus_edge, 2, 6, 5)):
        calls.clear()
        rng = random.Random(4)
        assert rigidity_randomized_rank(graph, t, trials=5, rng=rng) == rk
        assert len(calls) == evaluated
        all_drawn = random.Random(4)
        for _ in range(5):
            all_drawn.getrandbits(64)
        assert rng.getstate() == all_drawn.getstate()


def test_rigidity_early_stop_matches_every_trial():
    rng = random.Random(89)
    for t in (2, 3):
        for _ in range(12):
            graph = random_graph(rng.randint(2, 8), rng, rng.choice((.3, .6, .9)))
            evaluate, field, bound = rigidity_evaluation(graph, t)
            m = len(graph.edges)
            assert bound == (min(m, required_rank(graph.n, t)) if graph.n > t else m)
            assert check_randomized_bound(evaluate, field, bound, 4, rng) == []


def test_randomized_report_needs_prime_above_edge_count():
    k5 = Graph.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    with pytest.raises(CharTooSmall):
        rigidity_report(k5, t=3, prime=2)
    assert rigidity_report(k5, t=3, prime=11).rank == 9


def test_symbolic_row():
    x = list(range(1, 7))  # placement (1,2,3),(4,5,6) for 3 vertices in 2-space
    row = symbolic_rigidity_row(K3, 2, (0, 1), x)
    assert row == (-1, 1, 0, -1, 1, 0)
    with pytest.raises(BadVertex):
        symbolic_rigidity_row(K3, 2, (0, 0), x)
    with pytest.raises(BadVertex):
        symbolic_rigidity_row(K3, 2, (0, 1), x[:4])


def test_laman_oracle_known():
    assert laman_oracle(K3)
    assert not laman_oracle(P3)
    assert not laman_oracle(C4)
    assert laman_oracle(K4)
    # K4 minus one edge is still rigid; C4 plus one diagonal is rigid
    assert laman_oracle(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]))
    assert laman_oracle(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]))
    with pytest.raises(TooFewVertices):
        laman_oracle(Graph.from_edges(1, []))


def test_graphs_up_to_iso_counts():
    expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
    for n, count in expected.items():
        assert len(graphs_up_to_iso(n)) == count


def test_rank_agrees_with_pebble_game_small():
    for n in (2, 3, 4, 5):
        for graph in graphs_up_to_iso(n):
            assert check_rigidity_pebble(graph) == []


def test_rank_agrees_with_pebble_game_random():
    rng = random.Random(83)
    for _ in range(20):
        assert check_rigidity_pebble(random_graph(rng.randint(4, 7), rng)) == []


def test_mnp_rank_at_thirty_vertices():
    # 134 edges, more than any benchmark template: larger hats and Gram entries
    graph = random_graph(30, random.Random(30), .3)
    assert len(graph.edges) == 134
    assert rigidity_rank_2d(graph, backend="mnp") == 57
    assert rigidity_randomized_rank(graph, 2, rng=random.Random(0)) == 57
    assert check_rigidity_pebble(graph) == [] and laman_oracle(graph)


def test_default_backend_rank_at_twenty_vertices():
    # the default backend sends hats above AUTO_EXHAUSTIVE_LIMIT to mnp, so
    # this graph's hats of up to 19 members take about 0.2 s, not seconds
    graph = random_graph(20, random.Random(20), .4)
    assert len(graph.edges) == 92
    assert rigidity_rank_2d(graph) == 37 == rigidity_randomized_rank(graph, 2)


def test_mnp_rank_at_fifty_vertices():
    # the north-star size: 231 edges, hats of up to 40 members
    graph = random_graph(50, random.Random(50), .2)
    assert len(graph.edges) == 231
    assert rigidity_rank_2d(graph, backend="mnp") == 97
    assert rigidity_randomized_rank(graph, 2, rng=random.Random(0)) == 97
    # check_rigidity_pebble's condition at the mnp rank
    assert (97 == 2 * graph.n - 3) == laman_oracle(graph)


def test_overbraced_graph_rank_caps():
    # K5 has 10 edges but plane rank caps at 2n-3 = 7
    k5 = Graph.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    assert rigidity_rank_2d(k5) == 7
    report = rigidity_report(k5)
    assert report.rigid and report.dof == 0
