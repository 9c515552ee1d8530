"""Tests for the AD-PSGD bipartite exchange topology."""

import numpy as np
import pytest

from repro.comm.pairwise import (
    bipartite_split,
    build_exchange_graph,
    choose_passive_peer,
    verify_deadlock_free,
)


class TestBipartiteSplit:
    def test_even_split(self):
        active, passive = bipartite_split(8)
        assert active == [0, 2, 4, 6]
        assert passive == [1, 3, 5, 7]

    def test_odd_split(self):
        active, passive = bipartite_split(5)
        assert len(active) == 3
        assert len(passive) == 2
        assert sorted(active + passive) == list(range(5))

    def test_single_worker(self):
        active, passive = bipartite_split(1)
        assert active == [0]
        assert passive == []

    def test_invalid(self):
        with pytest.raises(ValueError):
            bipartite_split(0)


class TestExchangeGraph:
    def test_complete_bipartite(self):
        g = build_exchange_graph(6)
        assert len(g.edges()) == 9  # 3 × 3

    def test_is_bipartite(self):
        """Two-colour the graph by breadth-first search: every edge must
        join differently coloured ranks, whatever the role labels say."""
        g = build_exchange_graph(24)
        colour = {}
        for root in g.adj:
            if root in colour:
                continue
            colour[root] = 0
            frontier = [root]
            while frontier:
                u = frontier.pop()
                for v in g.neighbors(u):
                    if v not in colour:
                        colour[v] = 1 - colour[u]
                        frontier.append(v)
        assert len(colour) == 24
        assert all(colour[u] != colour[v] for u, v in g.edges())

    def test_every_active_has_peers(self):
        g = build_exchange_graph(8)
        for node, role in g.role.items():
            if role == "active":
                assert len(g.neighbors(node)) > 0


class TestDeadlockFreedom:
    @pytest.mark.parametrize("world", [2, 3, 8, 24])
    def test_paper_topology_is_deadlock_free(self, world):
        assert verify_deadlock_free(build_exchange_graph(world))

    def test_intra_class_edge_detected(self):
        """The three-worker cycle from §IV-C: A→B→C→A requires an edge
        inside one role class, which the checker rejects."""
        g = build_exchange_graph(4)
        g.add_edge(0, 2)  # active-active edge
        assert not verify_deadlock_free(g)


class TestPeerChoice:
    def test_only_neighbors_chosen(self):
        g = build_exchange_graph(8)
        rng = np.random.default_rng(0)
        for _ in range(50):
            peer = choose_passive_peer(0, g, rng)
            assert peer in g.neighbors(0)

    def test_no_neighbors_returns_none(self):
        g = build_exchange_graph(1)
        assert choose_passive_peer(0, g, np.random.default_rng(0)) is None

    def test_deterministic_given_rng(self):
        g = build_exchange_graph(8)
        a = [choose_passive_peer(0, g, np.random.default_rng(5)) for _ in range(3)]
        b = [choose_passive_peer(0, g, np.random.default_rng(5)) for _ in range(3)]
        assert a == b
