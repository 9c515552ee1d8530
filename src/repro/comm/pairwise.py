"""AD-PSGD's bipartite symmetric-exchange topology.

AD-PSGD (Lian et al., ICML'18) averages parameters pairwise and
*symmetrically*: the active worker blocks until the passive worker
replies. With arbitrary topologies that deadlocks (A waits on B waits
on C waits on A); the fix — adopted by the paper (§IV-C) — is to
split workers into an active and a passive set and only allow
active→passive exchange edges, making the wait-for graph bipartite and
therefore acyclic in the direction of blocking.

:func:`verify_deadlock_free` states that argument as a checkable
property: orienting every possible wait edge from active to passive
yields a DAG (in fact a 2-layer DAG), confirmed by a topological sort.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ExchangeGraph",
    "bipartite_split",
    "build_exchange_graph",
    "verify_deadlock_free",
    "choose_passive_peer",
]


def bipartite_split(world: int) -> tuple[list[int], list[int]]:
    """Split ranks into (active, passive) sets — evens active, odds
    passive, matching the paper's description.

    For ``world == 1`` the single worker is active with no peers (it
    degenerates to sequential SGD).
    """
    if world <= 0:
        raise ValueError("world must be positive")
    active = [r for r in range(world) if r % 2 == 0]
    passive = [r for r in range(world) if r % 2 == 1]
    return active, passive


class ExchangeGraph:
    """Undirected exchange graph: a ``role`` per rank and adjacency sets."""

    def __init__(self, roles: dict[int, str]) -> None:
        self.role = dict(roles)
        self.adj: dict[int, set[int]] = {rank: set() for rank in roles}

    def add_edge(self, u: int, v: int) -> None:
        self.adj[u].add(v)
        self.adj[v].add(u)

    def neighbors(self, rank: int) -> set[int]:
        return self.adj[rank]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in self.adj for v in self.adj[u] if u < v]


def build_exchange_graph(world: int) -> ExchangeGraph:
    """Complete bipartite exchange graph between active and passive sets."""
    active, passive = bipartite_split(world)
    roles = {rank: "active" if rank in active else "passive" for rank in range(world)}
    graph = ExchangeGraph(roles)
    for a in active:
        for p in passive:
            graph.add_edge(a, p)
    return graph


def verify_deadlock_free(graph: ExchangeGraph) -> bool:
    """True iff the blocking-direction orientation of ``graph`` is acyclic.

    Every exchange blocks the active side on the passive side; orienting
    all edges active→passive must give a DAG, which Kahn's algorithm
    confirms by peeling off every rank nobody waits on. Graphs with an
    edge inside one role class (or mislabeled nodes) fail.
    """
    waits_on: dict[int, list[int]] = {rank: [] for rank in graph.adj}
    indegree = dict.fromkeys(graph.adj, 0)
    for u, v in graph.edges():
        if graph.role.get(u) == graph.role.get(v):
            return False  # an intra-class edge could block peer-on-peer
        if graph.role.get(u) != "active":
            u, v = v, u
        waits_on[u].append(v)
        indegree[v] += 1
    ready = [rank for rank, degree in indegree.items() if degree == 0]
    peeled = 0
    while ready:
        peeled += 1
        for v in waits_on[ready.pop()]:
            indegree[v] -= 1
            if indegree[v] == 0:
                ready.append(v)
    return peeled == len(indegree)


def choose_passive_peer(
    rank: int, graph: ExchangeGraph, rng: np.random.Generator
) -> int | None:
    """Uniformly choose a passive neighbour of active worker ``rank``.

    Returns ``None`` when the worker has no neighbours (world of 1).
    """
    neighbors = sorted(graph.neighbors(rank))
    if not neighbors:
        return None
    return int(neighbors[rng.integers(0, len(neighbors))])
