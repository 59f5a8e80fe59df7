"""Graph toolkit tests, property-checked against networkx as the oracle."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    DiGraph,
    critical_path,
    has_path,
    longest_path_length,
    reachable_from,
    strongly_connected_components,
    topological_sort,
)
from repro.graphs.algorithms import condensation, critical_path_solver


def build(edges, nodes=()):
    g = DiGraph()
    for n in nodes:
        g.add_node(n)
    for a, b in edges:
        g.add_edge(a, b)
    return g


@st.composite
def random_digraph(draw):
    n = draw(st.integers(2, 12))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=30,
        )
    )
    edges = [(a, b) for a, b in edges if a != b]
    return build(edges, nodes=range(n)), edges, n


@st.composite
def random_dag(draw):
    n = draw(st.integers(2, 12))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=30,
        )
    )
    edges = [(min(a, b), max(a, b)) for a, b in edges if a != b]
    return build(edges, nodes=range(n)), edges, n


class TestBasics:
    def test_add_and_query(self):
        g = build([(1, 2), (2, 3)])
        assert g.has_edge(1, 2)
        assert not g.has_edge(2, 1)
        assert g.successors(2) == [3]
        assert g.predecessors(2) == [1]
        assert len(g) == 3
        assert g.num_edges() == 2

    def test_edge_data_merging(self):
        g = DiGraph()
        g.add_edge("a", "b", kind="data")
        g.add_edge("a", "b", weight=3)
        assert g.edge_data("a", "b") == {"kind": "data", "weight": 3}

    def test_remove_node_cleans_edges(self):
        g = build([(1, 2), (2, 3), (3, 1)])
        g.remove_node(2)
        assert 2 not in g
        assert g.num_edges() == 1  # only 3 -> 1 remains

    def test_subgraph(self):
        g = build([(1, 2), (2, 3), (1, 3)])
        sub = g.subgraph([1, 3])
        assert sub.nodes() == [1, 3] or set(sub.nodes()) == {1, 3}
        assert sub.has_edge(1, 3)
        assert not sub.has_edge(1, 2)

    def test_reversed(self):
        g = build([(1, 2)])
        assert g.reversed().has_edge(2, 1)

    def test_copy_is_independent(self):
        g = build([(1, 2)])
        h = g.copy()
        h.add_edge(2, 3)
        assert not g.has_edge(2, 3)


class TestPaths:
    def test_has_path_direct_and_transitive(self):
        g = build([(1, 2), (2, 3)])
        assert has_path(g, 1, 3)
        assert not has_path(g, 3, 1)

    def test_self_path(self):
        g = build([], nodes=[1])
        assert has_path(g, 1, 1)

    def test_missing_nodes(self):
        g = build([(1, 2)])
        assert not has_path(g, 1, 99)

    @given(random_digraph())
    @settings(max_examples=60, deadline=None)
    def test_reachability_matches_networkx(self, data):
        g, edges, n = data
        nxg = nx.DiGraph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(edges)
        for start in range(n):
            ours = reachable_from(g, start)
            theirs = nx.descendants(nxg, start) | {start}
            assert ours == theirs


class TestTopoSort:
    def test_simple_order(self):
        g = build([(1, 2), (1, 3), (3, 2)])
        order = topological_sort(g)
        assert order.index(1) < order.index(3) < order.index(2)

    def test_cycle_raises(self):
        g = build([(1, 2), (2, 1)])
        with pytest.raises(ValueError):
            topological_sort(g)

    @given(random_dag())
    @settings(max_examples=60, deadline=None)
    def test_order_respects_edges(self, data):
        g, edges, n = data
        order = topological_sort(g)
        pos = {node: i for i, node in enumerate(order)}
        assert len(order) == n
        for a, b in edges:
            assert pos[a] < pos[b]


class TestSCC:
    def test_simple_cycle(self):
        g = build([(1, 2), (2, 1), (2, 3)])
        comps = strongly_connected_components(g)
        assert {1, 2} in comps
        assert {3} in comps

    @given(random_digraph())
    @settings(max_examples=60, deadline=None)
    def test_matches_networkx(self, data):
        g, edges, n = data
        nxg = nx.DiGraph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(edges)
        ours = {frozenset(c) for c in strongly_connected_components(g)}
        theirs = {frozenset(c) for c in nx.strongly_connected_components(nxg)}
        assert ours == theirs

    @given(random_digraph())
    @settings(max_examples=40, deadline=None)
    def test_condensation_is_acyclic(self, data):
        g, _, _ = data
        dag, comp_of = condensation(g)
        topological_sort(dag)  # must not raise
        assert set(comp_of) == set(g.nodes())


class TestCriticalPath:
    def test_chain(self):
        g = build([(1, 2), (2, 3)])
        total, path = critical_path(g, lambda n: float(n))
        assert total == 6.0
        assert path == [1, 2, 3]

    def test_diamond_takes_heavier_branch(self):
        g = build([(1, 2), (1, 3), (2, 4), (3, 4)])
        weights = {1: 1.0, 2: 10.0, 3: 2.0, 4: 1.0}
        total, path = critical_path(g, weights.__getitem__)
        assert total == 12.0
        assert path == [1, 2, 4]

    def test_isolated_heavy_node(self):
        g = build([(1, 2)], nodes=[1, 2, 3])
        weights = {1: 1.0, 2: 1.0, 3: 100.0}
        total, _ = critical_path(g, weights.__getitem__)
        assert total == 100.0

    def test_cycle_collapses_to_sequential_block(self):
        g = build([(1, 2), (2, 1), (2, 3)])
        total, path = critical_path(g, lambda n: 1.0)
        assert total == 3.0  # the 2-cycle runs sequentially, then node 3
        assert set(path) == {1, 2, 3}

    def test_empty_graph(self):
        assert critical_path(DiGraph(), lambda n: 1.0) == (0.0, [])

    @pytest.mark.parametrize(
        "edges",
        [[(1, 2), (1, 3), (2, 4), (3, 4)], [(1, 2), (2, 1), (2, 3), (3, 4), (4, 3)]],
        ids=["dag", "cyclic"],
    )
    def test_one_solver_serves_many_weightings(self, edges):
        g = build(edges, nodes=[5])
        solve = critical_path_solver(g)
        for scale in (1.0, 0.5, 3.0):
            for heavy in (1, 2, 3, 4, 5):
                weight = lambda n: scale * (10.0 if n == heavy else n)  # noqa: E731
                assert solve(weight) == critical_path(g, weight)

    @given(random_dag())
    @settings(max_examples=60, deadline=None)
    def test_matches_networkx_longest_path(self, data):
        g, edges, n = data
        nxg = nx.DiGraph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(set(edges))
        # networkx longest path counts edges; convert node weights=1 paths
        ours = longest_path_length(g)
        theirs = nx.dag_longest_path_length(nxg) + 1  # nodes = edges + 1
        assert ours == theirs

    @given(random_dag())
    @settings(max_examples=40, deadline=None)
    def test_path_weight_consistency(self, data):
        g, _, _ = data
        weight = lambda node: float(node + 1)  # noqa: E731
        total, path = critical_path(g, weight)
        assert total == pytest.approx(sum(weight(n) for n in path))
        # and the path is a real path
        for a, b in zip(path, path[1:]):
            assert g.has_edge(a, b)
