"""Graph type, codecs, composition and noise operations."""

import numpy as np
import pytest

from conftest import EX1_K, random_connected_graph, random_scaffold
from rothlab.graphs import (
    AddIntra,
    DeleteCross,
    Graph,
    apply_noise,
    common_neighbors,
    complement,
    complete_bipartite,
    complete_graph,
    compose,
    connected_components,
    cycle_graph,
    disjoint_union,
    emit_edge_list,
    emit_graph6,
    instance_from_graph,
    is_connected,
    join,
    join_decomposition,
    parse_edge_list,
    parse_graph6,
    path_graph,
)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(0, 3)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(2, 1)}))  # must be stored (min, max)
    g = Graph.from_edges(3, [(2, 1)])
    assert g.has_edge(1, 2) and g.has_edge(2, 1)


def test_constructors():
    assert complete_graph(4).degrees() == [3, 3, 3, 3]
    assert path_graph(5).degrees() == [1, 2, 2, 2, 1]
    assert cycle_graph(5).degrees() == [2, 2, 2, 2, 2]
    with pytest.raises(ValueError):
        cycle_graph(2)
    kb = complete_bipartite(2, 3)
    assert kb.degrees() == [3, 3, 2, 2, 2]
    assert not kb.has_edge(0, 1) and kb.has_edge(0, 2)


def test_union_join_complement():
    g = disjoint_union(complete_graph(2), complete_graph(3))
    assert len(connected_components(g.adjacency())) == 2
    h = join(Graph(2), complete_graph(3))
    assert is_connected(h.adjacency())
    assert h.degree(0) == 3 and h.degree(2) == 4
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 12))
        edges = frozenset(
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
        )
        g = Graph(n, edges)
        assert complement(complement(g)) == g
        # joinees are exactly the complement's components
        assert join_decomposition(g.adjacency()) == connected_components(complement(g).adjacency())


def test_join_decomposition_of_join():
    # P3 is itself a join (center vs its two endpoints), so the maximal
    # decomposition of K2 v P3 has four joinees
    g = join(complete_graph(2), path_graph(3))
    parts = join_decomposition(g.adjacency())
    assert sorted(map(len, parts)) == [1, 1, 1, 2]
    assert join_decomposition(cycle_graph(5).adjacency()) == [list(range(5))]  # indecomposable


def test_graph6_round_trip_small():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 21))
        edges = frozenset(
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        )
        g = Graph(n, edges)
        assert parse_graph6(emit_graph6(g)) == g


def test_graph6_cross_check_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(1, 20))
        edges = frozenset(
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        )
        g = Graph(n, edges)
        # networkx needs the isolated vertices hinted; build with explicit nodes
        gx = nx.Graph()
        gx.add_nodes_from(range(n))
        gx.add_edges_from(g.edges)
        theirs = nx.to_graph6_bytes(gx, header=False).decode().strip()
        assert emit_graph6(g) == theirs
        back = nx.from_graph6_bytes(emit_graph6(g).encode())
        assert set(map(frozenset, back.edges())) == set(map(frozenset, g.edges))


def test_graph6_long_form():
    g = cycle_graph(80)
    enc = emit_graph6(g)
    assert enc.startswith("~")
    assert parse_graph6(enc) == g
    assert parse_graph6(">>graph6<<" + enc) == g


def test_graph6_malformed():
    with pytest.raises(ValueError):
        parse_graph6("")
    with pytest.raises(ValueError):
        parse_graph6("~~A")  # >258 vertices unsupported
    with pytest.raises(ValueError):
        parse_graph6("B" + chr(30))  # char below offset
    with pytest.raises(ValueError):
        parse_graph6("D")  # body too short for n=5
    with pytest.raises(ValueError):
        parse_graph6("A" + chr(63 + 63))  # trailing bits set for n=2


def test_edge_list_round_trip():
    text = "# sample\n0 1\n1 2\n\n3 4  # trailing comment\n"
    g = parse_edge_list(text)
    assert g.n == 5 and g.has_edge(3, 4)
    assert parse_edge_list(emit_edge_list(g)) == g
    with pytest.raises(ValueError):
        parse_edge_list("0 1 2\n")
    with pytest.raises(ValueError):
        parse_edge_list("0 0\n")


def test_compose_shapes_and_blocks(ex1=None):
    inst = compose(7, complete_graph(4), EX1_K)
    assert inst.s == 7 and inst.t == 4 and inst.H.n == 11
    assert inst.G == complete_graph(4) and np.array_equal(inst.A, complete_graph(4).adjacency())
    # column sums of K are the S-degrees
    assert list(inst.K.sum(axis=0)) == [4, 4, 4, 4, 1, 1, 1]
    assert list(inst.K.sum(axis=1)) == [4, 4, 4, 7]
    # H is [[A_G, K], [K^T, 0]]: S = 4..10 is independent in H
    h = inst.H.adjacency()
    assert np.array_equal(h[:4, :4], inst.A) and np.array_equal(h[:4, 4:], EX1_K)
    assert not h[4:, 4:].any()


def test_compose_errors():
    with pytest.raises(ValueError):
        compose(2, complete_graph(3), np.zeros((3, 2), dtype=int))  # zero column
    k = np.array([[1, 0], [0, 1], [0, 0]])
    with pytest.raises(ValueError):
        compose(2, Graph(3), k)  # disconnected H
    with pytest.raises(ValueError):
        compose(2, complete_graph(3), np.array([[2, 1], [1, 1], [1, 1]]))


def test_instance_from_graph_relabel():
    # P5 with S = {0, 2, 4}: relabeled T-first, labels map back
    h = path_graph(5)
    inst = instance_from_graph(h, [0, 2, 4])
    assert inst.s == 3 and inst.t == 2
    assert inst.labels == (1, 3, 0, 2, 4)
    # edge structure preserved under the relabeling
    for a in range(5):
        for b in range(a + 1, 5):
            assert inst.H.has_edge(a, b) == h.has_edge(inst.labels[a], inst.labels[b])
    with pytest.raises(ValueError):
        instance_from_graph(h, [0, 1])  # not independent
    with pytest.raises(ValueError):
        instance_from_graph(h, [9])


def test_common_neighbors_matches_gram():
    rng = np.random.default_rng(5)
    for _ in range(20):
        t, s = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        k = random_scaffold(rng, t, s)
        inst = compose(s, complete_graph(t), k)
        gram = k @ k.T
        for i in range(t):
            for j in range(i + 1, t):
                assert len(common_neighbors(inst, i, j)) == gram[i, j]
    inst = compose(2, complete_graph(2))
    with pytest.raises(ValueError):
        common_neighbors(inst, 1, 1)
    with pytest.raises(ValueError):
        common_neighbors(inst, 0, 3)  # 3 is an S-vertex


def test_apply_noise_explicit_ops():
    base = compose(4, Graph(3))  # K_{4,3} complete scaffold, empty G
    out = apply_noise(base, [DeleteCross(0, 0), AddIntra(0, 1)])
    assert out.K[0, 0] == 0 and out.K.sum() == 11
    assert out.G.has_edge(0, 1)
    with pytest.raises(ValueError):
        apply_noise(out, [DeleteCross(0, 0)])  # already deleted
    with pytest.raises(ValueError):
        apply_noise(out, [AddIntra(0, 1)])  # already added
    with pytest.raises(ValueError):
        apply_noise(base, [AddIntra(0, 5)])  # endpoint outside T


def test_apply_noise_zero_column_rejected():
    # single-1 column: deleting its edge would disconnect that S-vertex
    k = np.ones((3, 4), dtype=int)
    k[1:, 3] = 0
    base = compose(4, complete_graph(3), k)
    with pytest.raises(ValueError):
        apply_noise(base, [DeleteCross(0, 3)])


def test_apply_noise_sampled_deterministic():
    base = compose(5, Graph(4))
    a = apply_noise(base, [DeleteCross(), AddIntra()], seed=42)
    b = apply_noise(base, [DeleteCross(), AddIntra()], seed=42)
    assert np.array_equal(a.K, b.K) and a.G == b.G
    # pinned, so a change in the order moves are sampled in shows
    assert a.K.tolist() == [[1, 0, 1, 1, 1]] + [[1] * 5] * 3 and sorted(a.G.edges) == [(1, 3)]
    c = apply_noise(base, [DeleteCross(), AddIntra()], seed=43)
    assert not (np.array_equal(a.K, c.K) and a.G == c.G)


def test_noise_preserves_validity():
    rng = np.random.default_rng(3)
    base = compose(6, random_connected_graph(rng, 5))
    for seed in range(10):
        out = apply_noise(base, [DeleteCross(), DeleteCross(), AddIntra()], seed=seed)
        assert is_connected(out.H.adjacency())
        assert (out.K.sum(axis=0) >= 1).all()
