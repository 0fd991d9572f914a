"""Adjacency constructors, codecs, composition and noise operations."""

import re
import tracemalloc

import numpy as np
import pytest

from conftest import EX1_K, adjacency, edge_list_text, random_connected_graph
from rothlab.census import run_census, ultra_roth_probe
from rothlab.graphs import (
    AddIntra,
    DeleteCross,
    Graph,
    apply_noise,
    block_adjacency,
    complement,
    complete_bipartite,
    complete_graph,
    compose,
    connected_components,
    cycle_graph,
    decode_graph6,
    empty_graph,
    encode_graph6,
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
    assert g.edges == {(1, 2)}


def test_constructors():
    assert complete_graph(4).sum(axis=1).tolist() == [3, 3, 3, 3]
    assert path_graph(5).sum(axis=1).tolist() == [1, 2, 2, 2, 1]
    assert cycle_graph(5).sum(axis=1).tolist() == [2, 2, 2, 2, 2]
    with pytest.raises(ValueError):
        cycle_graph(2)
    kb = complete_bipartite(2, 3)
    assert kb.sum(axis=1).tolist() == [3, 3, 2, 2, 2]
    assert not kb[0, 1] and kb[0, 2]
    # every constructor returns an int64 adjacency matrix
    for a in (empty_graph(3), complete_graph(4), path_graph(5), cycle_graph(5), kb, join(path_graph(2), kb),
              complement(cycle_graph(5)), empty_graph(0), path_graph(1)):
        assert a.dtype == np.int64 and np.array_equal(a, adjacency(len(a), np.argwhere(np.triu(a)).tolist()))


def test_union_join_complement():
    # the complement of a join of complements is the disjoint union
    g = complement(join(complement(complete_graph(2)), complement(complete_graph(3))))
    assert len(connected_components(g)) == 2
    h = join(empty_graph(2), complete_graph(3))
    assert is_connected(h)
    assert h[0].sum() == 3 and h[2].sum() == 4
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 12))
        edges = frozenset(
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
        )
        g = adjacency(n, edges)
        assert np.array_equal(complement(complement(g)), g)
        # joinees are exactly the complement's components
        assert join_decomposition(g) == connected_components(complement(g))


def test_join_decomposition_of_join():
    # P3 is itself a join (center vs its two endpoints), so the maximal
    # decomposition of K2 v P3 has four joinees
    g = join(complete_graph(2), path_graph(3))
    parts = join_decomposition(g)
    assert sorted(map(len, parts)) == [1, 1, 1, 2]
    assert join_decomposition(cycle_graph(5)) == [list(range(5))]  # indecomposable


def test_graph6_round_trip_small():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 21))
        edges = frozenset(
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        )
        a = adjacency(n, edges)
        line = encode_graph6(a[None])[0]
        assert np.array_equal(decode_graph6([line])[0], a)
        assert parse_graph6(line) == Graph(n, edges)


def test_graph6_cross_check_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(1, 20))
        edges = frozenset(
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        )
        line = encode_graph6(adjacency(n, edges)[None])[0]
        # networkx needs the isolated vertices hinted; build with explicit nodes
        gx = nx.Graph()
        gx.add_nodes_from(range(n))
        gx.add_edges_from(edges)
        theirs = nx.to_graph6_bytes(gx, header=False).decode().strip()
        assert line == theirs
        back = nx.from_graph6_bytes(line.encode())
        assert set(map(frozenset, back.edges())) == set(map(frozenset, edges))


def test_graph6_long_form():
    g = cycle_graph(80)
    enc = encode_graph6(g[None])[0]
    assert enc.startswith("~")
    assert np.array_equal(decode_graph6([enc])[0], g)
    assert np.array_equal(decode_graph6([">>graph6<<" + enc])[0], g)
    assert parse_graph6(enc) == Graph.from_edges(80, np.argwhere(np.triu(g)).tolist())


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


# Reference: the per-bit graph6 codec that encode_graph6 and decode_graph6 replaced


def _emit_graph6_bits(n: int, edges) -> str:
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr(((n >> sh) & 0x3F) + 63) for sh in (12, 6, 0))
    nbits = n * (n - 1) // 2
    bits = bytearray(nbits + (-nbits) % 6)
    for (u, v) in edges:
        bits[v * (v - 1) // 2 + u] = 1
    return head + "".join(
        chr(63 + (bits[i] << 5 | bits[i + 1] << 4 | bits[i + 2] << 3 | bits[i + 3] << 2 | bits[i + 4] << 1 | bits[i + 5]))
        for i in range(0, len(bits), 6))


def _parse_graph6_bits(text: str) -> tuple:
    """(n, edge set) of one graph6 line."""
    line = text.strip()
    if line.startswith(">>graph6<<"):
        line = line[10:]
    if not line:
        raise ValueError("empty graph6 input")
    for ch in line:
        if not (63 <= ord(ch) <= 126):
            raise ValueError(f"character {ch!r} outside graph6 range [63,126]")
    if line.startswith("~~"):
        raise ValueError("graphs larger than 258 vertices are not supported")
    if line.startswith("~"):
        if len(line) < 4:
            raise ValueError("malformed graph6 header")
        n = 0
        for ch in line[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        body = line[4:]
    else:
        n = ord(line[0]) - 63
        body = line[1:]
    if n > 258:
        raise ValueError("graphs larger than 258 vertices are not supported")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise ValueError("malformed graph6 header: body length does not match vertex count")
    bits = []
    for ch in body:
        bits.extend(((ord(ch) - 63) >> sh) & 1 for sh in range(5, -1, -1))
    if any(bits[nbits:]):
        raise ValueError("nonzero trailing bits in graph6 input")
    edges, idx = set(), 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.add((u, v))
            idx += 1
    return n, edges


def _random_stack(rng, count: int, n: int, p: float) -> np.ndarray:
    upper = np.triu(rng.random((count, n, n)) < p, 1)
    return upper | np.swapaxes(upper, 1, 2)


def test_graph6_codec_matches_per_bit_reference_and_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(17)
    for n in (0, 1, 2, 3, 5, 6, 7, 62, 63, 64, 258):
        for p in (0.0, 0.3, 1.0):
            a = _random_stack(rng, 3, n, p)
            lines = encode_graph6(a)
            edges = [{tuple(e) for e in np.argwhere(np.triu(m)).tolist()} for m in a]
            assert lines == [_emit_graph6_bits(n, e) for e in edges]
            assert [_parse_graph6_bits(line) for line in lines] == [(n, e) for e in edges]
            back = decode_graph6(lines)
            assert back.dtype == bool and back.shape == (3, n, n) and np.array_equal(back, a)
            for m, line in zip(a, lines):
                gx = nx.Graph()
                gx.add_nodes_from(range(n))
                gx.add_edges_from(np.argwhere(m).tolist())
                assert nx.to_graph6_bytes(gx, header=False).decode().strip() == line
            assert all(parse_graph6(line) == Graph(n, frozenset(e)) for line, e in zip(lines, edges))
    # stacks of any size, and any 0/1 dtype
    a = _random_stack(rng, 500, 9, 0.5)
    assert encode_graph6(a.astype(float)) == encode_graph6(a.astype(np.int64)) == encode_graph6(a)
    assert np.array_equal(decode_graph6(encode_graph6(a)), a)
    assert encode_graph6(np.zeros((0, 5, 5))) == []
    assert decode_graph6([]).shape == (0, 0, 0)


MALFORMED_GRAPH6 = ("", ">>graph6<<", "~~A", "~??", "B" + chr(30), "B" + chr(62), "A" + chr(127), "\U0001F600",
                    "D", "D???", "A" + chr(63 + 63), "~?@C" + "?" * 1000)


def test_graph6_codec_rejects_what_the_reference_rejects():
    good = encode_graph6(np.zeros((2, 5, 5)))
    for bad in MALFORMED_GRAPH6:
        with pytest.raises(ValueError) as ref:
            _parse_graph6_bits(bad)
        with pytest.raises(ValueError, match=f"^{re.escape(str(ref.value))}$"):
            decode_graph6([bad])
        # in a stack the first failing check speaks, which may be the order check
        for stack in (good + [bad], [bad] + good):
            with pytest.raises(ValueError):
                decode_graph6(stack)
    with pytest.raises(ValueError, match="different orders 2 and 5"):
        decode_graph6(["A_"] + good)
    # the same graph in long and short headers is one order
    assert np.array_equal(decode_graph6(["D??", "~??D??"]), np.zeros((2, 5, 5), dtype=bool))


def test_graph6_codec_refuses_an_oversize_order_before_allocating():
    # order 2000 would need megabytes; neither side may allocate them before refusing
    big = np.broadcast_to(np.uint8(0), (1, 2000, 2000))
    header = "~" + "".join(chr(((2000 >> sh) & 0x3F) + 63) for sh in (12, 6, 0))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="larger than 258"):
            encode_graph6(big)
        with pytest.raises(ValueError, match="larger than 258"):
            decode_graph6([header + "?" * 6])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_edge_list_round_trip():
    text = "# sample\n0 1\n1 2\n\n3 4  # trailing comment\n"
    g = parse_edge_list(text)
    assert g.dtype == np.int64 and np.array_equal(g, adjacency(5, [(0, 1), (1, 2), (3, 4)]))
    assert np.array_equal(parse_edge_list(edge_list_text(g)), g)
    # reversed and repeated pairs name the same edges
    assert np.array_equal(parse_edge_list("1 0\n2 1\n0 1\n4 3\n3 4\n3 4\n"), g)
    assert parse_edge_list("# nothing\n").shape == (0, 0)
    with pytest.raises(ValueError, match="bad edge-list line"):
        parse_edge_list("0 1 2\n")
    with pytest.raises(ValueError, match="loop at vertex 0"):
        parse_edge_list("0 0\n")
    with pytest.raises(ValueError, match="nonnegative"):
        parse_edge_list("0 -1\n")


def test_compose_shapes_and_blocks(ex1=None):
    inst = compose(7, complete_graph(4), EX1_K)
    assert inst.s == 7 and inst.t == 4
    assert np.array_equal(inst.A, complete_graph(4))
    # column sums of K are the S-degrees
    assert list(inst.K.sum(axis=0)) == [4, 4, 4, 4, 1, 1, 1]
    assert list(inst.K.sum(axis=1)) == [4, 4, 4, 7]
    # H is [[A_G, K], [K^T, 0]]: S = 4..10 is independent in H
    h = block_adjacency(inst.A, inst.K)
    assert h.shape == (11, 11)
    assert np.array_equal(h[:4, :4], inst.A) and np.array_equal(h[:4, 4:], EX1_K)
    assert not h[4:, 4:].any()


def test_compose_errors():
    with pytest.raises(ValueError):
        compose(2, complete_graph(3), np.zeros((3, 2), dtype=int))  # zero column
    k = np.array([[1, 0], [0, 1], [0, 0]])
    with pytest.raises(ValueError):
        compose(2, empty_graph(3), k)  # disconnected H
    # G-edges join what the scaffold leaves apart, and reach a T-vertex without S-neighbours
    assert compose(2, adjacency(3, [(0, 2), (1, 2)]), k).t == 3
    with pytest.raises(ValueError):
        compose(2, complete_graph(3), np.array([[2, 1], [1, 1], [1, 1]]))
    # fractional entries are refused, not truncated to 0/1
    for k in ([[0.5, 1], [1, 1], [1, 1.7]], np.array([[1, 1], [1, 1], [1, 1.7]])):
        with pytest.raises(ValueError, match="0/1"):
            compose(2, complete_graph(3), k)


def test_instance_from_graph_relabel():
    # P5 with S = {0, 2, 4}: relabeled T-first, labels map back
    h = path_graph(5)
    inst = instance_from_graph(h, [0, 2, 4])
    assert inst.s == 3 and inst.t == 2
    assert inst.labels == (1, 3, 0, 2, 4)
    # edge structure preserved under the relabeling
    labels = list(inst.labels)
    assert np.array_equal(block_adjacency(inst.A, inst.K), h[np.ix_(labels, labels)])
    with pytest.raises(ValueError):
        instance_from_graph(h, [0, 1])  # not independent
    with pytest.raises(ValueError):
        instance_from_graph(h, [9])


def test_instance_from_graph_refuses_empty_s():
    # an empty S would leave the oracle nothing to decide
    with pytest.raises(ValueError, match="at least one vertex"):
        instance_from_graph(path_graph(5), [])


BAD_ADJACENCY = {
    "non-square": (np.ones((3, 4), dtype=np.int64), "square"),
    "a 2": (np.where(complete_graph(3) == 1, 2, 0), "0/1"),
    "asymmetric": (np.triu(complete_graph(3)), "symmetric"),
    "a loop": (np.ones((3, 3), dtype=np.int64), "loop-free"),
}
ADJACENCY_CALLERS = {
    "compose": lambda a, out: compose(2, a),
    "instance_from_graph": lambda a, out: instance_from_graph(a, [0]),
    "run_census": lambda a, out: run_census(3, 2, g=a, out_dir=out),
    "ultra_roth_probe": lambda a, out: ultra_roth_probe(np.ones((3, 2), dtype=np.int64), a[None]),
}


@pytest.mark.parametrize("case", BAD_ADJACENCY)
@pytest.mark.parametrize("caller", ADJACENCY_CALLERS)
def test_adjacency_refused_by_every_caller(caller, case, tmp_path):
    bad, match = BAD_ADJACENCY[case]
    good = complete_graph(3)
    ADJACENCY_CALLERS[caller](good, str(tmp_path / "good"))
    with pytest.raises(ValueError, match=match):
        ADJACENCY_CALLERS[caller](bad, str(tmp_path / "bad"))
    assert not (tmp_path / "bad").exists()  # refused before the census writes anything


def test_apply_noise_explicit_ops():
    base = compose(4, empty_graph(3))  # K_{4,3} complete scaffold, empty G
    out = apply_noise(base, [DeleteCross(0, 0), AddIntra(0, 1)])
    assert out.K[0, 0] == 0 and out.K.sum() == 11
    assert out.A[0, 1] == out.A[1, 0] == 1
    with pytest.raises(ValueError):
        apply_noise(out, [DeleteCross(0, 0)])  # already deleted
    with pytest.raises(ValueError):
        apply_noise(out, [AddIntra(0, 1)])  # already added
    with pytest.raises(ValueError):
        apply_noise(base, [AddIntra(0, 5)])  # endpoint outside T


def test_apply_noise_refuses_a_loop():
    # AddIntra(i, i) would put a loop in G, and H would no longer be simple
    base = compose(3, path_graph(4))
    with pytest.raises(ValueError, match="loop"):
        apply_noise(base, [AddIntra(2, 2)])
    assert base.A[2, 2] == 0


def test_apply_noise_zero_column_rejected():
    # single-1 column: deleting its edge would disconnect that S-vertex
    k = np.ones((3, 4), dtype=int)
    k[1:, 3] = 0
    base = compose(4, complete_graph(3), k)
    with pytest.raises(ValueError):
        apply_noise(base, [DeleteCross(0, 3)])


def test_apply_noise_sampled_deterministic():
    base = compose(5, empty_graph(4))
    a = apply_noise(base, [DeleteCross(), AddIntra()], seed=42)
    b = apply_noise(base, [DeleteCross(), AddIntra()], seed=42)
    assert np.array_equal(a.K, b.K) and np.array_equal(a.A, b.A)
    # pinned, so a change in the order moves are sampled in shows
    assert a.K.tolist() == [[1, 0, 1, 1, 1]] + [[1] * 5] * 3 and np.argwhere(np.triu(a.A)).tolist() == [[1, 3]]
    c = apply_noise(base, [DeleteCross(), AddIntra()], seed=43)
    assert not (np.array_equal(a.K, c.K) and np.array_equal(a.A, c.A))


def test_noise_preserves_validity():
    rng = np.random.default_rng(3)
    base = compose(6, random_connected_graph(rng, 5))
    for seed in range(10):
        out = apply_noise(base, [DeleteCross(), DeleteCross(), AddIntra()], seed=seed)
        assert is_connected(block_adjacency(out.A, out.K))
        assert (out.K.sum(axis=0) >= 1).all()
