"""Adjacency constructors, codecs and composition."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EX1_K, adjacency, edge_list_text
from rothlab.census import run_census, ultra_roth_probe
from rothlab.graphs import (
    Graph,
    _component,
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
        parse_graph6("~~A")  # >258047 vertices unsupported
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
        raise ValueError("graphs larger than 258047 vertices are not supported")
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
    if n > 258047:
        raise ValueError("graphs larger than 258047 vertices are not supported")
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


def test_graph6_orders_above_258_match_networkx():
    # the `~` header's 18 bits reach order 258047; networkx writes the same lines
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(19)
    for n in (259, 300):
        a = _random_stack(rng, 2, n, 0.3)
        lines = encode_graph6(a)
        for m, line in zip(a, lines):
            gx = nx.Graph()
            gx.add_nodes_from(range(n))
            gx.add_edges_from(np.argwhere(m).tolist())
            assert nx.to_graph6_bytes(gx, header=False).decode().strip() == line
            assert nx.to_numpy_array(nx.from_graph6_bytes(line.encode()), nodelist=range(n)).tolist() == m.tolist()
        assert np.array_equal(decode_graph6(lines), a)


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


def _long_header(n: int) -> str:
    return "~" + "".join(chr(((n >> sh) & 0x3F) + 63) for sh in (12, 6, 0))


def test_graph6_codec_refuses_an_oversize_order_before_allocating():
    # order 258048 needs the 8-byte `~~` header, which neither side supports; refused before any allocation
    big = np.broadcast_to(np.uint8(0), (1, 258048, 258048))
    assert _long_header(258048).startswith("~~")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="larger than 258047 vertices"):
            encode_graph6(big)
        with pytest.raises(ValueError, match="larger than 258047 vertices"):
            decode_graph6([_long_header(258048) + "?" * 6])
        # a truncated order-2000 line would need megabytes of pair indices: its length is refused first
        with pytest.raises(ValueError, match="body length does not match"):
            decode_graph6([_long_header(2000) + "?" * 6])
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


def _reference_edge_list(text):
    """parse_edge_list's contract, read line by line: the adjacency, or the ValueError of the first bad line."""
    edges = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge-list line: {raw!r}")
        u, v = int(parts[0]), int(parts[1])
        if u < 0 or v < 0:
            raise ValueError("edge-list vertices must be nonnegative")
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        edges.append((u, v))
    return adjacency(max(map(max, edges), default=-1) + 1, edges)


_BLANKS = st.text(" \t", max_size=3)
_EDGE = st.tuples(st.integers(0, 15), st.integers(0, 15)).filter(lambda e: e[0] != e[1])


@st.composite
def _edge_list_texts(draw):
    """Edge-list text: plain "u v" lines, or lines with random spacing, blank lines, comments and CRLF."""
    pairs = draw(st.lists(_EDGE, max_size=25))
    pairs += [p[::-1] for p in draw(st.lists(st.sampled_from(pairs), max_size=5))] if pairs else []  # reversed repeats
    pairs = draw(st.permutations(pairs))
    if draw(st.booleans()):
        lines = [f"{u} {v}" for u, v in pairs]
    else:
        lines = []
        for u, v in pairs:
            lines += draw(st.lists(st.sampled_from(["", "# comment", " \t", "#"]), max_size=1))
            comment = draw(st.sampled_from(["", "#", " # 1 2 3"]))
            lines.append(f"{draw(_BLANKS)}{u}{draw(_BLANKS.map(lambda b: b or ' '))}{v}{draw(_BLANKS)}{comment}")
    ends = draw(st.one_of(st.just(["\n"] * len(lines)), st.just(["\r\n"] * len(lines)),
                          st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines))))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text[:-len(ends[-1])] if lines and draw(st.booleans()) else text  # maybe no final newline


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_edge_list_texts())
def test_edge_list_matches_per_line_reference(text):
    got = parse_edge_list(text)
    assert got.dtype == np.int64 and np.array_equal(got, _reference_edge_list(text))


@pytest.mark.parametrize("bad", ["0 1 2", "+1 -1", "4\t4"])
@pytest.mark.parametrize("plain", [True, False])
def test_edge_list_error_on_first_middle_and_last_line(bad, plain):
    good = ["0 1", "1 2", "3 1"] if plain else ["0 1", "\t1  2 # c", "", "3\t1"]
    for at in (0, len(good) // 2, len(good)):
        text = "\n".join(good[:at] + [bad] + good[at:]) + "\n"
        with pytest.raises(ValueError) as ref:
            _reference_edge_list(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(ref.value))}$"):
            parse_edge_list(text)


def test_connectivity_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(5)
    cases = [empty_graph(0), empty_graph(1), empty_graph(4), path_graph(40),  # a path: the longest frontier
             np.pad(complete_graph(4), (0, 1)),  # an isolated last vertex
             complement(join(complement(path_graph(3)), complement(cycle_graph(4)))),  # two components
             join(empty_graph(2), empty_graph(3))]
    cases += [adjacency(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
              for n in range(2, 14) for p in (0.1, 0.25, 0.5)]
    for a in cases:
        gx = nx.from_numpy_array(a)
        comps = sorted(sorted(c) for c in nx.connected_components(gx))
        assert connected_components(a) == comps  # each sorted, ordered by least element
        assert is_connected(a) == (len(comps) <= 1)
        assert join_decomposition(a) == sorted(sorted(c) for c in nx.connected_components(nx.complement(gx)))
        for v in range(len(a)):
            assert _component(a, v).tolist() == [u in nx.node_connected_component(gx, v) for u in range(len(a))]
    # a stack: one frontier per graph, from vertex 0, however many steps each needs
    for n in (1, 5, 9):
        stack = np.array([adjacency(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3])
                          for _ in range(60)] + [path_graph(n)])
        want = [[u in nx.node_connected_component(nx.from_numpy_array(a), 0) for u in range(n)] for a in stack]
        assert _component(stack).tolist() == want
        assert is_connected(stack) == all(map(all, want))
    assert _component(np.zeros((0, 4, 4), dtype=np.int64)).shape == (0, 4) and is_connected(np.zeros((0, 4, 4)))


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
