"""Scaffold census over connected bipartite graphs, and conjecture sweeps.

The census enumerates every connected bipartite scaffold with parts (t, s)
up to isomorphism and decides each against a fixed graph G on the t-side:
the scaffolds are stacked into arrays and analysis.decide_stack runs the
verdict oracle, the certificates and the matrix-class checks on a whole
block at once.  It aggregates the flag counts.  Long runs persist the
scaffold stream as a graph6 cache and append per-instance rows to a CSV
under a manifest, so an interrupted run resumes where it stopped and a run
with other parameters refuses to resume it.
"""

from __future__ import annotations

import csv
import gc
import heapq
import json
import os
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from multiprocessing import Pool

import numpy as np

from . import __version__
# s_roth_oracle is not called here; it stays importable as rothlab.census.s_roth_oracle
from .analysis import decide_stack, oracle_stack, s_roth_oracle  # noqa: F401
from .enumeration import all_graphs, all_trees, enumerate_connected_bipartite
from .graphs import (CompositeInstance, _check_adjacency, _check_scaffold, block_adjacency, complete_graph,
                     cycle_graph, decode_graph6, encode_graph6, instance_to_json, is_connected, path_graph)

SUMMARY_COLUMNS = ("s", "total", "s_roth", "harmcond", "m_matrix", "inv_positive")
DETAIL_COLUMNS = ("graph6", "mu", "multiplicity", "s_roth", "harmcond", "m_matrix", "inv_positive")
CENSUS_BLOCK = 256  # scaffolds per stacked decision; the unit of work of the worker pool


@dataclass(frozen=True)
class CensusRow:
    s: int
    t: int
    total: int
    n_s_roth: int
    n_harmcond: int
    n_m_matrix: int
    n_inv_positive: int


def _flag(v) -> str:
    return "" if v is None else str(int(bool(v)))


def _census_rows(a_g: np.ndarray, ks: np.ndarray) -> list:
    """Detail-row fields after graph6 for a block of scaffolds composed with one G."""
    rows = []
    for d in decide_stack(a_g, ks):
        v, c = d.verdict, d.classes
        rows.append([f"{v.mu:.17g}", str(v.multiplicity), _flag(v.is_s_roth), _flag(d.harmcond.holds),
                     _flag(None if c is None else c.m_matrix),
                     _flag(None if c is None else c.inverse_positive)])
    return rows


def _write_atomic(path: str, write) -> None:
    """Run write(fh) on a temp file beside path, then move it into place."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _scaffold_stream(t: int, s: int, out_dir: str, allow_long: bool) -> tuple:
    """(scaffold stack (N, t, s), their graph6 texts), from the graph6 cache if present, else enumerated and cached.

    Every cache line must encode a scaffold [[0, K], [K^T, 0]] on t + s vertices.
    """
    path = os.path.join(out_dir, f"bipartite_t{t}_s{s}.g6")
    if os.path.exists(path):
        with open(path) as fh:
            texts = [line.strip() for line in fh if line.strip()]
        b = decode_graph6(texts)
        if texts and b.shape[-1] != t + s:
            raise ValueError(f"cached scaffold has {b.shape[-1]} vertices, expected {t + s}")
        b = b.reshape(-1, t + s, t + s)
        if b[:, :t, :t].any() or b[:, t:, t:].any():
            raise ValueError("cached scaffold is not bipartite with the expected parts")
        return b[:, :t, t:].astype(np.int64), texts
    ks = enumerate_connected_bipartite(t, s, allow_long=allow_long)
    # bool, not int64: the heap keeps the stack's pages after the encode, and forked workers inherit them
    texts = encode_graph6(block_adjacency(0, ks.astype(bool)))
    os.makedirs(out_dir, exist_ok=True)
    # a cache that exists is trusted, so it appears only once complete
    _write_atomic(path, lambda fh: fh.writelines(text + "\n" for text in texts))
    return ks, texts


def load_scaffolds(t: int, s: int, out_dir: str, allow_long: bool = False) -> np.ndarray:
    """Scaffold stack (N, t, s) for (t, s), from the graph6 cache if present, else enumerated and cached."""
    return _scaffold_stream(t, s, out_dir, allow_long)[0]


def _drop_torn_tail(path: str) -> int:
    """Cut a detail CSV after its last complete row, which an interrupted run can tear.

    A complete row ends with a newline and has every DETAIL_COLUMNS field (no
    field contains a comma).  Returns the number of data rows kept.
    """
    with open(path, "r+b") as fh:
        lines = fh.read().splitlines(keepends=True)
        rows = 0
        while rows < len(lines) and lines[rows].endswith(b"\n") and lines[rows].count(b",") == len(DETAIL_COLUMNS) - 1:
            rows += 1
        fh.truncate(sum(map(len, lines[:rows])))
    return max(0, rows - 1)


def _check_manifest(path: str, manifest: dict, detail_path: str) -> None:
    """Refuse to resume detail_path unless its manifest matches this run's, field by field."""
    try:
        with open(path) as fh:
            old = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"cannot resume {detail_path}: its manifest {path} is missing") from None
    for key, value in manifest.items():
        if old.get(key) != value:
            raise ValueError(f"cannot resume {detail_path}: its manifest has {key}={old.get(key)!r}, "
                             f"this run has {key}={value!r}")


def run_census(t: int, s: int, g=None, out_dir: str = ".",
               jobs: int = 1, resume: bool = False, allow_long: bool = False) -> CensusRow:
    """Classify every (t, s) scaffold composed with G, of adjacency matrix g (default K_t); aggregate flag counts.

    Writes classify_t{t}_s{s}.csv (one row per scaffold, resumable), its
    manifest classify_t{t}_s{s}.json (t, s, G as graph6, scaffold count,
    package version) and census_t{t}_s{s}.csv (single summary row).  A
    resume whose manifest is missing or differs raises ValueError naming the
    field.  Scaffolds are decided by decide_stack in blocks of CENSUS_BLOCK,
    mapped over jobs worker processes; rows are written in enumeration order
    regardless of jobs.
    """
    g = complete_graph(t) if g is None else _check_adjacency(g)
    if g.shape != (t, t):
        raise ValueError(f"G has shape {g.shape}, expected ({t}, {t})")
    scaffolds, texts = _scaffold_stream(t, s, out_dir, allow_long)
    detail_path = os.path.join(out_dir, f"classify_t{t}_s{s}.csv")
    manifest_path = os.path.join(out_dir, f"classify_t{t}_s{s}.json")
    manifest = {"t": t, "s": s, "g": encode_graph6(g[None])[0], "scaffolds": len(scaffolds),
                "version": __version__}

    done = 0
    if resume and os.path.exists(detail_path):
        _check_manifest(manifest_path, manifest, detail_path)
        done = _drop_torn_tail(detail_path)
    else:
        _write_atomic(manifest_path, lambda fh: json.dump(manifest, fh))
    todo = scaffolds[done:]
    blocks = [todo[i:i + CENSUS_BLOCK] for i in range(0, len(todo), CENSUS_BLOCK)]

    mode = "a" if done else "w"
    with open(detail_path, mode, newline="") as fh:
        writer = csv.writer(fh)
        if not done:
            writer.writerow(DETAIL_COLUMNS)
        work = partial(_census_rows, g)
        text = iter(texts[done:])
        gc.freeze()  # while the blocks are decided, a forked worker's full collection skips these objects: no copy
        try:
            with Pool(jobs) if jobs > 1 and len(blocks) > 1 else nullcontext() as pool:
                for rows in (pool.imap(work, blocks) if pool else map(work, blocks)):
                    writer.writerows([next(text)] + row for row in rows)
        finally:
            gc.unfreeze()

    with open(detail_path, newline="") as fh:  # the whole file, so that resumed rows count too
        recs = csv.reader(fh)
        col = dict(zip(next(recs), zip(*recs)))  # header field -> that column's values
    row = CensusRow(s=s, t=t, total=len(col["graph6"]), **{f"n_{k}": col[k].count("1") for k in DETAIL_COLUMNS[3:]})

    def write_summary(fh):
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        writer.writerow([row.s, row.total, row.n_s_roth, row.n_harmcond,
                         row.n_m_matrix, row.n_inv_positive])

    _write_atomic(census_summary_path(t, s, out_dir), write_summary)
    return row


def census_summary_path(t: int, s: int, out_dir: str = ".") -> str:
    return os.path.join(out_dir, f"census_t{t}_s{s}.csv")


# conjecture sweeps: H = (empty graph on s) joined with G, i.e. complete scaffold


def _random_capped_graph(t: int, cap: int, rng) -> np.ndarray:
    """Adjacency of a random graph on t vertices with max degree <= cap (greedy over shuffled pairs)."""
    pairs = [(u, v) for u in range(t) for v in range(u + 1, t)]
    rng.shuffle(pairs)
    target = int(rng.integers(0, min(len(pairs), t * cap // 2) + 1))
    deg = [0] * t
    a = np.zeros((t, t), dtype=np.int64)
    for (u, v) in pairs:
        if not target:
            break
        if deg[u] < cap and deg[v] < cap:
            a[u, v] = a[v, u] = 1
            target -= 1
            deg[u] += 1
            deg[v] += 1
    return a


def _sample_trees(t: int, max_deg: int, limit: int, rng) -> np.ndarray:
    """Adjacency stack of random labeled trees (Pruefer decode) with the degree cap; path always included."""
    out = [path_graph(t)] if max_deg >= 2 else []
    attempts = 0
    while len(out) < limit and attempts < 50 * limit:
        attempts += 1
        seq = rng.integers(0, t, size=t - 2)
        deg = np.ones(t, dtype=np.int64)
        for v in seq:
            deg[v] += 1
        if deg.max() > max_deg:
            continue
        a = np.zeros((t, t), dtype=np.int64)
        leaves = [v for v in range(t) if deg[v] == 1]  # ascending, so already a heap
        for v in seq.tolist():
            leaf = heapq.heappop(leaves)
            a[leaf, v] = a[v, leaf] = 1
            deg[v] -= 1
            if deg[v] == 1:
                heapq.heappush(leaves, v)
        u, v = leaves  # the two vertices left
        a[u, v] = a[v, u] = 1
        out.append(a)
    return np.array(out, dtype=np.int64).reshape(-1, t, t)


MAXDEG_EXHAUSTIVE_T = 8
TREE_EXHAUSTIVE_T = 12


def _family(kind: str, s: int, t: int, sample_limit: int, seed: int) -> np.ndarray:
    """The family of G on t vertices for the sweep at s, as an adjacency stack (N, t, t)."""
    if kind == "tree":
        if t <= TREE_EXHAUSTIVE_T:
            a = all_trees(t)
            return a[a.sum(-1).max(-1) <= s]
        rng = np.random.default_rng(np.random.SeedSequence([seed, s, t]))
        return _sample_trees(t, s, sample_limit, rng)
    if kind == "maxdeg":
        if t <= MAXDEG_EXHAUSTIVE_T:
            a = all_graphs(t)
            return a[a.sum(-1).max(-1) < s]
        rng = np.random.default_rng(np.random.SeedSequence([seed, s, t]))
        fam = [path_graph(t), cycle_graph(t)]
        while len(fam) < sample_limit:
            fam.append(_random_capped_graph(t, s - 1, rng))
        return np.array(fam)
    raise ValueError(f"unknown family kind {kind!r}")


def conjecture_sweep(kind: str, s_range, t_range, relax: bool = False,
                     sample_limit: int = 200, seed: int = 0) -> dict:
    """Oracle sweep over H = (s isolated vertices) join G for a family of G.

    kind='tree' takes all trees on t vertices with max degree <= s;
    kind='maxdeg' takes graphs with max degree < s (exhaustive for t <= 8,
    sampled above).  Hypotheses t > s >= 6 are enforced unless relax.
    Each family is decided by oracle_stack in blocks of CENSUS_BLOCK.
    Returns {kind, checked, pairs, counterexamples}.
    """
    pairs = []
    for s in s_range:
        if s < 1:
            raise ValueError("need s >= 1")
        for t in t_range:
            if t <= s:
                continue
            if s < 6 and not relax:
                raise ValueError(f"hypotheses need s >= 6 (got s={s}); pass relax to override")
            pairs.append((s, t))
    checked = 0
    counterexamples = []
    for (s, t) in pairs:
        family = _family(kind, s, t, sample_limit, seed)
        complete = np.ones((t, s), dtype=np.int64)
        for lo in range(0, len(family), CENSUS_BLOCK):
            block = family[lo:lo + CENSUS_BLOCK]
            verdicts = oracle_stack(block, complete)
            checked += len(block)
            for a, text, verdict in zip(block, encode_graph6(block), verdicts):
                if not verdict.is_s_roth:
                    counterexamples.append({
                        "kind": kind, "s": s, "t": t,
                        "g_graph6": text,
                        "mu": verdict.mu, "reason": verdict.reason,
                        "instance": instance_to_json(CompositeInstance(a, complete, tuple(range(t + s)))),
                    })
    return {"kind": kind, "pairs": pairs, "checked": checked,
            "counterexamples": counterexamples}


def ultra_roth_probe(scaffold: np.ndarray, a_g) -> dict:
    """Run the verdict oracle for one t x s scaffold against every G of an adjacency stack (N, t, t), as one stack.

    The scaffold must be 0/1 with no zero column, and every G 0/1, symmetric
    and loop-free; both are checked even when the stack is empty.
    """
    scaffold = np.asarray(scaffold)
    t, s = scaffold.shape
    if s < 1:
        raise ValueError("need s >= 1")
    _check_scaffold(scaffold)
    a_g = _check_adjacency(a_g)
    if a_g.shape[1:] != (t, t):
        raise ValueError(f"G must be an adjacency stack (N, {t}, {t}), got shape {a_g.shape}")
    if not len(a_g):
        return {"all_s_roth": True, "failures": []}
    # H is connected iff T is, with i ~ j for a G-edge or a common S-neighbour
    if not is_connected(a_g + scaffold @ scaffold.T):
        raise ValueError("composite instance is disconnected")
    failures = []
    for text, verdict in zip(encode_graph6(a_g), oracle_stack(a_g, scaffold)):
        if not verdict.is_s_roth:
            failures.append({"g_graph6": text, "mu": verdict.mu, "reason": verdict.reason})
    return {"all_s_roth": not failures, "failures": failures}
