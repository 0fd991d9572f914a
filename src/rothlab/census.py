"""Scaffold census over connected bipartite graphs, and conjecture sweeps.

The census enumerates every connected bipartite scaffold with parts (t, s)
up to isomorphism and decides each against a fixed graph G on the t-side.
The scaffolds travel as packed column codes, one byte per column, from the
enumerator or the graph6 cache to the files; a block of them becomes an
int64 stack only while analysis.decide_stack runs the verdict oracle, the
certificates and the matrix-class checks on it.  It aggregates the flag
counts.  Every file is written whole or not at all: the scaffold stream is
cached as graph6, and the detail CSV and the summary are moved into place
once complete.  The manifest is written last, so it sits beside a detail
CSV and a summary only when the run it describes wrote both.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import __version__
# s_roth_oracle is not called here; it stays importable as rothlab.census.s_roth_oracle
from .analysis import decide_stack, oracle_stack, s_roth_oracle  # noqa: F401
from .enumeration import _SCAFFOLD_CHUNK, _pack_codes, _unpack_codes, all_graphs, all_trees, scaffold_codes
from .graphs import (CompositeInstance, _check_adjacency, _check_scaffold, _connected_mask, block_adjacency,
                     complete_graph, decode_graph6, encode_graph6, instance_to_json)

SUMMARY_COLUMNS = ("s", "total", "s_roth", "harmcond", "m_matrix", "inv_positive")
DETAIL_COLUMNS = ("graph6", "mu", "multiplicity", "s_roth", "harmcond", "m_matrix", "inv_positive")
CENSUS_BLOCK = 256  # scaffolds per stacked decision; the unit of work of the thread pool


@dataclass(frozen=True)
class CensusRow:
    s: int
    t: int
    total: int
    n_s_roth: int
    n_harmcond: int
    n_m_matrix: int
    n_inv_positive: int


def _census_rows(a_g: np.ndarray, ks: np.ndarray) -> list:
    """The detail-CSV columns after graph6, as lists of str, for a block of scaffolds composed with one G.

    A class flag is empty where Q_mu is not formed or singular.
    """
    d = decide_stack(a_g, ks)
    s_roth, harmcond, m_matrix, inv_positive = (
        np.where(f, "1", "0") for f in (d.is_s_roth, d.harmcond, d.z_matrix, d.inverse_positive))
    columns = (d.multiplicity.astype(str), s_roth, harmcond,
               np.where(d.classes, m_matrix, ""), np.where(d.classes, inv_positive, ""))
    return [["%.17g" % mu for mu in d.mu.tolist()]] + [c.tolist() for c in columns]  # np.char would import numpy.char


def _write_atomic(path: str, write) -> None:
    """Run write(fh) on a temp file beside path, then move it into place."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):  # not when open itself failed
            os.remove(tmp)
        raise


def _cache_path(t: int, s: int, out_dir: str) -> str:
    return os.path.join(out_dir, f"bipartite_t{t}_s{s}.g6")


def _cached_codes(texts: list, t: int, s: int) -> np.ndarray:
    """The packed codes (N, max(t, s)) of graph6 cache lines, each checked to encode a connected scaffold
    [[0, K], [K^T, 0]] on t + s vertices."""
    b = decode_graph6(texts)
    if texts and b.shape[-1] != t + s:
        raise ValueError(f"cached scaffold has {b.shape[-1]} vertices, expected {t + s}")
    b = b.reshape(-1, t + s, t + s)
    if b[:, :t, :t].any() or b[:, t:, t:].any():
        raise ValueError("cached scaffold is not bipartite with the expected parts")
    if not _connected_mask(b[:, :t, t:]).all():
        raise ValueError("cached scaffold is not connected")
    return _pack_codes(b[:, :t, t:])


def _scaffold_stream(t: int, s: int, out_dir: str, allow_long: bool) -> tuple:
    """(packed codes (N, max(t, s)) of the scaffolds, their graph6 texts), from the graph6 cache if present, else
    enumerated and cached.

    Both ways run one codec call per _SCAFFOLD_CHUNK scaffolds, so no (N, t, s) stack is built.  A cache is
    read and checked whole before anything is returned.
    """
    path = _cache_path(t, s, out_dir)
    if os.path.exists(path):
        with open(path) as fh:
            texts = [line.strip() for line in fh if line.strip()]
        # an empty cache is one empty chunk, of zero codes
        chunks = [texts[lo:lo + _SCAFFOLD_CHUNK] for lo in range(0, len(texts) or 1, _SCAFFOLD_CHUNK)]
        return np.concatenate([_cached_codes(chunk, t, s) for chunk in chunks]), texts
    codes = scaffold_codes(t, s, allow_long=allow_long)
    texts = []
    for lo in range(0, len(codes), _SCAFFOLD_CHUNK):
        # bool, not int64: the encode's temporary is 8x smaller
        texts += encode_graph6(block_adjacency(0, _unpack_codes(codes[lo:lo + _SCAFFOLD_CHUNK], t, s)))
    os.makedirs(out_dir, exist_ok=True)
    # a cache that exists is trusted, so it appears only once complete
    _write_atomic(path, lambda fh: fh.writelines(text + "\n" for text in texts))
    return codes, texts


def load_scaffolds(t: int, s: int, out_dir: str, allow_long: bool = False) -> np.ndarray:
    """Scaffold stack (N, t, s), int64, for (t, s), from the graph6 cache if present, else enumerated and cached.

    The whole stack, as enumerate_connected_bipartite gives it; run_census never builds it.
    """
    return _unpack_codes(_scaffold_stream(t, s, out_dir, allow_long)[0], t, s, np.int64)


def _in_order(pool: ThreadPoolExecutor, work, items, ahead: int):
    """work(item) of each item, in order, run by pool with at most ahead items submitted and not yet passed on.

    pool.map would submit every item at once and hold each result until it is read.
    """
    items = iter(items)
    pending = deque(pool.submit(work, item) for item in itertools.islice(items, ahead))
    while pending:
        yield pending.popleft().result()
        pending.extend(pool.submit(work, item) for item in itertools.islice(items, 1))


def run_census(t: int, s: int, g=None, out_dir: str = ".",
               jobs: int = 1, allow_long: bool = False) -> CensusRow:
    """Classify every (t, s) scaffold composed with G, of adjacency matrix g (default K_t); aggregate flag counts.

    Writes classify_t{t}_s{s}.csv (one row per scaffold), census_t{t}_s{s}.csv
    (single summary row) and last the manifest classify_t{t}_s{s}.json (t,
    s, G as graph6, scaffold count, package version).  Each file is moved
    into place whole; an old manifest is removed before the first file is
    replaced, so an interrupted run leaves no manifest and no torn file.
    The scaffolds are held as packed codes and graph6 texts; each block of
    CENSUS_BLOCK is expanded to its int64 stack only as it is handed to
    decide_stack, on jobs threads (numpy's eigensolve releases the GIL) with
    at most 2 * jobs blocks decided ahead of the writer.  Rows are written
    in enumeration order regardless of jobs.  jobs < 1, an empty scaffold
    cache (every (t, s) has a connected scaffold) and a cache with a
    disconnected scaffold raise ValueError before anything is written.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    g = complete_graph(t) if g is None else _check_adjacency(g)
    if g.shape != (t, t):
        raise ValueError(f"G has shape {g.shape}, expected ({t}, {t})")
    codes, texts = _scaffold_stream(t, s, out_dir, allow_long)
    if not len(codes):
        raise ValueError(f"scaffold cache {_cache_path(t, s, out_dir)} is empty")
    manifest_path = os.path.join(out_dir, f"classify_t{t}_s{s}.json")
    manifest = {"t": t, "s": s, "g": encode_graph6(g[None])[0], "scaffolds": len(codes),
                "version": __version__}
    starts = range(0, len(codes), CENSUS_BLOCK)
    counts = dict.fromkeys(DETAIL_COLUMNS[3:], 0)

    def write_detail(fh):
        writer = csv.writer(fh)
        writer.writerow(DETAIL_COLUMNS)
        work = partial(_census_rows, g)
        # each block's int64 stack is made here as the block is submitted: made in the worker threads, it
        # cost their malloc arenas page faults, and a fresh two-thread (4, 7) census about 10 % more time
        blocks = (_unpack_codes(codes[lo:lo + CENSUS_BLOCK], t, s, np.int64) for lo in starts)
        # one block, or jobs == 1, stays in this thread: a worker thread would add its own malloc arena
        pool = ThreadPoolExecutor(jobs) if jobs > 1 and len(starts) > 1 else None
        try:
            columns = _in_order(pool, work, blocks, 2 * jobs) if pool else map(work, blocks)
            for lo, cols in zip(starts, columns):
                writer.writerows(zip(texts[lo:lo + CENSUS_BLOCK], *cols))
                for k, flags in zip(counts, cols[2:]):  # cols starts at mu: its flag columns follow multiplicity
                    counts[k] += flags.count("1")
        finally:
            if pool:  # an interrupt waits for the running blocks only, not the queued ones
                pool.shutdown(cancel_futures=True)

    with suppress(FileNotFoundError):
        os.remove(manifest_path)
    _write_atomic(os.path.join(out_dir, f"classify_t{t}_s{s}.csv"), write_detail)
    row = CensusRow(s=s, t=t, total=len(codes), **{f"n_{k}": n for k, n in counts.items()})

    def write_summary(fh):
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        writer.writerow([row.s, row.total, row.n_s_roth, row.n_harmcond,
                         row.n_m_matrix, row.n_inv_positive])

    _write_atomic(census_summary_path(t, s, out_dir), write_summary)
    _write_atomic(manifest_path, lambda fh: json.dump(manifest, fh))
    return row


def census_summary_path(t: int, s: int, out_dir: str = ".") -> str:
    return os.path.join(out_dir, f"census_t{t}_s{s}.csv")


# conjecture sweeps: H = (empty graph on s) joined with G, i.e. complete scaffold


# sweeps are refused above these orders; the README records what raising them costs
MAXDEG_EXHAUSTIVE_T = 9
TREE_EXHAUSTIVE_T = 12
_SWEEP_LIMITS = {"tree": TREE_EXHAUSTIVE_T, "maxdeg": MAXDEG_EXHAUSTIVE_T}


def _family(kind: str, s: int, t: int) -> np.ndarray:
    """Every G on t vertices in the family for the sweep at s, as an adjacency stack (N, t, t)."""
    if kind == "tree":
        a = all_trees(t)
        return a[a.sum(-1).max(-1) <= s]
    a = all_graphs(t)
    return a[a.sum(-1).max(-1) < s]


def _failures(a_g: np.ndarray, k: np.ndarray) -> list:
    """(G, its graph6, mu, reason) of each G of a stack (N, t, t) whose H with scaffold k is not S-Roth, in order.

    oracle_stack decides blocks of CENSUS_BLOCK, so memory does not grow with N.
    """
    failures = []
    for lo in range(0, len(a_g), CENSUS_BLOCK):
        block = a_g[lo:lo + CENSUS_BLOCK]
        d = oracle_stack(block, k)
        bad = np.flatnonzero(~d.is_s_roth)
        failures += zip(block[bad], encode_graph6(block[bad]), d.mu[bad].tolist(), d.reason[bad].tolist())
    return failures


def conjecture_sweep(kind: str, s_range, t_range, relax: bool = False) -> dict:
    """Exhaustive oracle sweep over H = (s isolated vertices) join G for a family of G.

    kind='tree' takes all trees on t vertices with max degree <= s, for
    t <= TREE_EXHAUSTIVE_T; kind='maxdeg' takes all graphs with max degree
    < s, for t <= MAXDEG_EXHAUSTIVE_T.  Hypotheses t > s >= 6 are enforced
    unless relax.  Every (s, t) pair is checked before any enumeration: an
    unknown kind, a t above the limit, or no pair with t > s raises
    ValueError.  Each family is decided by oracle_stack in blocks of
    CENSUS_BLOCK.  Returns {kind, checked, pairs, counterexamples}.
    """
    if kind not in _SWEEP_LIMITS:
        raise ValueError(f"unknown family kind {kind!r}")
    limit = _SWEEP_LIMITS[kind]
    pairs = []
    for s in s_range:
        if s < 1:
            raise ValueError("need s >= 1")
        for t in t_range:
            if t <= s:
                continue
            if s < 6 and not relax:
                raise ValueError(f"hypotheses need s >= 6 (got s={s}); pass relax to override")
            if t > limit:
                raise ValueError(f"{kind} sweeps are exhaustive only up to t = {limit} (got t={t})")
            pairs.append((s, t))
    if not pairs:
        raise ValueError("no (s, t) pair with t > s to sweep")
    checked = 0
    counterexamples = []
    for (s, t) in pairs:
        family = _family(kind, s, t)
        complete = np.ones((t, s), dtype=np.int64)
        checked += len(family)
        counterexamples += ({"kind": kind, "s": s, "t": t, "g_graph6": text, "mu": mu, "reason": reason,
                             "instance": instance_to_json(CompositeInstance(a, complete, tuple(range(t + s))))}
                            for a, text, mu, reason in _failures(family, complete))
        del family  # or it would live on while _family builds the next one: 170 MB at t = 9
    return {"kind": kind, "pairs": pairs, "checked": checked,
            "counterexamples": counterexamples}


def ultra_roth_probe(scaffold: np.ndarray, a_g) -> dict:
    """Run the verdict oracle for one t x s scaffold against every G of an adjacency stack (N, t, t).

    The stack is decided in blocks of CENSUS_BLOCK, so memory does not grow
    with N.  The scaffold must be 0/1 with no zero column, every G 0/1,
    symmetric and loop-free, and every H connected; all are checked even
    when the stack is empty.  Each G is tried in its given labelling only,
    so over all_graphs(t) the probe covers every (G, K) pair only for a
    scaffold that every permutation of T maps to itself up to a permutation
    of S, such as the complete one.
    """
    scaffold = np.asarray(scaffold)
    t, s = scaffold.shape
    if s < 1:
        raise ValueError("need s >= 1")
    a_g = _check_adjacency(a_g)
    if a_g.shape[1:] != (t, t):
        raise ValueError(f"G must be an adjacency stack (N, {t}, {t}), got shape {a_g.shape}")
    _check_scaffold(a_g, scaffold)
    failures = [{"g_graph6": text, "mu": mu, "reason": reason} for _, text, mu, reason in _failures(a_g, scaffold)]
    return {"all_s_roth": not failures, "failures": failures}
