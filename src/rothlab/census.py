"""Scaffold census over connected bipartite graphs, and conjecture sweeps.

The census enumerates every connected bipartite scaffold with parts (t, s)
up to isomorphism, composes each with a fixed graph G on the t-side, runs the
verdict oracle together with the certificate and matrix-class checks, and
aggregates the flag counts.  Long runs persist the scaffold stream as a
graph6 cache and append per-instance rows to a CSV, so an interrupted run
resumes where it stopped.
"""

from __future__ import annotations

import csv
import heapq
import os
from dataclasses import dataclass
from functools import partial
from multiprocessing import Pool

import numpy as np

from .analysis import classification_record, s_roth_oracle
from .enumeration import all_graphs, all_trees, enumerate_connected_bipartite
from .graphs import Graph, compose, complete_graph, cycle_graph, emit_graph6, instance_to_json, parse_graph6, path_graph

SUMMARY_COLUMNS = ("s", "total", "s_roth", "harmcond", "m_matrix", "inv_positive")
DETAIL_COLUMNS = ("graph6", "mu", "multiplicity", "s_roth", "harmcond", "m_matrix", "inv_positive")


@dataclass(frozen=True)
class CensusRow:
    s: int
    t: int
    total: int
    n_s_roth: int
    n_harmcond: int
    n_m_matrix: int
    n_inv_positive: int


def classify_instance(scaffold: np.ndarray, g: Graph) -> dict:
    """Full classification record for the composite of a t x s scaffold with G."""
    scaffold = np.asarray(scaffold)
    inst = compose(scaffold.shape[1], g, scaffold)
    return classification_record(inst)


def _flag(v) -> str:
    return "" if v is None else str(int(bool(v)))


def _detail_row(rec: dict) -> list:
    return [rec["graph6"], f"{rec['mu']:.17g}", str(rec["multiplicity"]),
            _flag(rec["s_roth"]), _flag(rec["harmcond"]),
            _flag(rec["m_matrix"]), _flag(rec["inv_positive"])]


def _classify_worker(k: np.ndarray, g: Graph) -> list:
    return _detail_row(classify_instance(k, g))


def _scaffold_to_graph(k: np.ndarray) -> Graph:
    t, s = k.shape
    return Graph(t + s, frozenset((i, t + j) for i in range(t) for j in range(s) if k[i, j]))


def _graph_to_scaffold(b: Graph, t: int, s: int) -> np.ndarray:
    k = np.zeros((t, s), dtype=np.int64)
    for (u, v) in b.edges:
        if not (u < t <= v):
            raise ValueError("cached scaffold is not bipartite with the expected parts")
        k[u, v - t] = 1
    return k


def load_scaffolds(t: int, s: int, out_dir: str, allow_long: bool = False) -> list:
    """Scaffolds for (t, s), from the graph6 cache if present, else enumerated and cached."""
    path = os.path.join(out_dir, f"bipartite_t{t}_s{s}.g6")
    if os.path.exists(path):
        with open(path) as fh:
            return [_graph_to_scaffold(parse_graph6(line.strip()), t, s)
                    for line in fh if line.strip()]
    ks = enumerate_connected_bipartite(t, s, allow_long=allow_long)
    os.makedirs(out_dir, exist_ok=True)
    # a cache that exists is trusted, so it appears only once complete
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            for k in ks:
                fh.write(emit_graph6(_scaffold_to_graph(k)) + "\n")
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise
    return ks


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


def run_census(t: int, s: int, g: Graph | None = None, out_dir: str = ".",
               jobs: int = 1, resume: bool = False, allow_long: bool = False) -> CensusRow:
    """Classify every (t, s) scaffold composed with G (default K_t); aggregate flag counts.

    Writes classify_t{t}_s{s}.csv (one row per scaffold, resumable) and
    census_t{t}_s{s}.csv (single summary row).  Worker order is the
    deterministic enumeration order regardless of jobs.
    """
    if g is None:
        g = complete_graph(t)
    if g.n != t:
        raise ValueError(f"G has {g.n} vertices, expected t = {t}")
    scaffolds = load_scaffolds(t, s, out_dir, allow_long=allow_long)
    detail_path = os.path.join(out_dir, f"classify_t{t}_s{s}.csv")

    done = 0
    if resume and os.path.exists(detail_path):
        done = _drop_torn_tail(detail_path)
    todo = scaffolds[done:]

    mode = "a" if done else "w"
    with open(detail_path, mode, newline="") as fh:
        writer = csv.writer(fh)
        if not done:
            writer.writerow(DETAIL_COLUMNS)
        work = partial(_classify_worker, g=g)
        if jobs > 1 and len(todo) > 1:
            with Pool(jobs) as pool:
                for row in pool.imap(work, todo, chunksize=16):
                    writer.writerow(row)
        else:
            for k in todo:
                writer.writerow(work(k))

    counts = {"s_roth": 0, "harmcond": 0, "m_matrix": 0, "inv_positive": 0}
    total = 0
    with open(detail_path) as fh:
        for rec in csv.DictReader(fh):
            total += 1
            for key in counts:
                counts[key] += rec[key] == "1"
    row = CensusRow(s=s, t=t, total=total, n_s_roth=counts["s_roth"],
                    n_harmcond=counts["harmcond"], n_m_matrix=counts["m_matrix"],
                    n_inv_positive=counts["inv_positive"])
    summary_path = os.path.join(out_dir, f"census_t{t}_s{s}.csv")
    with open(summary_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        writer.writerow([row.s, row.total, row.n_s_roth, row.n_harmcond,
                         row.n_m_matrix, row.n_inv_positive])
    return row


def census_summary_path(t: int, s: int, out_dir: str = ".") -> str:
    return os.path.join(out_dir, f"census_t{t}_s{s}.csv")


# conjecture sweeps: H = (empty graph on s) joined with G, i.e. complete scaffold


def _random_capped_graph(t: int, cap: int, rng) -> Graph:
    """Random graph on t vertices with max degree <= cap (greedy over shuffled pairs)."""
    pairs = [(u, v) for u in range(t) for v in range(u + 1, t)]
    rng.shuffle(pairs)
    target = int(rng.integers(0, min(len(pairs), t * cap // 2) + 1))
    deg = [0] * t
    edges = set()
    for (u, v) in pairs:
        if len(edges) >= target:
            break
        if deg[u] < cap and deg[v] < cap:
            edges.add((u, v))
            deg[u] += 1
            deg[v] += 1
    return Graph(t, frozenset(edges))


def _sample_trees(t: int, max_deg: int, limit: int, rng) -> list:
    """Random labeled trees (Pruefer decode) with the degree cap; path always included."""
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
        deg_left = deg.copy()
        edges = set()
        ptr = list(seq)
        leaves = sorted(v for v in range(t) if deg_left[v] == 1)
        heapq.heapify(leaves)
        for v in ptr:
            v = int(v)
            leaf = heapq.heappop(leaves)
            edges.add((min(leaf, v), max(leaf, v)))
            deg_left[v] -= 1
            if deg_left[v] == 1:
                heapq.heappush(leaves, v)
        u, v = heapq.heappop(leaves), heapq.heappop(leaves)
        edges.add((min(u, v), max(u, v)))
        out.append(Graph(t, frozenset(edges)))
    return out


MAXDEG_EXHAUSTIVE_T = 8
TREE_EXHAUSTIVE_T = 12


def _family(kind: str, s: int, t: int, sample_limit: int, seed: int) -> list:
    if kind == "tree":
        if t <= TREE_EXHAUSTIVE_T:
            return [g for g in all_trees(t) if max(g.degrees()) <= s]
        rng = np.random.default_rng(np.random.SeedSequence([seed, s, t]))
        return _sample_trees(t, s, sample_limit, rng)
    if kind == "maxdeg":
        if t <= MAXDEG_EXHAUSTIVE_T:
            return [g for g in all_graphs(t) if t == 1 or max(g.degrees()) < s]
        rng = np.random.default_rng(np.random.SeedSequence([seed, s, t]))
        fam = [path_graph(t), cycle_graph(t)]
        while len(fam) < sample_limit:
            fam.append(_random_capped_graph(t, s - 1, rng))
        return fam
    raise ValueError(f"unknown family kind {kind!r}")


def conjecture_sweep(kind: str, s_range, t_range, relax: bool = False,
                     sample_limit: int = 200, seed: int = 0) -> dict:
    """Oracle sweep over H = (s isolated vertices) join G for a family of G.

    kind='tree' takes all trees on t vertices with max degree <= s;
    kind='maxdeg' takes graphs with max degree < s (exhaustive for t <= 8,
    sampled above).  Hypotheses t > s >= 6 are enforced unless relax.
    Returns {kind, checked, pairs, counterexamples}.
    """
    pairs = []
    for s in s_range:
        for t in t_range:
            if t <= s:
                continue
            if s < 6 and not relax:
                raise ValueError(f"hypotheses need s >= 6 (got s={s}); pass relax to override")
            pairs.append((s, t))
    checked = 0
    counterexamples = []
    for (s, t) in pairs:
        for g in _family(kind, s, t, sample_limit, seed):
            inst = compose(s, g)
            verdict = s_roth_oracle(inst)
            checked += 1
            if not verdict.is_s_roth:
                counterexamples.append({
                    "kind": kind, "s": s, "t": t,
                    "g_graph6": emit_graph6(g),
                    "mu": verdict.mu, "reason": verdict.reason,
                    "instance": instance_to_json(inst),
                })
    return {"kind": kind, "pairs": pairs, "checked": checked,
            "counterexamples": counterexamples}


def ultra_roth_probe(scaffold: np.ndarray, g_family) -> dict:
    """Run the verdict oracle for one scaffold against every G in the family."""
    scaffold = np.asarray(scaffold)
    failures = []
    for g in g_family:
        inst = compose(scaffold.shape[1], g, scaffold)
        verdict = s_roth_oracle(inst)
        if not verdict.is_s_roth:
            failures.append({"g_graph6": emit_graph6(g), "mu": verdict.mu,
                             "reason": verdict.reason})
    return {"all_s_roth": not failures, "failures": failures}
