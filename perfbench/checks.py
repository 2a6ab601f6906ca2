"""Output checks made apart from the program.

Everything here reads the program's files (library text, table blob, hit
TSVs, evaluation reports) with its own parsers and recomputes the expected
answer by brute force with numpy, so a fault in the program's loaders,
scan or selection cannot hide itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

HITS_HEADER = "rank\tglobal_index\treaction_id\tsynthon_ids\tobjective\tviolation"


# ---------------------------------------------------------------------------
# independent readers
# ---------------------------------------------------------------------------

def read_blob(path) -> tuple[dict, dict[str, np.ndarray]]:
    """One JSON header line, then the arrays' raw bytes in header order."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for spec in header["arrays"]:
            dtype = np.dtype(spec["dtype"])
            count = int(np.prod(spec["shape"], dtype=np.int64))
            arrays[spec["name"]] = np.frombuffer(
                fh.read(count * dtype.itemsize), dtype=dtype
            ).reshape(spec["shape"])
    return header["meta"], arrays


class LibraryText:
    """Reaction / R-group / synthon structure parsed from the .csl text."""

    def __init__(self, path):
        self.tokens: dict[int, str] = {}
        rgroups: dict[int, list[int]] = {}
        self.reactions: list[list[int]] = []  # R-group ids per reaction, in digit order
        with open(path) as fh:
            for line in fh:
                parts = line.split()
                if not parts:
                    continue
                if parts[0] == "S":
                    self.tokens[int(parts[1])] = parts[2]
                elif parts[0] == "R":
                    rgroups[int(parts[1])] = [int(x) for x in parts[2:]]
                elif parts[0] == "T":
                    self.reactions.append([int(x) for x in parts[2:]])
        self.rgroups = rgroups
        self.sizes = [int(np.prod([len(rgroups[r]) for r in rx])) for rx in self.reactions]
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)]).astype(np.int64)

    @property
    def n_products(self) -> int:
        return int(self.offsets[-1])

    def decode(self, g: np.ndarray) -> tuple[np.ndarray, list[list[int]]]:
        """Reaction index and synthon ids (R-group order) for global indices."""
        g = np.asarray(g, dtype=np.int64)
        t = np.searchsorted(self.offsets, g, side="right") - 1
        sids = []
        for gi, ti in zip(g.tolist(), t.tolist()):
            rem = gi - int(self.offsets[ti])
            digits = []
            for r in reversed(self.reactions[ti]):
                rem, d = divmod(rem, len(self.rgroups[r]))
                digits.append(self.rgroups[r][d])
            sids.append(digits[::-1])
        return t, sids

    def assembled(self, reaction: int, sids: list[int]) -> str:
        return f"t{reaction}|" + ".".join(sorted(self.tokens[s].replace("*", "") for s in sids))


class TableArrays:
    """Contribution table arrays, keyed for outer sums by R-group id."""

    def __init__(self, path):
        meta, arrays = read_blob(path)
        self.task_names: list[str] = list(meta["task_names"])
        self.values = arrays["values"]
        self.biases = arrays["biases"]
        offsets = arrays["rg_offsets"]
        self.rows = {int(r): (int(offsets[i]), int(offsets[i + 1]))
                     for i, r in enumerate(arrays["rg_ids"])}

    def reaction_values(self, lib: LibraryText, t: int, task: str) -> np.ndarray:
        """Flat float64 values over reaction t: outer sums in R-group order, then the bias."""
        i = self.task_names.index(task)
        rgs = lib.reactions[t]
        parts = []
        for r in rgs:
            lo, hi = self.rows[r]
            if hi - lo != len(lib.rgroups[r]):
                raise ValueError(f"table rows for R-group {r} do not match the library")
            parts.append(self.values[i, lo:hi].astype(np.float64))
        c = len(parts)
        acc = parts[0].reshape([-1] + [1] * (c - 1))
        for j in range(1, c):
            shape = [1] * c
            shape[j] = -1
            acc = acc + parts[j].reshape(shape)
        return (acc + float(self.biases[i])).reshape(-1)


# ---------------------------------------------------------------------------
# queries and the brute-force top-k reference
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Query:
    objective: str
    direction: str
    constraints: tuple[tuple[str, float, float], ...]  # (task, lower, upper)
    k: int

    @classmethod
    def from_doc(cls, doc: dict) -> "Query":
        cons = tuple(
            (c["task"], float(c.get("lower", -np.inf)), float(c.get("upper", np.inf)))
            for c in doc.get("constraints", [])
        )
        obj = doc["objective"]
        return cls(obj["task"], obj.get("direction", "maximize"), cons, int(doc.get("k", 10)))

    @property
    def tasks(self) -> list[str]:
        return [self.objective] + [c[0] for c in self.constraints]


def feasible_mask(n: int, values: list[np.ndarray], constraints) -> np.ndarray:
    """True where every value lies inside its closed [lower, upper] interval."""
    ok = np.ones(n, dtype=bool)
    for v, (_, lower, upper) in zip(values, constraints):
        ok &= (v >= lower) & (v <= upper)
    return ok


def top_feasible(g, s, feasible, k) -> np.ndarray:
    """Positions of the k best feasible entries, by s descending then g ascending."""
    idx = np.flatnonzero(feasible)
    if k == 0:
        return idx[:0]
    if len(idx) > k:
        sf = s[idx]
        kth = np.partition(sf, len(sf) - k)[len(sf) - k]
        idx = idx[sf >= kth]  # ties at the threshold are settled by the lexsort below
    order = np.lexsort((g[idx], -s[idx]))
    return idx[order[:k]]


@dataclass
class Reference:
    g: np.ndarray             # global indices, best first
    objective: np.ndarray     # raw objective values
    constraints: np.ndarray   # (n, n_constraints) predicted constraint values


def reference_hits(lib: LibraryText, table: TableArrays, queries: list[Query]) -> list[Reference]:
    """Exact constrained top-k for several queries in one pass over the library.

    Each reaction's task values are built once as numpy outer sums and shared
    by every query; per reaction each query keeps its k best feasible
    products, and the survivors are merged by a lexsort on (objective, index).
    Predicted violators never reach the output, so they are dropped here.
    """
    needed = sorted({t for q in queries for t in q.tasks})
    parts: list[list[tuple]] = [[] for _ in queries]
    for t in range(len(lib.reactions)):
        vals = {task: table.reaction_values(lib, t, task) for task in needed}
        g = np.arange(lib.offsets[t], lib.offsets[t + 1], dtype=np.int64)
        for qi, q in enumerate(queries):
            obj = vals[q.objective]
            s = obj if q.direction == "maximize" else -obj
            cons = [vals[c[0]] for c in q.constraints]
            feas = feasible_mask(len(obj), cons, q.constraints)
            sel = top_feasible(g, s, feas, q.k)
            parts[qi].append((g[sel], s[sel], obj[sel], np.stack([c[sel] for c in cons], axis=1)
                              if cons else np.empty((len(sel), 0))))
        del vals
    out = []
    for q, chunks in zip(queries, parts):
        g = np.concatenate([c[0] for c in chunks])
        s = np.concatenate([c[1] for c in chunks])
        order = np.lexsort((g, -s))[: q.k]
        out.append(Reference(
            g=g[order],
            objective=np.concatenate([c[2] for c in chunks])[order],
            constraints=np.concatenate([c[3] for c in chunks])[order],
        ))
    return out


# ---------------------------------------------------------------------------
# hit-file comparison
# ---------------------------------------------------------------------------

def compare_hits(path, lib: LibraryText, query: Query, ref: Reference, assembled: bool) -> list[str]:
    """Problems found in one hit file; an empty list means it matches the reference."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = HITS_HEADER + "".join(f"\t{c[0]}" for c in query.constraints)
    if assembled:
        header += "\tassembled"
    if not lines or lines[0] != header:
        return [f"{path}: bad header"]
    rows = [ln.split("\t") for ln in lines[1:]]
    n_cols = header.count("\t") + 1
    if any(len(r) != n_cols for r in rows):
        return [f"{path}: wrong column count"]
    if len(rows) != len(ref.g):
        return [f"{path}: {len(rows)} hits, expected {len(ref.g)}"]
    if not rows:
        return []
    cols = list(zip(*rows))
    problems = []
    if [int(x) for x in cols[0]] != list(range(len(rows))):
        problems.append("ranks out of sequence")
    g = np.array([int(x) for x in cols[1]], dtype=np.int64)
    if not np.array_equal(g, ref.g):
        bad = int(np.flatnonzero(g != ref.g)[0])
        problems.append(f"global index at rank {bad} is {g[bad]}, expected {ref.g[bad]}")
        return [f"{path}: {p}" for p in problems]
    t, sids = lib.decode(g)
    if [int(x) for x in cols[2]] != t.tolist():
        problems.append("reaction ids do not match the global indices")
    if list(cols[3]) != [",".join(map(str, s)) for s in sids]:
        problems.append("synthon ids do not match the global indices")
    if not np.array_equal(np.array([float(x) for x in cols[4]]), ref.objective):
        problems.append("objective values differ from the outer-sum reference")
    if any(float(x) != 0.0 for x in cols[5]):
        problems.append("a predicted violator was kept")
    for j in range(len(query.constraints)):
        if not np.array_equal(np.array([float(x) for x in cols[6 + j]]), ref.constraints[:, j]):
            problems.append(f"constraint column {query.constraints[j][0]} differs from the reference")
    if assembled:
        expected = [lib.assembled(ti, s) for ti, s in zip(t.tolist(), sids)]
        if list(cols[-1]) != expected:
            problems.append("assembled column differs from the library tokens")
    return [f"{path}: {p}" for p in problems]


def read_hit_indices(path) -> np.ndarray:
    with open(path) as fh:
        fh.readline()
        return np.array([int(line.split("\t", 2)[1]) for line in fh if line.strip()], dtype=np.int64)


# ---------------------------------------------------------------------------
# recall recount for `evaluate`
# ---------------------------------------------------------------------------

def oracle_library_values(oracle, library, task: str) -> np.ndarray:
    """Oracle values over the whole library, one props.oracle_block_values call per block."""
    from apexcsl import props

    out = []
    for t, rx in enumerate(library.reactions):
        for d in range(len(rx.rgroups[0].synthon_ids)):
            out.append(props.oracle_block_values(oracle, library, task, t, d))
    return np.concatenate(out)


def recount_evaluation(report_path, hits: np.ndarray, query: Query, oracle_values: dict):
    """Recompute recall-j-at-k and the satisfaction rate of an `evaluate` report.

    Returns (problems, recounted recalls); no problems means the report matches.

    The true top-j comes from a numpy lexsort over every oracle-feasible
    product, a selection path separate from evalkit.oracle_topk's heap.
    """
    obj = oracle_values[query.objective]
    n = len(obj)
    g = np.arange(n, dtype=np.int64)
    s = obj if query.direction == "maximize" else -obj
    cons = [oracle_values[c[0]] for c in query.constraints]
    feas = feasible_mask(n, cons, query.constraints)
    order = np.flatnonzero(feas)[np.lexsort((g[feas], -s[feas]))]
    if query.constraints and len(hits):
        sat = f"{np.count_nonzero(feas[hits]) / len(hits):.6f}"
    else:
        sat = f"{1.0:.6f}"
    problems = []
    recalls = []
    with open(report_path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "j\trecall\tsatisfaction_rate\tbase_rate":
        return [f"{report_path}: bad header"], []
    hit_set = set(hits.tolist())
    for line in lines[1:]:
        j_s, recall_s, sat_s, _ = line.split("\t")
        truth = order[: int(j_s)]
        if len(truth):
            recall = len(hit_set.intersection(truth.tolist())) / len(truth)
            expected = f"{recall:.6f}"
            recalls.append(recall)
        else:
            expected = "NA"
        if recall_s != expected:
            problems.append(f"{report_path}: j={j_s} recall {recall_s}, recount gives {expected}")
        if sat_s != sat:
            problems.append(f"{report_path}: j={j_s} satisfaction {sat_s}, recount gives {sat}")
    return problems, recalls
