"""Synthon feature hashing, synthetic ground-truth oracle, and label file I/O.

The oracle stands in for expensive per-compound scoring: every task value is
a deterministic function of the product's synthon ids and the oracle seed.
Additive tasks are exactly representable as a per-(R-group, synthon) sum; the
nonlinear and pairwise terms add bounded, controllable hardness.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .blobio import fits, naming, utf8_text
from .csl import MAX_COUNT, CslLibrary, LibraryError, format_rows, gather_sum, id_text, product_count

DEFAULT_FEATURE_DIM = 64
DEFAULT_CROSS_TERMS = 16

_NGRAM_SIZES = (1, 2, 3)
_FEATURE_SCALE = 0.25

# 64-bit mixing constants (splitmix64 family)
_M1 = np.uint64(0x9E3779B97F4A7C15)
_M2 = np.uint64(0xBF58476D1CE4E5B9)
_M3 = np.uint64(0x94D049BB133111EB)


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class FeatureConfig:
    p: int = DEFAULT_FEATURE_DIM   # hashed n-gram buckets
    q: int = DEFAULT_CROSS_TERMS   # random-projection cross terms
    seed: int = 0                  # seeds the hash salt and projection matrix

    def __post_init__(self):
        if self.p < 1 or self.q < 0:
            raise OracleError(f"feature dimensions need p >= 1 and q >= 0, got p={self.p}, q={self.q}")


FEATURE_CONFIG_SPEC = {"p": int, "q": int, "seed": int}  # a FeatureConfig in blob meta (blobio.fits)


def _bucket(ngram: str, salt: int, p: int) -> int:
    digest = hashlib.blake2b(f"{salt}:{ngram}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") % p


@lru_cache(maxsize=None)
def _cross_projection(p: int, q: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed + 1)
    return rng.standard_normal((q, p)) / np.sqrt(p)


def synthon_features(token: str, config: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """Hash token n-grams into p count buckets, with fixed scaling."""
    if not token:
        raise ValueError("empty synthon token")
    counts = np.zeros(config.p)
    for n in _NGRAM_SIZES:
        for i in range(len(token) - n + 1):
            counts[_bucket(token[i : i + n], config.seed, config.p)] += 1.0
    return counts * _FEATURE_SCALE


def library_synthon_features(library: CslLibrary, config: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """Feature matrix indexed by synthon id, shape (|S|, p)."""
    return np.stack([synthon_features(s.token, config) for s in library.synthons])


def synthon_features_of(library: CslLibrary, config: FeatureConfig) -> tuple[np.ndarray, np.ndarray]:
    """The library's synthon features and each one's norm, read-only; built on
    first use per config and kept on the library."""
    memo = library.synthon_feature_memo
    if config not in memo:
        features = library_synthon_features(library, config)
        norms = np.asarray([float(np.linalg.norm(v)) for v in features])  # a batched norm rounds differently
        features.flags.writeable = norms.flags.writeable = False
        memo[config] = features, norms
    return memo[config]


def product_feature_matrix(library: CslLibrary, sids: np.ndarray, config: FeatureConfig) -> np.ndarray:
    """Product features of every row of an (n, width) synthon-id matrix, in one pass.

    Row i lists product i's synthons in R-group order, then -1 past its
    reaction's R-groups (`PairLayout.synthon_ids` gives this layout), so 2- and
    3-component products mix. Its features are its synthon vectors summed from
    zeros in R-group order, then q cross terms: a fixed projection of the
    product of its two largest-norm synthon vectors (ties by position; one
    synthon crosses with itself), one matrix-vector product per row.
    """
    synthon_matrix, norms = synthon_features_of(library, config)
    sids = np.asarray(sids, dtype=np.int64)
    present = sids >= 0
    n = len(sids)
    out = np.empty((n, config.p + config.q))
    out[:, : config.p] = gather_sum(synthon_matrix, sids)
    # largest norm first, ties by position; absent columns last
    order = np.argsort(np.where(present, -norms[sids], np.inf), axis=1, kind="stable")
    rows = np.arange(n)
    a = sids[rows, order[:, 0]]
    b = np.where(present.sum(axis=1) > 1, sids[rows, order[:, min(1, sids.shape[1] - 1)]], a)
    ab = synthon_matrix[a] * synthon_matrix[b]
    # np.matmul over the stack is one gemv per row; a single `ab @ P.T` gemm
    # rounds differently
    P = _cross_projection(config.p, config.q, config.seed)
    out[:, config.p :] = np.matmul(P, ab[:, :, None])[:, :, 0]
    return out


# ---------------------------------------------------------------------------
# ground-truth oracle
# ---------------------------------------------------------------------------

def repeated_name(names: list[str]) -> str | None:
    """The first name that `names` lists a second time, or None."""
    return next((name for i, name in enumerate(names) if name in names[:i]), None)


@dataclass
class TaskDef:
    name: str
    mode: str  # "additive" optionally suffixed with "+nonlinear" and/or "+pairwise"
    latent: np.ndarray  # per-synthon-id contribution, shape (|S|,)
    nonlinear_scale: float = 0.0
    nonlinear_alpha: float = 0.05
    pair_scale: float = 0.0
    pair_density: float = 0.05

    def __post_init__(self):
        terms = set(self.terms)
        if "additive" not in terms or not terms <= {"additive", "nonlinear", "pairwise"}:
            raise OracleError(f"bad task mode {self.mode!r}")
        scales = np.asarray([self.nonlinear_scale, self.nonlinear_alpha, self.pair_scale, self.pair_density],
                            dtype=np.float64)
        if not (np.isfinite(self.latent).all() and np.isfinite(scales).all()):
            raise OracleError(f"task {self.name!r} has a non-finite latent or scale")

    @property
    def terms(self) -> list[str]:
        return self.mode.split("+")


@dataclass
class GroundTruthOracle:
    tasks: list[TaskDef]
    seed: int
    _by_name: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        repeated = repeated_name([t.name for t in self.tasks])
        if repeated is not None:
            raise OracleError(f"oracle lists task {repeated!r} more than once")
        self._by_name = {t.name: i for i, t in enumerate(self.tasks)}

    def task(self, name: str) -> TaskDef:
        return self.tasks[self.task_index(name)]

    def task_index(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise OracleError(f"unknown task {name!r}") from None

    @property
    def task_names(self) -> list[str]:
        return [t.name for t in self.tasks]

    def check_library(self, library: CslLibrary) -> None:
        """Every task must hold one latent per synthon of the library, and no
        product's value may overflow: per reaction, the R-groups' largest
        |latent| summed in R-group order from 0.0, then |nonlinear_scale|, then
        |pair_scale| once per R-group pair, must be finite. The value rule adds
        terms no larger in magnitude in that order, and rounding is monotone,
        so no value, nor any sum on the way to it, is larger."""
        layout = library.layout
        pairs = layout.n_rgroups * (layout.n_rgroups - 1) // 2
        for t in self.tasks:
            if np.shape(t.latent) != (len(library.synthons),):
                raise OracleError(f"task {t.name!r} needs one latent per synthon ({len(library.synthons)})")
            largest = np.maximum.reduceat(np.abs(t.latent[layout.member_ids]), layout.rg_offsets[:-1])
            with np.errstate(over="ignore"):
                worst = np.bincount(layout.rg_parent, largest, len(pairs)) + abs(t.nonlinear_scale)
                for i in range(int(pairs.max(initial=0))):
                    worst = worst + np.where(pairs > i, abs(t.pair_scale), 0.0)
            if not np.isfinite(worst).all():
                raise OracleError(f"task {t.name!r} has latents or scales so large that a value can overflow")


def _splitmix(x: np.ndarray) -> np.ndarray:
    # deliberate modular uint64 arithmetic
    with np.errstate(over="ignore"):
        x = (x + _M1).astype(np.uint64)
        x ^= x >> np.uint64(30)
        x = (x * _M2).astype(np.uint64)
        x ^= x >> np.uint64(27)
        x = (x * _M3).astype(np.uint64)
        x ^= x >> np.uint64(31)
    return x


def _pair_uniform(sa, sb, salt: int) -> np.ndarray:
    """Deterministic uniforms in [0,1) keyed by an unordered synthon id pair."""
    a = np.asarray(sa, dtype=np.uint64)
    b = np.asarray(sb, dtype=np.uint64)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    with np.errstate(over="ignore"):
        h = _splitmix(_splitmix(lo * _M1 + np.uint64(salt)) ^ (hi * _M3))
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def pair_coefficient(task: TaskDef, task_salt: int, sa, sb) -> np.ndarray:
    """Sparse symmetric pairwise term; zero unless the pair's gate draw fires."""
    gate = _pair_uniform(sa, sb, task_salt)
    value = _pair_uniform(sa, sb, task_salt + 0x51ED)
    coeff = np.where(gate < task.pair_density, task.pair_scale * (2.0 * value - 1.0), 0.0)
    return coeff


def _task_salt(oracle: GroundTruthOracle, task: TaskDef) -> int:
    return (oracle.seed * 1000003 + oracle.task_index(task.name) * 8191) & 0xFFFFFFFF


def _task_values(oracle: GroundTruthOracle, task: TaskDef, ids):
    """The oracle's value rule over one synthon-id array per R-group, in
    declaration order; the arrays broadcast together. 0.0 plus the latents
    in R-group order, then the tanh term, then the pairwise terms in
    lexicographic R-group-pair order: one order for every caller, so every
    caller agrees bit for bit."""
    base = 0.0
    for s in ids:
        base = base + task.latent[s]
    value, terms = base, task.terms
    if "nonlinear" in terms:
        with np.errstate(over="ignore"):  # tanh(+-inf) is +-1.0, the limit of a finite product
            scaled = task.nonlinear_alpha * base
        value = value + task.nonlinear_scale * np.tanh(scaled)
    if "pairwise" in terms:
        salt = _task_salt(oracle, task)
        for a, b in combinations(ids, 2):
            value = value + pair_coefficient(task, salt, a, b)
    return value


def ground_truth(oracle: GroundTruthOracle, task_name: str, synthon_ids) -> float:
    """One product's oracle value on a task, from its synthon ids in R-group order."""
    return float(_task_values(oracle, oracle.task(task_name), synthon_ids))


def oracle_values(
    oracle: GroundTruthOracle, library: CslLibrary, task_name: str, gidx: np.ndarray
) -> np.ndarray:
    """`ground_truth` at every global index of an array, in one pass per R-group count."""
    task = oracle.task(task_name)
    pos, digits = library.layout.decode(gidx)
    sids = library.layout.synthon_ids(pos, digits)
    width = library.layout.n_rgroups[pos]
    value = np.empty(len(sids))
    for c in np.unique(width).tolist():
        rows = np.flatnonzero(width == c)
        value[rows] = _task_values(oracle, task, sids[rows, :c].T)
    return value


def oracle_block_values(
    oracle: GroundTruthOracle,
    library: CslLibrary,
    task_name: str,
    reaction_id: int,
    first_digit,
) -> np.ndarray:
    """`ground_truth` over (reaction, first-R-group digit) blocks, each block's
    products in canonical order: for an int digit a flat array over its block,
    for an array of digits one row per digit, in one kernel call."""
    layout = library.layout
    ids = [layout.member_ids[rows] for rows in layout.reaction_rows(reaction_id)]
    c = len(ids)
    # the blocks' first synthons on the first grid axis, then each later R-group's ids on its own axis
    first = np.reshape(ids[0][first_digit], (-1,) + (1,) * (c - 1))
    grid = [first] + [a.reshape((-1,) + (1,) * (c - 1 - j)) for j, a in enumerate(ids[1:], 1)]
    values = _task_values(oracle, oracle.task(task_name), grid)
    return np.reshape(values, (len(first), math.prod(map(len, ids[1:]))) if np.ndim(first_digit) else -1)


_NUMBER = (int, float)
# an oracle file's shape, as blobio.fits checks it
ORACLE_SPEC = {"version": int, "seed": int, "tasks": [{
    "name": str, "mode": str, "latent": [_NUMBER], "nonlinear_scale": _NUMBER,
    "nonlinear_alpha": _NUMBER, "pair_scale": _NUMBER, "pair_density": _NUMBER,
}]}


def save_oracle(oracle: GroundTruthOracle, path) -> None:
    tasks = [{**asdict(t), "latent": t.latent.tolist()} for t in oracle.tasks]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"version": 1, "seed": oracle.seed, "tasks": tasks}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_oracle(path) -> GroundTruthOracle:
    """An oracle written by save_oracle; OracleError if the file is shaped otherwise."""
    with utf8_text(path, OracleError) as fh:
        payload = json.load(fh)
    if not fits(payload, ORACLE_SPEC):
        raise OracleError(f"{path}: not an oracle file: a version, an integer seed and tasks with save_oracle's fields")
    with naming(path, OracleError):
        try:
            tasks = [TaskDef(**{**t, "latent": np.asarray(t["latent"], dtype=np.float64)}) for t in payload["tasks"]]
        except OverflowError:  # an integer past the float range
            raise OracleError("a latent or scale is too large for a 64-bit float") from None
        return GroundTruthOracle(tasks=tasks, seed=payload["seed"])


DOCKING_TASKS = ["dock_a", "dock_b", "dock_c", "dock_d", "dock_e"]
PROPERTY_TASKS = ["mw", "logp", "hbd", "hba", "rotb", "tpsa"]


def make_default_oracle(
    library: CslLibrary,
    seed: int,
    feature_config: FeatureConfig = FeatureConfig(),
    latent_kind: str = "feature_linear",
    hardness: float = 1.0,
) -> GroundTruthOracle:
    """Five docking-like tasks (nonlinear + pairwise) and six additive property tasks.

    latent_kind "feature_linear" draws each task's per-synthon contribution as a
    random linear functional of the hashed synthon features, which makes the
    additive tasks exactly realizable by a linear model over product features;
    "random" draws i.i.d. normals instead.
    """
    rng = np.random.default_rng(seed)
    feats, _ = synthon_features_of(library, feature_config)
    tasks = []

    def draw_latent():
        if latent_kind == "feature_linear":
            beta = rng.standard_normal(feature_config.p) / np.sqrt(feature_config.p)
            return feats @ beta
        if latent_kind == "random":
            return rng.standard_normal(len(library.synthons))
        raise OracleError(f"unknown latent kind {latent_kind!r}")

    for name in DOCKING_TASKS:
        tasks.append(
            TaskDef(
                name=name,
                mode="additive+nonlinear+pairwise",
                latent=draw_latent(),
                nonlinear_scale=0.5 * hardness,
                nonlinear_alpha=0.5,
                pair_scale=0.2 * hardness,
                pair_density=0.05,
            )
        )
    for name in PROPERTY_TASKS:
        tasks.append(TaskDef(name=name, mode="additive", latent=draw_latent()))
    return GroundTruthOracle(tasks=tasks, seed=seed)


def make_additive_oracle(
    library: CslLibrary,
    seed: int,
    task_names: list[str] | None = None,
    feature_config: FeatureConfig = FeatureConfig(),
) -> GroundTruthOracle:
    """Purely additive, feature-linear tasks; the exactly-factorizable benchmark."""
    rng = np.random.default_rng(seed)
    feats, _ = synthon_features_of(library, feature_config)
    names = task_names if task_names is not None else ["objective", "prop_a", "prop_b"]
    tasks = []
    for name in names:
        beta = rng.standard_normal(feature_config.p) / np.sqrt(feature_config.p)
        tasks.append(TaskDef(name=name, mode="additive", latent=feats @ beta))
    return GroundTruthOracle(tasks=tasks, seed=seed)


# ---------------------------------------------------------------------------
# labeled datasets
# ---------------------------------------------------------------------------

@dataclass
class LabeledDataset:
    """Oracle labels as columns: label i gives product `global_index[i]` the
    value `value[i]` on task `task_names[task[i]]`. Task names are numbered in
    order of first appearance."""

    global_index: np.ndarray  # int64
    task: np.ndarray          # int64 index into task_names
    value: np.ndarray         # float64
    task_names: list[str]

    def __len__(self) -> int:
        return len(self.global_index)


@dataclass(frozen=True)
class SampleSpec:
    """Full enumeration when size is None, else a seeded uniform sample."""

    size: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.size is not None and self.size < 0:
            raise OracleError(f"sample size must be >= 0, got {self.size}")


def label_library(
    oracle: GroundTruthOracle,
    library: CslLibrary,
    task_names: list[str],
    sample: SampleSpec = SampleSpec(),
) -> LabeledDataset:
    """Every sampled product labeled on every task: products ascending, each
    one's tasks in the given order."""
    if repeated_name(task_names) is not None:
        raise OracleError(f"tasks must be distinct, got {','.join(task_names)}")
    total = product_count(library)
    if sample.size is None:
        gidxs = np.arange(total)
    else:
        rng = np.random.default_rng(sample.seed)
        n = min(sample.size, total)
        gidxs = np.sort(rng.choice(total, size=n, replace=False)) if n else np.zeros(0, dtype=np.int64)
    values = np.empty((len(gidxs), len(task_names)))
    for t, task in enumerate(task_names):
        values[:, t] = oracle_values(oracle, library, task, gidxs)
    task = np.tile(np.arange(len(task_names), dtype=np.int64), len(gidxs))
    return LabeledDataset(np.repeat(gidxs, len(task_names)), task, values.reshape(-1), list(task_names))


LABEL_HEADER = "reaction_id\tsynthon_ids\ttask\tvalue"
LABEL_CHUNK_ROWS = 1 << 14


def save_labels(dataset: LabeledDataset, path, library: CslLibrary) -> None:
    """One label per line; each LABEL_CHUNK_ROWS lines are one `csl.format_rows` call."""
    layout = library.layout
    fmt = "%s" * int(layout.n_rgroups.max(initial=0)) + "\t%s\t%r\n"
    names = np.asarray(dataset.task_names, dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(LABEL_HEADER + "\n")
        for lo in range(0, len(dataset), LABEL_CHUNK_ROWS):
            hi = min(lo + LABEL_CHUNK_ROWS, len(dataset))
            rows = layout.pair_rows(*layout.decode(dataset.global_index[lo:hi]))
            fh.write(format_rows(fmt, [*id_text(library, rows).T.tolist(), names[dataset.task[lo:hi]].tolist(),
                                       dataset.value[lo:hi].tolist()]))


def load_labels(path, library: CslLibrary) -> LabeledDataset:
    """The labels of a file written by save_labels. Each line's fields are
    checked as it is read; the products are then encoded in one pass."""
    layout = library.layout
    width = int(layout.n_rgroups.max(initial=0))
    linenos, reactions, sid_rows, tasks, values = [], [], [], [], []
    task_of: dict[str, int] = {}
    with utf8_text(path, OracleError) as fh:
        header = fh.readline().rstrip("\n")
        if header != LABEL_HEADER:
            raise OracleError(f"bad label file header: {header!r}")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 4:
                raise OracleError(f"line {lineno}: expected 4 fields, got {len(parts)}")
            try:
                reaction_id = int(parts[0])
                sids = [int(x) for x in parts[1].split(",")]
                value = float(parts[3])
                if min(sids) < -MAX_COUNT - 1 or max(sids) > MAX_COUNT:
                    raise ValueError("a synthon id exceeds the signed 64-bit range")
            except ValueError as exc:
                raise OracleError(f"line {lineno}: malformed field: {exc}") from None
            if not np.isfinite(value):
                raise OracleError(f"line {lineno}: non-finite value")
            try:
                rx = library.reaction(reaction_id)
            except LibraryError:
                raise OracleError(f"line {lineno}: unknown reaction {reaction_id}") from None
            if len(sids) != len(rx.rgroups):
                raise OracleError(f"line {lineno}: expected {len(rx.rgroups)} synthons")
            linenos.append(lineno)
            reactions.append(reaction_id)  # a reaction's id is its position
            sid_rows.append(sids + [-1] * (width - len(sids)))
            tasks.append(task_of.setdefault(parts[2], len(task_of)))
            values.append(value)
    pos = np.asarray(reactions, dtype=np.int64)
    try:
        digits = layout.digits_of(pos, np.asarray(sid_rows, dtype=np.int64).reshape(len(pos), width))
    except LibraryError as exc:
        raise OracleError(f"line {linenos[exc.row]}: {exc}") from None
    return LabeledDataset(layout.encode(pos, digits), np.asarray(tasks, dtype=np.int64),
                          np.asarray(values, dtype=np.float64), list(task_of))
