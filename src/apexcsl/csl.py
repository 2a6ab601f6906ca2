"""Combinatorial synthesis library data model, canonical enumeration, and index codec.

A library is a hierarchy: reactions at the top, R-groups in the middle,
synthons at the bottom. A product is a reaction plus one synthon per R-group,
named by its global index or, through `PairLayout`, by its reaction position
and digits. The canonical enumeration order is: reactions in declaration
order; within a reaction, mixed-radix with the first R-group as the most
significant digit, so (reaction, first-R-group) batches are contiguous in
global index.
"""

from __future__ import annotations

import gc
import hashlib
import math
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, repeat
from typing import Iterator, NamedTuple

import numpy as np

from .blobio import utf8_text

MAX_COUNT = 2**63 - 1  # every global index array is int64

LIBRARY_FORMAT_VERSION = "cslv1"


class LibraryError(ValueError):
    """Structural problem in a library definition or an index out of range."""


class SynthonRecord(NamedTuple):
    synthon_id: int
    token: str  # fragment token string, may contain '*' attachment markers


@dataclass(frozen=True)
class RgroupSpec:
    rgroup_id: int
    synthon_ids: tuple[int, ...]  # eligible synthons, order fixes the digit values


@dataclass(frozen=True)
class ReactionSpec:
    reaction_id: int
    rgroups: tuple[RgroupSpec, ...]  # order is significant: digit order of the codec


@dataclass(frozen=True, eq=False)
class PairLayout:
    """A library's index geometry: the row layout that every per-(R-group,
    synthon) array shares, one row per eligible pair, R-groups in declaration
    order, each one's synthons in digit order; and the codec between global
    indices and digits. Built once per library (`CslLibrary.layout`); read-only."""

    member_ids: np.ndarray  # (n_pairs,) synthon id per pair row
    rg_ids: np.ndarray      # (n_rg,) R-group id per R-group position
    rg_offsets: np.ndarray  # (n_rg+1,) first pair row per R-group position
    rx_offsets: np.ndarray  # (n_rx+1,) first R-group position per reaction position
    rg_parent: np.ndarray   # (n_rg,) reaction position per R-group position
    n_rgroups: np.ndarray   # (n_rx,) R-groups per reaction
    # (n_rx, widest reaction's R-groups): per R-group position of each reaction,
    # its first pair row (0 past the reaction's R-groups) and its synthon
    # count, the decode radix (1 past them)
    first_row: np.ndarray
    radix: np.ndarray

    @classmethod
    def of(cls, reactions: tuple[ReactionSpec, ...]) -> PairLayout:
        rgroups = [rg for rx in reactions for rg in rx.rgroups]
        sizes = np.asarray([len(rg.synthon_ids) for rg in rgroups], dtype=np.int64)
        n_rgroups = np.asarray([len(rx.rgroups) for rx in reactions], dtype=np.int64)
        rx_offsets = np.concatenate(([0], np.cumsum(n_rgroups)))
        rg_offsets = np.concatenate(([0], np.cumsum(sizes)))
        rg_parent = np.repeat(np.arange(len(reactions)), n_rgroups)
        col = np.arange(len(rgroups)) - rx_offsets[rg_parent]
        shape = (len(reactions), int(n_rgroups.max(initial=0)))
        first_row, radix = np.zeros(shape, dtype=np.int64), np.ones(shape, dtype=np.int64)
        first_row[rg_parent, col] = rg_offsets[:-1]
        radix[rg_parent, col] = sizes
        arrays = (
            np.asarray([s for rg in rgroups for s in rg.synthon_ids], dtype=np.int64),
            np.asarray([rg.rgroup_id for rg in rgroups], dtype=np.int64),
            rg_offsets, rx_offsets, rg_parent, n_rgroups, first_row, radix,
        )
        for a in arrays:
            a.flags.writeable = False
        return cls(*arrays)

    @property
    def n_pairs(self) -> int:
        return len(self.member_ids)

    @cached_property
    def product_offsets(self) -> np.ndarray:
        """(n_rx+1,) each reaction's first global index, then the product count,
        as int64: sums of the products of the radix rows, taken as exact Python
        ints; LibraryError if the count exceeds the signed 64-bit range."""
        offsets = list(accumulate(map(math.prod, self.radix.tolist()), initial=0))
        if offsets[-1] > MAX_COUNT:
            raise LibraryError(f"product count {offsets[-1]} exceeds the signed 64-bit range")
        offsets = np.asarray(offsets, dtype=np.int64)
        offsets.flags.writeable = False
        return offsets

    def reaction_rows(self, reaction_pos: int) -> list[slice]:
        """The pair rows of each R-group of one reaction, in declaration order."""
        bounds = self.rg_offsets[self.rx_offsets[reaction_pos] : self.rx_offsets[reaction_pos + 1] + 1].tolist()
        return [slice(a, b) for a, b in zip(bounds, bounds[1:])]

    def matches(self, member_ids, rg_offsets, rg_ids) -> bool:
        """True if the stored arrays of a table or cache lay out pair rows as this layout does."""
        pairs = ((member_ids, self.member_ids), (rg_offsets, self.rg_offsets), (rg_ids, self.rg_ids))
        return all(np.array_equal(a, b) for a, b in pairs)

    def decode(self, gidx) -> tuple[np.ndarray, np.ndarray]:
        """Each global index's reaction position and digits, in one pass.

        The digit matrix has one column per R-group position of the widest
        reaction; digit j of a row is the position of its synthon in R-group j
        of its reaction, and the columns past its reaction's R-groups hold -1.
        """
        gidx = np.asarray(gidx, dtype=np.int64)
        offsets = self.product_offsets
        if len(gidx) and not (0 <= gidx.min() and gidx.max() < offsets[-1]):
            raise LibraryError(f"global index out of range [0, {offsets[-1]})")
        width = self.radix.shape[1]
        pos = np.searchsorted(offsets, gidx, side="right") - 1
        rem = gidx - offsets[pos]
        digits = np.empty((len(gidx), width), dtype=np.int64)
        for j in range(width - 1, -1, -1):
            rem, digits[:, j] = np.divmod(rem, self.radix[pos, j])
        digits[np.arange(width) >= self.n_rgroups[pos][:, None]] = -1
        return pos, digits

    def encode(self, pos: np.ndarray, digits: np.ndarray) -> np.ndarray:
        """The global index of every row of a digit matrix: the exact inverse of
        `decode`. The matrix holds at least each row's reaction's R-group columns;
        columns past them are ignored."""
        pos, digits = np.asarray(pos, dtype=np.int64), np.asarray(digits, dtype=np.int64)
        idx = np.zeros(len(pos), dtype=np.int64)
        for j in range(digits.shape[1]):  # past a reaction's R-groups the radix is 1 and the digit counts as 0
            idx = idx * self.radix[pos, j] + np.maximum(digits[:, j], 0)
        return self.product_offsets[pos] + idx

    def digits_of(self, pos: np.ndarray, sids: np.ndarray) -> np.ndarray:
        """The inverse of `synthon_ids`: the digit of every cell of a synthon-id
        matrix, one row per product of reaction position `pos`; -1 past the
        reaction's R-groups, whatever the cell holds there. LibraryError on the
        first cell, in row order, whose synthon is not eligible for its
        R-group; the error's `row` is that cell's row."""
        pos, sids = np.asarray(pos, dtype=np.int64), np.asarray(sids, dtype=np.int64)
        # a pair's key is its R-group position * base + its synthon id
        base = int(self.member_ids.max(initial=-1)) + 1
        pair_keys = np.repeat(np.arange(len(self.rg_ids)), np.diff(self.rg_offsets)) * base + self.member_ids
        order = np.argsort(pair_keys)
        col = np.arange(sids.shape[1])
        present = col < self.n_rgroups[pos][:, None]
        rg = np.where(present, self.rx_offsets[pos][:, None] + col, 0)
        key = np.where(present & (sids >= 0) & (sids < base), rg * base + sids, -1)
        row = order[np.minimum(np.searchsorted(pair_keys, key, sorter=order), len(order) - 1)]
        bad = present & (pair_keys[row] != key)
        if bad.any():
            i, j = np.argwhere(bad)[0].tolist()
            error = LibraryError(f"synthon {sids[i, j]} is not eligible for R-group {self.rg_ids[rg[i, j]]}")
            error.row = i
            raise error
        return np.where(present, row - self.rg_offsets[rg], -1)

    def pair_rows(self, pos: np.ndarray, digits: np.ndarray) -> np.ndarray:
        """The pair row of every cell of `decode`'s output; -1 where the digit is -1."""
        return np.where(digits >= 0, self.first_row[pos] + digits, -1)

    def synthon_ids(self, pos: np.ndarray, digits: np.ndarray) -> np.ndarray:
        """The synthon id of every cell of `decode`'s output; -1 where the digit is -1."""
        rows = self.pair_rows(pos, digits)
        return np.where(rows >= 0, self.member_ids[rows], -1)

    def blocks(self, start: int, end: int):
        """Every block that overlaps [start, end), in index order, as int64
        arrays: reaction position, first digit, block start, and the block's
        [lo, hi) offsets clipped to the range. Each of a reaction's blocks
        holds the product of its later R-groups' radices; a library without
        reactions has no blocks."""
        offsets = self.product_offsets
        size = self.radix[:, 1:].prod(axis=1)
        # per reaction, the first digit whose block ends past start, and the first one past the range
        first = np.maximum((start - offsets[:-1]) // size, 0)
        stop = np.minimum(-((offsets[:-1] - end) // size), np.diff(offsets) // size)
        count = np.maximum(stop - first, 0) if start < end else np.zeros_like(first)
        rx = np.repeat(np.arange(len(size)), count)
        digit = np.arange(len(rx)) - np.repeat(np.cumsum(count) - count - first, count)
        g0 = offsets[rx] + digit * size[rx]
        return rx, digit, g0, np.maximum(start - g0, 0), np.minimum(end - g0, size[rx])


@dataclass
class CslLibrary:
    reactions: tuple[ReactionSpec, ...]
    synthons: tuple[SynthonRecord, ...]
    text_sha256: str | None = field(default=None, compare=False, repr=False)
    # per FeatureConfig, the synthon features and their norms (`props.synthon_features_of`)
    synthon_feature_memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @cached_property
    def _fragment_ranks(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct fragments (tokens without '*' markers) in sorted order,
        and per synthon id the rank of its fragment among them."""
        fragment = [s.token.replace("*", "") for s in self.synthons]
        ordered = sorted(set(fragment))
        rank = {f: i for i, f in enumerate(ordered)}
        return np.asarray(ordered, dtype=object), np.asarray([rank[f] for f in fragment], dtype=np.int64)

    @cached_property
    def layout(self) -> PairLayout:
        """The library's pair-row layout, built once."""
        return PairLayout.of(self.reactions)

    @cached_property
    def fingerprint(self) -> str:
        """`library_fingerprint(self)`, worked out once."""
        return library_fingerprint(self)

    def __getattr__(self, name: str):
        # reached only for an attribute the library does not hold: `synthons`
        # of a library `load_library` read without its S lines
        if name != "synthons" or "_unparsed" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.synthons = deserialize_library(self._unparsed).synthons
        del self._unparsed
        return self.synthons

    def reaction(self, reaction_id: int) -> ReactionSpec:
        if not 0 <= reaction_id < len(self.reactions):
            raise LibraryError(f"reaction {reaction_id} out of range [0, {len(self.reactions)})")
        return self.reactions[reaction_id]

    def reaction_size(self, reaction_id: int) -> int:
        offsets = self.layout.product_offsets
        return int(offsets[reaction_id + 1] - offsets[reaction_id])

    def reaction_offset(self, reaction_id: int) -> int:
        return int(self.layout.product_offsets[reaction_id])

    def iter_rgroups(self) -> Iterator[RgroupSpec]:
        for rx in self.reactions:
            yield from rx.rgroups


def check_library(library: CslLibrary) -> None:
    """Raise LibraryError on the first violated structural invariant, in declaration order."""
    # per-synthon arrays are indexed by synthon id, and reactions are looked up by id
    _check_ids("synthon", [s.synthon_id for s in library.synthons])
    _check_ids("reaction", [rx.reaction_id for rx in library.reactions])
    tokens = [s.token for s in library.synthons]
    if not all(tokens) or re.search(r"\s", "".join(tokens)):  # a token is one field of the text format
        i = next(i for i, t in enumerate(tokens) if t.split() != [t])
        raise LibraryError(f"synthon {i} token {tokens[i]!r} is empty or holds whitespace")
    _check_layout(library, len(library.synthons))


def _check_ids(kind: str, ids: list[int]) -> None:
    if ids != list(range(len(ids))):
        i, x = next((i, x) for i, x in enumerate(ids) if x != i)
        raise LibraryError(f"{kind} id {x} at position {i}: ids must be 0..n-1 in order")


def _check_layout(library: CslLibrary, n_synthons: int) -> None:
    """`check_library`'s checks of the reactions' R-groups, against synthon ids 0..n_synthons-1."""
    try:
        layout = library.layout
    except OverflowError:
        raise LibraryError("an R-group or synthon id exceeds the 64-bit range") from None
    sizes, members = np.diff(layout.rg_offsets), layout.member_ids
    pair_rg = np.repeat(np.arange(len(sizes)), sizes)
    order = np.lexsort((members, pair_rg))
    twin = (np.diff(pair_rg[order]) == 0) & (np.diff(members[order]) == 0)
    unknown = (members < 0) | (members >= n_synthons)
    seen_before = ~np.isin(np.arange(len(sizes)), np.unique(layout.rg_ids, return_index=True)[1])
    # per R-group position, its checks in the order they are reported
    failed = np.stack([seen_before, sizes == 0, np.bincount(pair_rg[order[1:]][twin], minlength=len(sizes)) > 0,
                       np.bincount(pair_rg[unknown], minlength=len(sizes)) > 0])
    bad = np.flatnonzero(failed.any(axis=0))
    few = np.flatnonzero(layout.n_rgroups < 2)
    # a reaction's R-group count is checked before its R-groups
    if len(few) and (not len(bad) or few[0] <= layout.rg_parent[bad[0]]):
        raise LibraryError(f"reaction {library.reactions[few[0]].reaction_id} has fewer than 2 R-groups")
    if len(bad):
        missing = np.unique(members[unknown & (pair_rg == bad[0])]).tolist()
        problems = ("appears in more than one reaction", "has no eligible synthons",
                    "synthon list has duplicates", f"references unknown synthons {missing}")
        raise LibraryError(f"R-group {layout.rg_ids[bad[0]]} {problems[np.argmax(failed[:, bad[0]])]}")
    product_count(library)  # raises past the signed 64-bit range


def product_count(library: CslLibrary) -> int:
    """Total number of products; sum over reactions of the product of R-group sizes."""
    return int(library.layout.product_offsets[-1])


def gather_sum(arr: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Per row of an index matrix, arr at its indices summed from 0.0, column
    by column (R-group order), skipping -1; one row of arr per index."""
    out = np.zeros((len(idx),) + arr.shape[1:])
    present = (idx >= 0).reshape(idx.shape + (1,) * (arr.ndim - 1))
    for j in range(idx.shape[1]):
        np.add(out, arr[idx[:, j]], out=out, where=present[:, j])
    return out


def _cell_text(cells: np.ndarray, size: int, texts) -> np.ndarray:
    """Each cell's text, for an int array of values in [-1, size): "" at -1, else
    `texts(values)[i]` at values[i], where `texts` is called once, on the distinct
    values the cells hold in ascending order, so its work grows with the cells."""
    used = np.zeros(size + 1, dtype=bool)
    used[0] = True
    used[cells + 1] = True
    table = np.asarray([""] + texts(np.flatnonzero(used[1:])), dtype=object)
    return table[(np.cumsum(used) - 1)[cells + 1]]


def id_text(library: CslLibrary, rows: np.ndarray) -> np.ndarray:
    """Per cell of a `layout.pair_rows` matrix, its part of the row's
    `reaction_id<TAB>synthon_ids` fields: `<reaction id (its position)><TAB><synthon id>`
    in the first R-group's column, `,<synthon id>` in a later one, "" at -1."""
    layout = library.layout

    def texts(used: np.ndarray) -> list[str]:
        rg = np.searchsorted(layout.rg_offsets, used, side="right") - 1
        rx = layout.rg_parent[rg]
        return [f"{t}\t{s}" if lead else f",{s}" for lead, t, s in
                zip((rg == layout.rx_offsets[rx]).tolist(), rx.tolist(), layout.member_ids[used].tolist())]

    return _cell_text(rows, layout.n_pairs, texts)


def assembled_text(library: CslLibrary, pos: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Per row of a `layout.pair_rows` matrix (reaction positions `pos`), the
    parts of its product token: `t<reaction id>|`, then its fragments (tokens
    without '*' markers) in rank order, which is sorted order, the first bare and
    each later one after a '.'; -1 cells take a past-the-end rank, sort last and read ""."""
    ordered, ranks = library._fragment_ranks
    rank = np.sort(np.where(rows >= 0, ranks[library.layout.member_ids[rows]], len(ordered)), axis=1)
    rank[rank == len(ordered)] = -1
    prefix = _cell_text(pos[:, None], len(library.reactions), lambda ts: [f"t{t}|" for t in ts.tolist()])
    first = _cell_text(rank[:, :1], len(ordered), lambda r: ordered[r].tolist())
    later = _cell_text(rank[:, 1:], len(ordered), lambda r: ["." + f for f in ordered[r].tolist()])
    return np.hstack([prefix, first, later])


def format_rows(row_format: str, columns: list) -> str:
    """`row_format % row` for every row of equal-length columns, concatenated:
    one `%` operation over the rows' fields laid end to end."""
    n, width = len(columns[0]), len(columns)
    fields = [None] * (n * width)
    for j, column in enumerate(columns):
        fields[j::width] = column
    return (row_format * n) % tuple(fields)


def downsample(library: CslLibrary, per_reaction_fraction: float, seed: int) -> CslLibrary:
    """Uniformly subsample each reaction's synthon lists.

    Uses a per-R-group keep rate of fraction**(1/c) for a c-component reaction
    so the reaction's product count scales by roughly the requested fraction.
    At least one synthon is retained per R-group.
    """
    if not 0.0 < per_reaction_fraction <= 1.0:
        raise LibraryError(f"fraction must be in (0, 1], got {per_reaction_fraction}")
    if per_reaction_fraction == 1.0:
        return library
    rng = np.random.default_rng(seed)
    new_reactions = []
    for rx in library.reactions:
        rate = per_reaction_fraction ** (1.0 / len(rx.rgroups))
        new_rgroups = []
        for rg in rx.rgroups:
            n = len(rg.synthon_ids)
            n_keep = max(1, round(rate * n))
            if n_keep >= n:
                new_rgroups.append(rg)
                continue
            keep = np.sort(rng.choice(n, size=n_keep, replace=False))
            new_rgroups.append(
                RgroupSpec(rg.rgroup_id, tuple(rg.synthon_ids[i] for i in keep))
            )
        new_reactions.append(ReactionSpec(rx.reaction_id, tuple(new_rgroups)))
    return CslLibrary(reactions=tuple(new_reactions), synthons=library.synthons)


@dataclass(frozen=True)
class SyntheticConfig:
    n_reactions: int = 4
    components: tuple[int, ...] = (2, 3)  # cycled across reactions (even 2-/3-way split)
    synthons_per_rgroup: int = 8
    alphabet_size: int = 8
    token_length: int = 6
    share_rate: float = 0.0  # probability an R-group slot reuses an existing synthon


def generate_synthetic(config: SyntheticConfig, seed: int) -> CslLibrary:
    """Deterministic random library; tokens are random strings with one '*' marker."""
    if config.n_reactions < 1 or config.synthons_per_rgroup < 1:
        raise LibraryError("all synthetic config counts must be >= 1")
    if not 0.0 <= config.share_rate <= 1.0:
        raise LibraryError(f"share_rate must be a number in [0, 1], got {config.share_rate}")
    rng = np.random.default_rng(seed)
    alphabet = "abcdefghijklmnopqrstuvwxyz"[: config.alphabet_size]
    synthons: list[SynthonRecord] = []
    reactions: list[ReactionSpec] = []
    next_rgroup = 0

    def new_synthon() -> int:
        letters = rng.integers(0, len(alphabet), size=config.token_length)
        body = "".join(alphabet[i] for i in letters)
        cut = int(rng.integers(1, max(2, config.token_length)))
        token = body[:cut] + "*" + body[cut:]
        sid = len(synthons)
        synthons.append(SynthonRecord(sid, token))
        return sid

    for t in range(config.n_reactions):
        c = config.components[t % len(config.components)]
        rgroups = []
        for _ in range(c):
            ids: list[int] = []
            taken: set[int] = set()
            for _ in range(config.synthons_per_rgroup):
                if synthons and rng.random() < config.share_rate:
                    sid = int(rng.integers(0, len(synthons)))
                    if sid in taken:
                        sid = new_synthon()
                else:
                    sid = new_synthon()
                taken.add(sid)
                ids.append(sid)
            rgroups.append(RgroupSpec(next_rgroup, tuple(ids)))
            next_rgroup += 1
        reactions.append(ReactionSpec(t, tuple(rgroups)))
    library = CslLibrary(reactions=tuple(reactions), synthons=tuple(synthons))
    check_library(library)
    return library


# ---------------------------------------------------------------------------
# serialization: line-oriented text format
#
#   cslv1 <n_synthons> <n_rgroups> <n_reactions>
#   S <synthon_id> <token>
#   R <rgroup_id> <synthon_id>...
#   T <reaction_id> <rgroup_id>...
#
# All ids are 0-based. Line order within each record type is id order.
# ---------------------------------------------------------------------------

def serialize_library(library: CslLibrary) -> str:
    n_rgroups = sum(len(rx.rgroups) for rx in library.reactions)
    lines = [f"{LIBRARY_FORMAT_VERSION} {len(library.synthons)} {n_rgroups} {len(library.reactions)}"]
    for s in library.synthons:
        lines.append(f"S {s.synthon_id} {s.token}")
    for rx in library.reactions:
        for rg in rx.rgroups:
            lines.append("R " + str(rg.rgroup_id) + " " + " ".join(map(str, rg.synthon_ids)))
    for rx in library.reactions:
        lines.append(
            "T " + str(rx.reaction_id) + " " + " ".join(str(rg.rgroup_id) for rg in rx.rgroups)
        )
    return "\n".join(lines) + "\n"


def _records(rows: list[list[str]]):
    """The synthons, R-groups and reactions of a library's split lines, header first, or None if a line
    is malformed, which no later line decides: the S lines in one pass, then R and T lines in file order."""
    rgroups, reactions = {}, []
    try:
        s_rows = [p for p in rows[1:] if p[0] == "S"]
        _, synthon_ids, tokens = zip(*s_rows, strict=True) if s_rows else ((), (), ())
        # SynthonRecord's own constructor, without a Python call per record
        synthons = tuple(map(tuple.__new__, repeat(SynthonRecord), zip(map(int, synthon_ids), tokens)))
        for kind, record_id, *ids in (p for p in rows[1:] if p[0] != "S"):
            record_id, ids = int(record_id), tuple(map(int, ids))
            if kind == "R" and record_id not in rgroups:
                rgroups[record_id] = RgroupSpec(record_id, ids)
            elif kind == "T":  # naming R-groups defined above it
                reactions.append(ReactionSpec(record_id, tuple(map(rgroups.__getitem__, ids))))
            else:
                return None
    except (ValueError, KeyError):
        return None
    return synthons, rgroups, reactions


def deserialize_library(text: str) -> CslLibrary:
    """Parse the text format; the library keeps the text's SHA-256 for `fingerprint_matches`.

    Automatic garbage collection is paused while it parses. The parse holds
    a split list and a SynthonRecord (a tuple subclass, which the collector
    keeps tracking) per line, so the allocations would set off collections
    that walk every live object and free nothing: the parse makes no
    reference cycles. Collection resumes, if it was on, when the parse ends.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse_library(text)
    finally:
        if enabled:
            gc.enable()


def _parse_library(text: str) -> CslLibrary:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    rows = list(map(str.split, lines))
    if not rows:
        raise LibraryError("empty library file")
    try:  # the version, then three counts
        n_s, n_r, n_t = map(int, rows[0][1:] if rows[0][0] == LIBRARY_FORMAT_VERSION else ())
    except ValueError:
        raise LibraryError(f"bad header: {lines[0]!r}") from None
    records = _records(rows)
    if records is None:
        # the first malformed line ends the shortest malformed prefix of the lines
        n = bisect_left(range(len(rows) + 1), True, key=lambda m: _records(rows[:m]) is None)
        raise LibraryError(f"line {n}: malformed record: {lines[n - 1]!r}")
    _check_records(records, (n_s, n_r, n_t))
    library = CslLibrary(tuple(records[2]), records[0], hashlib.sha256(text.encode()).hexdigest())
    check_library(library)
    return library


def _check_records(records, counts: tuple[int, int, int]) -> None:
    """Raise LibraryError unless `_records` found the header's counts of
    synthons, R-groups and reactions, and every R-group is used by a reaction."""
    synthons, rgroups, reactions = records
    if (len(synthons), len(rgroups), len(reactions)) != counts:
        raise LibraryError("header counts do not match record counts")
    unused = rgroups.keys() - {rg.rgroup_id for rx in reactions for rg in rx.rgroups}
    if unused:
        raise LibraryError(f"R-groups {sorted(unused)} are used by no reaction")


def _tail_library(text: str, sha256: str) -> CslLibrary | None:
    """The library of a text from its header and its last n_r + n_t lines,
    the R and T lines, with every check the full parse makes of those lines
    and `check_library`'s layout checks against the header's synthon count;
    its synthons are parsed on their first read. None, so that the full parse
    reads the text, if the header or the line count is not as
    `serialize_library` writes them, or a line or a check fails."""
    header = text.partition("\n")[0]
    try:
        n_s, n_r, n_t = map(int, header.split(" ")[1:])
    except ValueError:
        return None
    if (header != f"{LIBRARY_FORMAT_VERSION} {n_s} {n_r} {n_t}" or min(n_s, n_r, n_t) < 0
            or not text.endswith("\n") or text.count("\n") != 1 + n_s + n_r + n_t):
        return None
    tail = text.rsplit("\n", n_r + n_t + 1)[1:-1]
    rows = [ln.split() for ln in tail]
    # a blank line, or a line break other than "\n", makes other lines for the full parse
    if not all(rows) or any(ln.splitlines() != [ln] for ln in tail):
        return None
    records = _records([header.split(), *rows])
    if records is None:
        return None
    library = CslLibrary(tuple(records[2]), (), sha256)
    try:
        _check_records(records, (0, n_r, n_t))
        _check_ids("reaction", [rx.reaction_id for rx in library.reactions])
        _check_layout(library, n_s)
    except LibraryError:
        return None
    del library.synthons  # `CslLibrary.__getattr__` parses them from the text
    library._unparsed = text
    return library


def save_library(library: CslLibrary, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_library(library))


def load_library(path, fingerprint: str | None = None) -> CslLibrary:
    """The library of a UTF-8 text file, parsed by `deserialize_library`.

    `fingerprint` is that of the table the library is read for. If the
    SHA-256 of the text is that fingerprint, the text is the canonical
    serialization of the checked library the table was built from, so it is
    read by its header and its R and T lines alone (`_tail_library`), and its
    S lines are parsed, in full, on the first read of `synthons`. This trusts
    the fingerprint: under a forged one, a text with a malformed S line gives
    the layout of its R and T lines, and the first read of its synthons raises
    the full parse's LibraryError. A text whose header or R and T lines do not
    read as canonical is parsed in full, as any other text is.
    """
    with utf8_text(path, LibraryError) as fh:
        text = fh.read()
    if fingerprint is not None and hashlib.sha256(text.encode()).hexdigest() == fingerprint:
        library = _tail_library(text, fingerprint)
        if library is not None:
            return library
    return deserialize_library(text)


def library_fingerprint(library: CslLibrary) -> str:
    """SHA-256 of the canonical serialization; used to pin downstream artifacts."""
    return hashlib.sha256(serialize_library(library).encode()).hexdigest()


def fingerprint_matches(library: CslLibrary, fingerprint: str) -> bool:
    """library_fingerprint(library) == fingerprint; True at once if the library was parsed from
    the fingerprinted text, which is the serialization of a library that parses back to it."""
    return fingerprint == library.text_sha256 or fingerprint == library.fingerprint
