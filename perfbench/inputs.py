"""Seeded inputs: libraries, oracle-latent contribution tables and query files."""

from __future__ import annotations

import json

import numpy as np

from apexcsl import csl, engine, props

from checks import LibraryText, TableArrays

DOCK = tuple(props.DOCKING_TASKS)
PROPERTIES = tuple(props.PROPERTY_TASKS)
QUANTILE_SAMPLE = 1 << 15


def mixed_library(parts: list[tuple[int, int, int]], seed: int) -> csl.CslLibrary:
    """Concatenate synthetic sub-libraries, one per (reactions, components, synthons) part.

    Synthon, R-group and reaction ids are renumbered so the result is one
    valid library; each part is drawn by csl.generate_synthetic.
    """
    synthons: list[csl.SynthonRecord] = []
    reactions: list[csl.ReactionSpec] = []
    next_rgroup = 0
    for p, (n_reactions, components, n_synthons) in enumerate(parts):
        part = csl.generate_synthetic(
            csl.SyntheticConfig(n_reactions=n_reactions, components=(components,),
                                synthons_per_rgroup=n_synthons),
            seed=seed * 16 + p,
        )
        base = len(synthons)
        synthons.extend(csl.SynthonRecord(base + s.synthon_id, s.token) for s in part.synthons)
        for rx in part.reactions:
            rgroups = []
            for rg in rx.rgroups:
                rgroups.append(csl.RgroupSpec(next_rgroup, tuple(base + s for s in rg.synthon_ids)))
                next_rgroup += 1
            reactions.append(csl.ReactionSpec(len(reactions), tuple(rgroups)))
    library = csl.CslLibrary(reactions=tuple(reactions), synthons=tuple(synthons))
    csl.check_library(library)
    return library


def write_oracle_table(library: csl.CslLibrary, seed: int, path) -> None:
    """Contribution table whose rows are the default oracle's per-synthon latents.

    This is what a perfectly trained factorizer yields on additive tasks, so
    the rows carry the oracle's correlation structure rather than i.i.d. noise.
    """
    oracle = props.make_default_oracle(library, seed)
    member_ids, rg_offsets, rg_ids = [], [0], []
    for rg in library.iter_rgroups():
        rg_ids.append(rg.rgroup_id)
        member_ids.extend(rg.synthon_ids)
        rg_offsets.append(len(member_ids))
    member_ids = np.asarray(member_ids)
    table = engine.ContributionTable(
        values=np.stack([t.latent[member_ids] for t in oracle.tasks]).astype(np.float32),
        biases=np.zeros(len(oracle.tasks)),
        task_names=oracle.task_names,
        member_ids=member_ids,
        rg_offsets=np.asarray(rg_offsets),
        rg_ids=np.asarray(rg_ids),
        fingerprint=csl.library_fingerprint(library),
    )
    engine.save_table(table, path)


def sampled_predictions(lib: LibraryText, table: TableArrays, tasks, rng) -> dict[str, np.ndarray]:
    """Table-predicted values of a uniform product sample, summed in R-group order."""
    g = np.sort(rng.integers(0, lib.n_products, size=QUANTILE_SAMPLE))
    t_of = np.searchsorted(lib.offsets, g, side="right") - 1
    out = {task: np.empty(len(g)) for task in tasks}
    for t, rgs in enumerate(lib.reactions):
        sel = t_of == t
        local = g[sel] - lib.offsets[t]
        rows = []
        for r in reversed(rgs):
            local, d = np.divmod(local, len(lib.rgroups[r]))
            rows.append(table.rows[r][0] + d)
        rows.reverse()
        for task in tasks:
            v = table.values[table.task_names.index(task)]
            acc = v[rows[0]].astype(np.float64)
            for r in rows[1:]:
                acc = acc + v[r]
            out[task][sel] = acc + float(table.biases[table.task_names.index(task)])
    return out


def bound(values: np.ndarray, side: str, cut: float) -> dict:
    """An explicit one-sided bound that excludes about `cut` of `values`."""
    if side == "lower":
        return {"lower": float(np.quantile(values, cut))}
    return {"upper": float(np.quantile(values, 1.0 - cut))}


def query_doc(objective: str, direction: str, constraints: list[dict], k: int) -> dict:
    return {"objective": {"task": objective, "direction": direction}, "constraints": constraints, "k": k}


def write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
