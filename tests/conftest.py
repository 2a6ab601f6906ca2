import numpy as np
import pytest
from hypothesis import strategies as st

from apexcsl import csl, props


@pytest.fixture(scope="session")
def small_library():
    # 2 reactions (2- and 3-component), 150 products
    return csl.generate_synthetic(
        csl.SyntheticConfig(n_reactions=2, components=(2, 3), synthons_per_rgroup=5), seed=11
    )


@pytest.fixture(scope="session")
def medium_library():
    # mixed 2-/3-component, ~20k products
    return csl.generate_synthetic(
        csl.SyntheticConfig(n_reactions=4, components=(2, 3), synthons_per_rgroup=12), seed=7
    )


@pytest.fixture(scope="session")
def small_oracle(small_library):
    return props.make_default_oracle(small_library, seed=3)


def f32_round_latents(oracle):
    """Make oracle latents exactly float32-representable so a perfect
    contribution table reproduces oracle sums bit-for-bit."""
    for task in oracle.tasks:
        task.latent = task.latent.astype(np.float32).astype(np.float64)
    return oracle


def pair_count(library):
    """Number of (R-group, synthon) pair rows of the library."""
    return sum(len(rg.synthon_ids) for rg in library.iter_rgroups())


def table_from_values(library, task_names, values, biases):
    """Contribution table over the library's pair rows (R-groups in
    declaration order) with the given (tasks, pair rows) values and biases."""
    from apexcsl import engine

    member_ids, rg_offsets, rg_ids = [], [0], []
    for rg in library.iter_rgroups():
        rg_ids.append(rg.rgroup_id)
        member_ids.extend(rg.synthon_ids)
        rg_offsets.append(len(member_ids))
    return engine.ContributionTable(
        values=np.asarray(values, dtype=np.float32),
        biases=np.asarray(biases, dtype=np.float64),
        task_names=list(task_names),
        member_ids=np.asarray(member_ids),
        rg_offsets=np.asarray(rg_offsets),
        rg_ids=np.asarray(rg_ids),
        fingerprint=csl.library_fingerprint(library),
    )


def random_table(library, task_names, rng):
    """Standard-normal float32 values and float64 biases, drawn in that order."""
    values = rng.standard_normal((len(task_names), pair_count(library))).astype(np.float32)
    return table_from_values(library, task_names, values, rng.standard_normal(len(task_names)))


def perfect_additive_table(oracle, library, task_names):
    """Contribution table whose rows are the oracle's per-synthon latents;
    exact for additive tasks (latents must be f32-representable)."""
    member_ids = np.asarray([s for rg in library.iter_rgroups() for s in rg.synthon_ids])
    values = np.stack([oracle.task(t).latent[member_ids] for t in task_names])
    return table_from_values(library, task_names, values, np.zeros(len(task_names)))


@st.composite
def mixed_libraries(draw):
    """Small 2- and 3-component libraries; short tokens over a 2-3 letter
    alphabet repeat feature vectors, and shared synthons can appear twice in
    one product."""
    return csl.generate_synthetic(
        csl.SyntheticConfig(
            n_reactions=draw(st.integers(1, 4)),
            components=draw(st.sampled_from([(2,), (3,), (2, 3), (3, 2)])),
            synthons_per_rgroup=draw(st.integers(1, 5)),
            alphabet_size=draw(st.integers(2, 3)),
            token_length=draw(st.integers(2, 4)),
            share_rate=draw(st.sampled_from([0.0, 0.3, 0.7])),
        ),
        seed=draw(st.integers(0, 50)),
    )
