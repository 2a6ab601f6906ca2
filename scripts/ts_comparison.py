#!/usr/bin/env python3
"""Compare precomputed-table retrieval against the Thompson sampling baseline
on an additive synthetic benchmark, matched on total oracle evaluations."""

import argparse
import sys

import numpy as np

from apexcsl import csl, engine, evalkit, factorizer as fz, props, surrogate as sg


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--reactions", type=int, default=6)
    ap.add_argument("--synthons", type=int, default=10)
    ap.add_argument("--budgets", default="100,1000")
    ap.add_argument("--n-seeds", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    library = csl.generate_synthetic(
        csl.SyntheticConfig(n_reactions=args.reactions, components=(2, 3),
                            synthons_per_rgroup=args.synthons),
        seed=args.seed,
    )
    fc = props.FeatureConfig(q=0)
    oracle = props.make_additive_oracle(library, seed=args.seed + 1, task_names=["obj"])
    dataset = props.label_library(
        oracle, library, ["obj"], props.SampleSpec(size=2500, seed=args.seed + 2)
    )
    model = sg.train_surrogate(
        dataset, sg.build_examples(dataset, library, fc),
        sg.TrainConfig(epochs=80, batch_size=256, lr=3e-2, seed=args.seed, encoder="linear",
                       embedding_dim=16, sigma=0.0),
    )
    trained = fz.train_factorizer(
        library, model,
        fz.FactorizerTrainConfig(steps=4000, batch_size=256, lr=1e-2, lr_decay=1e-3,
                                 seed=args.seed, mode="linear",
                                 dims=fz.FactorizerDims(d_s=32, d_r=16, d_t=16, d_u=32, d=16)),
    )
    table = engine.precompute_contributions(fz.encode_hierarchy(trained, library), model)

    budgets = tuple(int(b) for b in args.budgets.split(","))
    rows = evalkit.compare_apex_vs_ts(
        library, oracle, table, "obj", "maximize",
        budgets=budgets, seeds=tuple(range(args.n_seeds)),
    )
    print("reaction\titers\tevals\tj\tapex_recall\tts_median\tts_iqr")
    for row in rows:
        lo, hi = np.percentile(row["ts_recalls"], [25, 75])
        print(f"{row['reaction_id']}\t{row['iterations']}\t{row['total_evals']}\t{row['j']}\t"
              f"{row['apex_recall']:.3f}\t{row['ts_recall_median']:.3f}\t[{lo:.3f},{hi:.3f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
