import dataclasses
import hashlib
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

from apexcsl import cli, csl, engine, presets
from conftest import random_table


def run(*argv):
    return cli.main(list(argv))


def run_process(*argv, python_flags=()):
    """The finished process of one command in a new interpreter, with the package's source on its path."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    return subprocess.run([sys.executable, *python_flags, "-m", "apexcsl.cli", *argv],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)


def run_on_blob(pipeline, blob, tag, meta, arrays, command="search"):
    """Write a changed copy of one pipeline blob and run the command that reads it:
    `command` (search or evaluate) for the table, precompute for the surrogate and the factorizer."""
    from apexcsl import blobio

    p = {k: str(v) for k, v in pipeline.items()}
    p[blob] = p["dir"] + f"/bad_{blob}_{tag}.blob"
    blobio.save_blob(p[blob], meta, arrays)
    out = p["dir"] + "/bad_blob_out"
    if blob == "table":
        oracle = ["--oracle", p["oracle"]] if command == "evaluate" else []
        return run(command, "--library", p["library"], "--table", p["table"], *oracle, "--query", p["query"],
                   "--out", out)
    return run("precompute", "--library", p["library"], "--surrogate", p["surrogate"],
               "--factorizer", p["factorizer"], "--out", out)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the whole pipeline once with fast settings and hand back the paths."""
    d = tmp_path_factory.mktemp("pipeline")
    paths = {
        "library": d / "library.csl",
        "labels": d / "labels.tsv",
        "oracle": d / "oracle.json",
        "surrogate": d / "surrogate.blob",
        "factorizer": d / "factorizer.blob",
        "table": d / "table.blob",
        "query": d / "query.json",
        "hits": d / "hits.tsv",
        "dir": d,
    }
    assert run(
        "generate", "--out", str(paths["library"]),
        "--reactions", "2", "--components", "2,3", "--synthons", "4", "--seed", "5",
    ) == 0
    assert run(
        "label", "--library", str(paths["library"]), "--out", str(paths["labels"]),
        "--oracle-out", str(paths["oracle"]), "--seed", "5",
    ) == 0
    assert run(
        "train-surrogate", "--library", str(paths["library"]), "--labels", str(paths["labels"]),
        "--out", str(paths["surrogate"]), "--epochs", "2", "--embedding-dim", "16",
    ) == 0
    assert run(
        "train-factorizer", "--library", str(paths["library"]),
        "--surrogate", str(paths["surrogate"]), "--out", str(paths["factorizer"]),
        "--steps", "5", "--gap-sample", "32",
    ) == 0
    assert run(
        "precompute", "--library", str(paths["library"]), "--surrogate", str(paths["surrogate"]),
        "--factorizer", str(paths["factorizer"]), "--out", str(paths["table"]),
    ) == 0
    paths["query"].write_text(json.dumps({
        "objective": {"task": "dock_a", "direction": "maximize"},
        "constraints": [{"task": "mw", "upper": 5.0}],
        "k": 8,
    }))
    assert run(
        "search", "--library", str(paths["library"]), "--table", str(paths["table"]),
        "--query", str(paths["query"]), "--out", str(paths["hits"]),
    ) == 0
    return paths


class TestPipeline:
    def test_artifacts_exist(self, pipeline):
        for key in ("library", "labels", "oracle", "surrogate", "factorizer", "table", "hits"):
            assert pipeline[key].exists() and pipeline[key].stat().st_size > 0

    def test_search_prints_summary(self, pipeline, capsys):
        out = pipeline["dir"] / "hits2.tsv"
        run(
            "search", "--library", str(pipeline["library"]), "--table", str(pipeline["table"]),
            "--query", str(pipeline["query"]), "--out", str(out),
        )
        captured = capsys.readouterr().out
        assert "k=8" in captured and "scanned=80" in captured and "scored=" in captured

    def test_rerun_is_byte_identical(self, pipeline):
        d = pipeline["dir"]
        lib2 = d / "library2.csl"
        run("generate", "--out", str(lib2), "--reactions", "2", "--components", "2,3",
            "--synthons", "4", "--seed", "5")
        assert lib2.read_bytes() == pipeline["library"].read_bytes()

        table2 = d / "table2.blob"
        run("precompute", "--library", str(pipeline["library"]),
            "--surrogate", str(pipeline["surrogate"]),
            "--factorizer", str(pipeline["factorizer"]), "--out", str(table2))
        assert table2.read_bytes() == pipeline["table"].read_bytes()

        hits2 = d / "hits_rerun.tsv"
        run("search", "--library", str(pipeline["library"]), "--table", str(pipeline["table"]),
            "--query", str(pipeline["query"]), "--out", str(hits2))
        assert hits2.read_bytes() == pipeline["hits"].read_bytes()

    def test_stream_and_batched_agree(self, pipeline):
        d = pipeline["dir"]
        a = d / "hits_stream.tsv"
        b = d / "hits_batched.tsv"
        run("search", "--library", str(pipeline["library"]), "--table", str(pipeline["table"]),
            "--query", str(pipeline["query"]), "--out", str(a), "--variant", "stream")
        run("search", "--library", str(pipeline["library"]), "--table", str(pipeline["table"]),
            "--query", str(pipeline["query"]), "--out", str(b), "--variant", "batched")
        assert a.read_bytes() == b.read_bytes()

    def test_assemble_adds_column(self, pipeline):
        out = pipeline["dir"] / "hits_assembled.tsv"
        run("search", "--library", str(pipeline["library"]), "--table", str(pipeline["table"]),
            "--query", str(pipeline["query"]), "--out", str(out), "--assemble")
        header = out.read_text().splitlines()[0]
        assert "assembled" in header
        assert "assembled" not in pipeline["hits"].read_text().splitlines()[0]

    def test_evaluate_writes_report(self, pipeline):
        out = pipeline["dir"] / "eval.tsv"
        assert run(
            "evaluate", "--library", str(pipeline["library"]), "--table", str(pipeline["table"]),
            "--oracle", str(pipeline["oracle"]), "--query", str(pipeline["query"]),
            "--out", str(out), "--j", "5,10",
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("j\trecall")
        assert len(lines) == 3

    def test_evaluate_matches_separate_oracle_runs(self, pipeline):
        from apexcsl import csl, engine, evalkit, props

        out = pipeline["dir"] / "eval_prefix.tsv"
        assert run(
            "evaluate", "--library", str(pipeline["library"]), "--table", str(pipeline["table"]),
            "--oracle", str(pipeline["oracle"]), "--query", str(pipeline["query"]),
            "--out", str(out), "--j", "100,10",
        ) == 0
        library = csl.load_library(pipeline["library"])
        table = engine.load_table(pipeline["table"], library)
        oracle = props.load_oracle(pipeline["oracle"])
        query = cli.parse_query_file(pipeline["query"], table)
        retrieved = engine.search_topk_stream(library, table, query)
        lines = ["j\trecall\tsatisfaction_rate\tbase_rate"]
        for j in (100, 10):
            recall = evalkit.recall_j_at_k(evalkit.oracle_topk(library, oracle, query, j), retrieved)
            sat = evalkit.satisfaction_rate(retrieved, oracle, library, query.constraints)
            lines.append(f"{j}\t{recall:.6f}\t{sat['rate']:.6f}\t{sat['base_rate']:.6f}")
        assert out.read_text() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("j", ["0,10", "ten"])
    def test_evaluate_rejects_bad_j(self, pipeline, capsys, j):
        assert run(
            "evaluate", "--library", str(pipeline["library"]), "--table", str(pipeline["table"]),
            "--oracle", str(pipeline["oracle"]), "--query", str(pipeline["query"]),
            "--out", str(pipeline["dir"] / "eval_bad.tsv"), "--j", j,
        ) == 1
        assert capsys.readouterr().err.startswith("error: --j")

    def test_compare_ts(self, pipeline):
        out = pipeline["dir"] / "ts.tsv"
        assert run(
            "compare-ts", "--library", str(pipeline["library"]), "--table", str(pipeline["table"]),
            "--oracle", str(pipeline["oracle"]), "--objective", "dock_a",
            "--budgets", "5", "--n-seeds", "2", "--out", str(out),
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("reaction_id")
        assert len(lines) > 1

    def test_cost_prints_json(self, pipeline, capsys):
        assert run("cost", "--library", str(pipeline["library"]), "--d", "8", "--k", "3") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["k"] == 3
        assert doc["synthon_encoder_evals"] == 20
        assert doc["cache_bytes_no_sharing"] == 20 * 8 * 4


def test_dispatch_reads_command_at_call_time(pipeline, monkeypatch):
    # the parser is built once per process; a cmd_* rebound after that is still the one run
    argv = ["search", "--library", str(pipeline["library"]), "--table", str(pipeline["table"]),
            "--query", str(pipeline["query"]), "--out", str(pipeline["dir"] / "hits_dispatch.tsv")]
    assert run(*argv) == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_search", lambda args: calls.append(args.command) or 7)
    assert run(*argv) == 7
    assert calls == ["search"]


def test_train_surrogate_builds_features_once(pipeline, monkeypatch, capsys):
    # training and the R2 line read one product feature matrix; the checkpoint
    # and the line are those of a run that builds it for each
    from apexcsl import props, surrogate

    p = {k: str(v) for k, v in pipeline.items()}
    out = p["dir"] + "/surrogate_once.blob"
    calls, build = [], surrogate.product_feature_matrix
    monkeypatch.setattr(surrogate, "product_feature_matrix", lambda *a: calls.append(1) or build(*a))
    assert run("train-surrogate", "--library", p["library"], "--labels", p["labels"], "--out", out,
               "--epochs", "2", "--embedding-dim", "16") == 0
    assert len(calls) == 1
    assert pathlib.Path(out).read_bytes() == pipeline["surrogate"].read_bytes()
    library = csl.load_library(p["library"])
    model, labels = surrogate.load_surrogate(out), props.load_labels(p["labels"], library)
    r2 = surrogate.evaluate_r2(model, labels, surrogate.build_examples(labels, library, model.feature_config))
    assert len(calls) == 2
    summary = ", ".join(f"{k}={v:.4f}" if v is not None else f"{k}=NA" for k, v in r2.items())
    assert capsys.readouterr().out == f"wrote {out}; train R2: {summary}\n"


def test_hit_file_does_not_depend_on_the_locale(tmp_path):
    # under an ASCII locale, a non-ASCII token ended search --assemble in a
    # UnicodeEncodeError traceback and left a partial hit file
    library = csl.generate_synthetic(csl.SyntheticConfig(n_reactions=2, synthons_per_rgroup=3), seed=4)
    library = dataclasses.replace(library, synthons=(csl.SynthonRecord(0, "ab*c\u00e9\u65e5"),) + library.synthons[1:])
    csl.save_library(library, tmp_path / "lib.csl")
    engine.save_table(random_table(library, ["a"], np.random.default_rng(1)), tmp_path / "table.blob")
    (tmp_path / "query.json").write_text(json.dumps({"objective": {"task": "a"}, "k": csl.product_count(library)}))
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    hits = {}
    for name, env in (("utf8", {"PYTHONUTF8": "1"}),
                      ("ascii", {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"})):
        out = tmp_path / f"hits_{name}.tsv"
        proc = subprocess.run(
            [sys.executable, "-m", "apexcsl.cli", "search", "--library", str(tmp_path / "lib.csl"),
             "--table", str(tmp_path / "table.blob"), "--query", str(tmp_path / "query.json"), "--out", str(out),
             "--assemble"],
            env={**os.environ, "PYTHONPATH": src, **env}, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        hits[name] = out.read_bytes()
    assert "abc\u00e9\u65e5".encode() in hits["utf8"]
    assert hits["ascii"] == hits["utf8"]


class TestQueries:
    def test_preset_expansion(self, pipeline):
        q = pipeline["dir"] / "query_preset.json"
        q.write_text(json.dumps({
            "objective": {"task": "dock_a"},
            "constraints": [{"preset": "lipinski"}],
            "k": 4,
        }))
        out = pipeline["dir"] / "hits_preset.tsv"
        assert run("search", "--library", str(pipeline["library"]),
                   "--table", str(pipeline["table"]), "--query", str(q),
                   "--out", str(out)) == 0
        header = out.read_text().splitlines()[0]
        for task in ("mw", "logp", "hbd", "hba"):
            assert task in header

    def test_unknown_preset(self, pipeline, capsys):
        q = pipeline["dir"] / "query_bad_preset.json"
        q.write_text(json.dumps({
            "objective": {"task": "dock_a"},
            "constraints": [{"preset": "nope"}],
        }))
        assert run("search", "--library", str(pipeline["library"]),
                   "--table", str(pipeline["table"]), "--query", str(q),
                   "--out", str(pipeline["dir"] / "x.tsv")) == 1
        assert "unknown preset" in capsys.readouterr().err

    def test_unknown_task(self, pipeline, capsys):
        q = pipeline["dir"] / "query_bad_task.json"
        q.write_text(json.dumps({"objective": {"task": "phantom"}}))
        assert run("search", "--library", str(pipeline["library"]),
                   "--table", str(pipeline["table"]), "--query", str(q),
                   "--out", str(pipeline["dir"] / "x.tsv")) == 1
        assert "unknown task" in capsys.readouterr().err

    def test_k_zero_header_only(self, pipeline):
        q = pipeline["dir"] / "query_k0.json"
        q.write_text(json.dumps({"objective": {"task": "dock_a"}, "k": 0}))
        out = pipeline["dir"] / "hits_k0.tsv"
        assert run("search", "--library", str(pipeline["library"]),
                   "--table", str(pipeline["table"]), "--query", str(q),
                   "--out", str(out)) == 0
        assert len(out.read_text().strip().splitlines()) == 1

    @pytest.mark.parametrize("text", [
        "{not json",
        '[{"objective": {"task": "dock_a"}}]',
        '{"objective": "dock_a"}',
        '{"objective": {"task": "dock_a"}, "constraints": [{"upper": 5.0}]}',
        '{"objective": {"task": "dock_a"}, "constraints": ["lipinski"]}',
        '{"objective": {"task": "dock_a"}, "constraints": {"task": "mw"}}',
        '{"objective": {"task": "dock_a"}, "k": "ten"}',
        '{"objective": {"task": "dock_a"}, "k": null}',
        '{"objective": {"task": "dock_a"}, "constraints": [{"task": "mw", "lower": "low"}]}',
        '{"objective": {"task": "dock_a"}, "constraints": [{"task": "mw", "upper": [5]}]}',
        '{"objective": {"task": "dock_a"}, "chunk_size": 4096}',
        '{"objective": {"task": "dock_a"}, "k": 1.7}',
        '{"objective": {"task": "dock_a"}, "k": true}',
        '{"objective": {"task": "dock_a"}, "k": "10"}',
        '{"objective": {"task": "dock_a"}, "constraints": [{"task": "mw", "upper": false}]}',
        '{"objective": {"task": "dock_a"}, "constraints": [{"preset": []}]}',
        '{"objective": {"task": "dock_a"}, "constraints": [{"task": "mw", "max": -5}]}',
        '{"objective": {"task": "dock_a"}, "constraint": [{"task": "mw", "upper": -5}]}',
        '{"objective": {"task": "dock_a"}, "constraints": [{"preset": "lipinski", "upper": -5}]}',
        '{"objective": {"task": "dock_a", "sense": "minimize"}}',
        '{"objective": {"task": "dock_a"}, "variant": "batched"}',
        '{"objective": {"task": "dock_a"}, "constraints": [{"task": "mw", "upper": 1%s}]}' % ("0" * 400),
    ], ids=[
        "not_json", "top_level_list", "objective_not_object", "constraint_without_task",
        "constraint_not_object", "constraints_not_list", "k_not_number", "k_null",
        "lower_not_number", "upper_not_number", "chunk_size_unknown_key",
        "k_fraction", "k_bool", "k_string",
        "upper_bool", "preset_list",
        "constraint_unknown_key", "top_level_unknown_key", "preset_with_bound", "objective_unknown_key",
        "variant_unknown_key", "upper_past_float_range",
    ])
    def test_malformed_json(self, pipeline, capsys, text):
        q = pipeline["dir"] / "query_broken.json"
        q.write_text(text)
        assert run("search", "--library", str(pipeline["library"]),
                   "--table", str(pipeline["table"]), "--query", str(q),
                   "--out", str(pipeline["dir"] / "x.tsv")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert '"chunk_size"' not in text or "unknown keys ['chunk_size']" in err
        assert '"variant"' not in text or "unknown keys ['variant']" in err


class TestErrors:
    @pytest.mark.parametrize("damage", [
        "cut_in_header", "cut_after_header", "cut_mid_payload", "cut_last_byte", "junk_appended",
    ])
    def test_damaged_table(self, pipeline, capsys, damage):
        data = pipeline["table"].read_bytes()
        header_end = data.index(b"\n") + 1
        damaged = {
            "cut_in_header": data[: header_end // 2],
            "cut_after_header": data[:header_end],
            "cut_mid_payload": data[: (header_end + len(data)) // 2],
            "cut_last_byte": data[:-1],
            "junk_appended": data + b"junk",
        }[damage]
        bad = pipeline["dir"] / f"table_{damage}.blob"
        bad.write_bytes(damaged)
        assert run("search", "--library", str(pipeline["library"]), "--table", str(bad),
                   "--query", str(pipeline["query"]), "--out", str(pipeline["dir"] / "x.tsv")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_table_short_of_pair_rows(self, pipeline, capsys):
        from apexcsl import blobio

        meta, arrays = blobio.load_blob(pipeline["table"])
        arrays["values"] = arrays["values"][:, :-3]
        bad = pipeline["dir"] / "table_short.blob"
        blobio.save_blob(bad, meta, arrays)
        assert run("search", "--library", str(pipeline["library"]), "--table", str(bad),
                   "--query", str(pipeline["query"]), "--out", str(pipeline["dir"] / "x.tsv")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "shapes" in err

    @pytest.mark.parametrize("change", ["member_ids_permuted", "rg_ids_reversed", "rg_offsets_moved"])
    def test_table_with_another_pair_layout(self, pipeline, capsys, change):
        # the fingerprint and every shape still match: only the pair-row layout differs
        from apexcsl import blobio

        meta, arrays = blobio.load_blob(pipeline["table"])
        if change == "member_ids_permuted":
            arrays["member_ids"] = arrays["member_ids"][::-1].copy()
        elif change == "rg_ids_reversed":
            arrays["rg_ids"] = arrays["rg_ids"][::-1].copy()
        else:
            arrays["rg_offsets"] = arrays["rg_offsets"].copy()
            arrays["rg_offsets"][1] += 1
        bad = pipeline["dir"] / f"table_{change}.blob"
        blobio.save_blob(bad, meta, arrays)
        assert run("search", "--library", str(pipeline["library"]), "--table", str(bad),
                   "--query", str(pipeline["query"]), "--out", str(pipeline["dir"] / "x.tsv")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "laid out" in err

    @pytest.mark.parametrize("flag", ["components", "budgets"])
    def test_bad_flag_value(self, pipeline, capsys, flag):
        p = {k: str(v) for k, v in pipeline.items()}
        argv = {
            "components": ["generate", "--out", p["dir"] + "/x.csl", "--components", "2,x"],
            "budgets": ["compare-ts", "--library", p["library"], "--table", p["table"],
                        "--oracle", p["oracle"], "--objective", "dock_a", "--budgets", "1,x",
                        "--out", p["dir"] + "/x.tsv"],
        }[flag]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --{flag.replace('_', '-')} ") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("case", [
        "epochs_0", "batch_size_0", "steps_0", "gap_sample_0", "budgets_0", "n_seeds_0",
        "sample_size_negative", "feature_p_0", "tasks_repeated", "cost_negative", "labels_reaction_negative",
        "embedding_dim_0", "d_u_0", "hardness_nan", "labels_inf", "sigma_nan", "sigma_negative",
        "share_rate_nan", "share_rate_above_1", "lr_negative", "lr_zero", "lr_nan",
        "factorizer_lr_negative", "factorizer_lr_zero", "factorizer_lr_nan", "labels_synthon_ineligible",
        "tasks_unknown", "feature_config_mismatch", "embedding_width_mismatch", "j_0",
    ])
    def test_bad_training_or_sampling_input(self, pipeline, capsys, monkeypatch, case):
        # each once ended in a traceback, was accepted silently, or wrote an
        # output (--out, --oracle-out or --cache-out) before it was refused;
        # a bad flag is refused before the command's first expensive call
        from apexcsl import evalkit, factorizer as fz

        p = {k: str(v) for k, v in pipeline.items()}
        out = p["dir"] + "/bad_" + case
        labels = pipeline["dir"] / "labels_negative.tsv"  # reaction 1's labels say reaction -1
        if case == "labels_reaction_negative":
            labels.write_text("".join("-" + ln if ln.startswith("1\t") else ln
                                      for ln in pipeline["labels"].read_text().splitlines(keepends=True)))
        if case == "labels_inf":  # the last label's value is inf
            labels = pipeline["dir"] / "labels_inf.tsv"
            labels.write_text(pipeline["labels"].read_text().rstrip("\n").rsplit("\t", 1)[0] + "\tinf\n")
        if case == "labels_synthon_ineligible":  # the last label's first synthon is in no R-group
            labels = pipeline["dir"] / "labels_ineligible.tsv"
            lines = pipeline["labels"].read_text().splitlines()
            reaction_id, sids, rest = lines[-1].split("\t", 2)
            lines[-1] = "\t".join([reaction_id, ",".join(["999999"] + sids.split(",")[1:]), rest])
            labels.write_text("\n".join(lines) + "\n")
        surrogate = ["train-surrogate", "--library", p["library"], "--labels", p["labels"], "--out", out]
        factorizer = ["train-factorizer", "--library", p["library"], "--surrogate", p["surrogate"],
                      "--out", out, "--steps", "1"]
        compare = ["compare-ts", "--library", p["library"], "--table", p["table"], "--oracle", p["oracle"],
                   "--objective", "dock_a", "--budgets", "5", "--n-seeds", "1", "--out", out]
        label = ["label", "--library", p["library"], "--out", out, "--oracle-out", out + ".oracle"]
        if case.endswith("_mismatch"):  # a surrogate unlike the one the factorizer was trained from
            other = ["--feature-p", "8", "--embedding-dim", "16"] if case == "feature_config_mismatch" \
                else ["--embedding-dim", "8"]
            assert run("train-surrogate", "--library", p["library"], "--labels", p["labels"],
                       "--out", out + ".surrogate", "--epochs", "1", *other) == 0
        precompute = ["precompute", "--library", p["library"], "--surrogate", out + ".surrogate",
                      "--factorizer", p["factorizer"], "--out", out, "--cache-out", out + ".cache"]
        argv = {
            "epochs_0": surrogate + ["--epochs", "0"],
            "batch_size_0": surrogate + ["--batch-size", "0"],
            "steps_0": factorizer + ["--steps", "0"],
            "gap_sample_0": factorizer + ["--gap-sample", "0"],
            "budgets_0": compare + ["--budgets", "0"],
            "n_seeds_0": compare + ["--n-seeds", "0"],
            "sample_size_negative": label + ["--sample-size", "-1"],
            "feature_p_0": label + ["--feature-p", "0"],
            "tasks_repeated": label + ["--tasks", "mw,mw"],
            "tasks_unknown": label + ["--tasks", "mw,nope"],
            "feature_config_mismatch": precompute,
            "embedding_width_mismatch": precompute,
            "cost_negative": ["cost", "--library", p["library"], "--d", "-1", "--k", "-5"],
            "labels_reaction_negative": surrogate[:4] + [str(labels)] + surrogate[5:] + ["--epochs", "1"],
            "embedding_dim_0": surrogate + ["--embedding-dim", "0"],
            "d_u_0": factorizer + ["--d-u", "0"],
            "hardness_nan": label + ["--hardness", "nan"],
            "labels_inf": surrogate[:4] + [str(labels)] + surrogate[5:] + ["--epochs", "1"],
            "sigma_nan": surrogate + ["--epochs", "1", "--sigma", "nan"],
            "sigma_negative": surrogate + ["--epochs", "1", "--sigma", "-1"],
            "share_rate_nan": ["generate", "--out", out, "--share-rate", "nan"],
            "share_rate_above_1": ["generate", "--out", out, "--share-rate", "5"],
            "lr_negative": surrogate + ["--epochs", "1", "--lr", "-1"],
            "lr_zero": surrogate + ["--epochs", "1", "--lr", "0"],
            "lr_nan": surrogate + ["--epochs", "1", "--lr", "nan"],
            "factorizer_lr_negative": factorizer + ["--lr", "-1"],
            "factorizer_lr_zero": factorizer + ["--lr", "0"],
            "factorizer_lr_nan": factorizer + ["--lr", "nan"],
            "labels_synthon_ineligible": surrogate[:4] + [str(labels)] + surrogate[5:] + ["--epochs", "1"],
            "j_0": ["evaluate", "--library", p["library"], "--table", p["table"], "--oracle", p["oracle"],
                    "--query", p["query"], "--out", out, "--j", "10,0"],
        }[case]
        expensive = {"gap_sample_0": (fz, "train_factorizer"), "j_0": (engine, "search_topk_stream"),
                     "budgets_0": (evalkit, "oracle_topk")}.get(case)
        if expensive:
            calls = []
            monkeypatch.setattr(*expensive, lambda *a, **kw: calls.append(a))
        capsys.readouterr()
        assert run(*argv) == 1
        assert not expensive or calls == []
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and len(captured.err.strip().splitlines()) == 1
        assert not any(os.path.exists(out + suffix) for suffix in ("", ".oracle", ".cache"))
        assert case != "cost_negative" or not captured.out
        assert case != "labels_inf" or "non-finite value" in captured.err
        assert case != "labels_synthon_ineligible" or re.fullmatch(
            f"error: line {len(lines)}: synthon 999999 is not eligible for R-group [0-9]+\n", captured.err)
        assert "lr_" not in case or "finite and > 0" in captured.err  # refused before training starts
        assert not expensive or captured.err.startswith(f"error: --{case[:-2].replace('_', '-')} ")

    @pytest.mark.parametrize("command", ["search", "label"])
    def test_product_count_past_int64(self, tmp_path, capsys, command):
        # one reaction of 63 R-groups x 2 synthons: 2^63 products, one past the int64 index range;
        # both commands once ended in an OverflowError traceback
        from apexcsl import csl, engine

        synthons = (csl.SynthonRecord(0, "a*"), csl.SynthonRecord(1, "b*"))
        rgroups = tuple(csl.RgroupSpec(i, (0, 1)) for i in range(63))
        library = csl.CslLibrary((csl.ReactionSpec(0, rgroups),), synthons)
        lib = tmp_path / "big.csl"
        csl.save_library(library, lib)
        layout = library.layout
        table = engine.ContributionTable(np.zeros((1, layout.n_pairs), np.float32), np.zeros(1), ["obj"],
                                         layout.member_ids, layout.rg_offsets, layout.rg_ids,
                                         csl.library_fingerprint(library))
        engine.save_table(table, tmp_path / "table.blob")
        (tmp_path / "query.json").write_text(json.dumps({"objective": {"task": "obj"}, "k": 5}))
        argv = {
            "search": ["search", "--library", str(lib), "--table", str(tmp_path / "table.blob"),
                       "--query", str(tmp_path / "query.json"), "--out", str(tmp_path / "hits.tsv")],
            "label": ["label", "--library", str(lib), "--out", str(tmp_path / "labels.tsv"), "--sample-size", "5"],
        }[command]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "signed 64-bit" in err

    @pytest.mark.parametrize("command", ["label", "evaluate", "compare-ts"])
    @pytest.mark.parametrize("case", [
        "no_tasks", "top_level_list", "short_latent", "long_latent", "nan_latent", "string_scale", "huge_int_latent",
        "huge_int_scale",
    ])
    def test_bad_oracle_file(self, pipeline, capsys, case, command):
        # each once ended in a traceback, or was used with exit 0
        p = {k: str(v) for k, v in pipeline.items()}
        doc = json.loads(pipeline["oracle"].read_text())
        tasks = doc["tasks"]
        doc = {
            "no_tasks": {k: v for k, v in doc.items() if k != "tasks"},
            "top_level_list": [doc],
            "short_latent": {**doc, "tasks": [{**t, "latent": t["latent"][:-1]} for t in tasks]},
            "long_latent": {**doc, "tasks": [{**t, "latent": t["latent"] + [0.5]} for t in tasks]},
            "nan_latent": {**doc, "tasks": [{**t, "latent": [float("nan")] + t["latent"][1:]} for t in tasks]},
            "string_scale": {**doc, "tasks": [{**t, "nonlinear_scale": "0.5"} for t in tasks]},
            "huge_int_latent": {**doc, "tasks": [{**t, "latent": [10 ** 400] + t["latent"][1:]} for t in tasks]},
            "huge_int_scale": {**doc, "tasks": [{**t, "pair_scale": 10 ** 400} for t in tasks]},
        }[case]
        oracle = pipeline["dir"] / f"oracle_{case}.json"
        oracle.write_text(json.dumps(doc))
        out = p["dir"] + f"/bad_oracle_{case}_{command}"
        argv = {
            "label": ["label", "--library", p["library"], "--oracle-in", str(oracle), "--out", out],
            "evaluate": ["evaluate", "--library", p["library"], "--table", p["table"], "--oracle", str(oracle),
                         "--query", p["query"], "--out", out],
            "compare-ts": ["compare-ts", "--library", p["library"], "--table", p["table"], "--oracle", str(oracle),
                           "--objective", "dock_a", "--budgets", "5", "--n-seeds", "1", "--out", out],
        }[command]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_oracle_value_that_can_overflow(self, pipeline, tmp_path):
        # latents of 1e308 sum to inf: evaluate printed two RuntimeWarnings and
        # ended in an IndexError traceback; no numpy warning may come first now
        p = {k: str(v) for k, v in pipeline.items()}
        doc = json.loads(pipeline["oracle"].read_text())
        doc["tasks"] = [{**t, "latent": [1e308] * len(t["latent"])} if t["name"] == "mw" else t for t in doc["tasks"]]
        oracle = tmp_path / "oracle_huge.json"
        oracle.write_text(json.dumps(doc))
        proc = run_process("evaluate", "--library", p["library"], "--table", p["table"], "--oracle", str(oracle),
                           "--query", p["query"], "--out", str(tmp_path / "report.tsv"),
                           python_flags=("-W", "error::RuntimeWarning"))
        assert proc.returncode == 1 and len(proc.stderr.strip().splitlines()) == 1
        assert proc.stderr.startswith("error: task 'mw'") and "overflow" in proc.stderr

    @pytest.mark.parametrize("n_bounds", [1, 2])
    def test_query_bounds_that_can_overflow_the_violation(self, pipeline, tmp_path, n_bounds):
        # one lower bound of 1e308 leaves the violation finite; two summed
        # overflow, and once printed a RuntimeWarning and exited 0
        p = {k: str(v) for k, v in pipeline.items()}
        query = tmp_path / f"query_huge_{n_bounds}.json"
        query.write_text(json.dumps({"objective": {"task": "dock_a", "direction": "maximize"},
                                     "constraints": [{"task": "mw", "lower": 1e308}] * n_bounds, "k": 8}))
        proc = run_process("search", "--library", p["library"], "--table", p["table"], "--query", str(query),
                           "--out", str(tmp_path / "hits.tsv"), python_flags=("-W", "error::RuntimeWarning"))
        if n_bounds == 1:
            assert proc.returncode == 0 and proc.stderr == ""
        else:
            assert proc.returncode == 1 and len(proc.stderr.strip().splitlines()) == 1
            assert proc.stderr.startswith(f"error: {query}: ") and "overflow" in proc.stderr

    @pytest.mark.parametrize("blob", ["surrogate", "factorizer", "surrogate_encoder"])
    def test_model_whose_contributions_overflow(self, pipeline, tmp_path, blob):
        # a surrogate head of 1e308, or factorizer weights scaled by 1e300,
        # once printed numpy RuntimeWarnings before precompute's error line,
        # and surrogate encoder weights scaled by 1e300 before train-factorizer's
        from apexcsl import blobio

        meta, arrays = blobio.load_blob(pipeline[blob.split("_")[0]])
        if blob == "surrogate":
            arrays["head_w"] = np.full_like(arrays["head_w"], 1e308)
        else:
            arrays = {name: a * 1e300 if blob == "factorizer" or name.startswith("enc_") else a
                      for name, a in arrays.items()}
        bad = tmp_path / f"{blob}_huge.blob"
        blobio.save_blob(bad, meta, arrays)
        if blob == "surrogate_encoder":
            out = tmp_path / "factorizer.blob"
            proc = run_process("train-factorizer", "--library", str(pipeline["library"]), "--surrogate", str(bad),
                               "--out", str(out), "--steps", "2", "--gap-sample", "8",
                               python_flags=("-W", "error::RuntimeWarning"))
            assert proc.returncode == 1 and len(proc.stderr.strip().splitlines()) == 1
            assert proc.stderr.startswith("error: non-finite reconstruction loss at step 0")
            assert not out.exists()
            return
        models = {"surrogate": str(pipeline["surrogate"]), "factorizer": str(pipeline["factorizer"]), blob: str(bad)}
        out = tmp_path / "table.blob"
        proc = run_process("precompute", "--library", str(pipeline["library"]), "--surrogate", models["surrogate"],
                           "--factorizer", models["factorizer"], "--out", str(out),
                           python_flags=("-W", "error::RuntimeWarning"))
        assert proc.returncode == 1 and len(proc.stderr.strip().splitlines()) == 1
        assert proc.stderr.startswith("error: contribution table has a non-finite value or bias")
        assert not out.exists()

    def test_labels_too_large_to_standardize(self, pipeline, tmp_path):
        # labels of +-1e308 once trained with exit 0, NaN R2 and RuntimeWarnings
        p = {k: str(v) for k, v in pipeline.items()}
        lines = pipeline["labels"].read_text().splitlines()
        for i, value in ((-2, "1e+308"), (-1, "-1e+308")):
            lines[i] = lines[i].rsplit("\t", 1)[0] + "\t" + value
        labels = tmp_path / "labels_huge.tsv"
        labels.write_text("\n".join(lines) + "\n")
        proc = run_process("train-surrogate", "--library", p["library"], "--labels", str(labels),
                           "--out", str(tmp_path / "surrogate.blob"), "--epochs", "1")
        assert proc.returncode == 1 and len(proc.stderr.strip().splitlines()) == 1
        assert proc.stderr.startswith("error: labels of task") and "non-finite mean" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr and not (tmp_path / "surrogate.blob").exists()

    @pytest.mark.parametrize("blob,field", [
        ("surrogate", "dims"), ("surrogate", "bias"), ("surrogate", "task_names"), ("surrogate", "feature_config"),
        ("factorizer", "mode"), ("factorizer", "dims"), ("factorizer", "feature_dim"),
        ("factorizer", "feature_config"), ("table", "task_names"), ("table", "fingerprint"),
    ])
    @pytest.mark.parametrize("change", ["missing", "wrong_type"])
    def test_blob_meta_field(self, pipeline, capsys, blob, field, change):
        # the kind and version are right, one meta field is not
        from apexcsl import blobio

        meta, arrays = blobio.load_blob(pipeline[blob])
        if change == "missing":
            del meta[field]
        else:
            meta[field] = [None]
        assert run_on_blob(pipeline, blob, f"{field}_{change}", meta, arrays) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert f"meta field {field!r}" in err

    @pytest.mark.parametrize("command", ["search", "evaluate"])
    def test_table_layout_damaged(self, pipeline, capsys, command):
        # an R-group offset past the table's values once ended in an IndexError
        # from the query check's reduceat, before the table's layout was
        # compared with the library's
        from apexcsl import blobio

        meta, arrays = blobio.load_blob(pipeline["table"])
        arrays["rg_offsets"] = arrays["rg_offsets"].copy()
        arrays["rg_offsets"][3] += 2 ** 20
        assert run_on_blob(pipeline, "table", f"rg_offsets_{command}", meta, arrays, command) == 1
        path = f"{pipeline['dir']}/bad_table_rg_offsets_{command}.blob"
        assert capsys.readouterr().err == \
            f"error: {path}: contribution table's pair rows are not laid out as the library's\n"

    @pytest.mark.parametrize("blob", ["surrogate", "table"])
    def test_repeated_task_name(self, pipeline, capsys, blob):
        # a second dock_b once passed precompute (which reads the surrogate)
        # and search (the table) with exit 0, and search answered dock_b from
        # the first column
        from apexcsl import blobio

        meta, arrays = blobio.load_blob(pipeline[blob])
        names = list(meta["task_names"])
        names[names.index("mw")] = "dock_b"
        assert run_on_blob(pipeline, blob, "repeated_task", {**meta, "task_names": names}, arrays) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "task 'dock_b' more than once" in err

    @pytest.mark.parametrize("kind,change,message", [
        ("table", "repeated_task", "contribution table lists task 'dock_a' more than once"),
        ("table", "nan_value", "contribution table has a non-finite value or bias"),
        ("oracle", "repeated_task", "oracle lists task 'dock_a' more than once"),
        ("oracle", "bad_mode", "bad task mode 'additive+bogus'"),
        ("oracle", "nan_latent", "task 'dock_a' has a non-finite latent or scale"),
    ], ids=["table_repeated_task", "table_nan_value", "oracle_repeated_task", "oracle_bad_mode", "oracle_nan_latent"])
    def test_refusal_names_the_file(self, pipeline, capsys, tmp_path, kind, change, message):
        # these refusals once printed an error: line that did not say which file they refused
        from apexcsl import blobio

        p = {k: str(v) for k, v in pipeline.items()}
        out = str(tmp_path / "out")
        if kind == "table":
            meta, arrays = blobio.load_blob(pipeline["table"])
            if change == "repeated_task":
                names = list(meta["task_names"])
                names[names.index("dock_b")] = "dock_a"
                meta = {**meta, "task_names": names}
            else:
                arrays["values"] = arrays["values"].copy()
                arrays["values"][0, 0] = np.nan
            bad = tmp_path / "table.blob"
            blobio.save_blob(bad, meta, arrays)
            argv = ["search", "--library", p["library"], "--table", str(bad), "--query", p["query"], "--out", out]
        else:
            doc = json.loads(pipeline["oracle"].read_text())
            first, second = doc["tasks"][:2]
            if change == "repeated_task":
                second["name"] = first["name"]
            elif change == "bad_mode":
                first["mode"] = "additive+bogus"
            else:
                first["latent"][0] = float("nan")
            bad = tmp_path / "oracle.json"
            bad.write_text(json.dumps(doc))
            argv = ["evaluate", "--library", p["library"], "--table", p["table"], "--oracle", str(bad),
                    "--query", p["query"], "--out", out]
        assert run(*argv) == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    def test_unknown_factorizer_mode(self, pipeline, capsys):
        from apexcsl import blobio

        meta, arrays = blobio.load_blob(pipeline["factorizer"])
        assert run_on_blob(pipeline, "factorizer", "mode_xyz", {**meta, "mode": "xyz"}, arrays) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "meta field 'mode'" in err

    @pytest.mark.parametrize("blob,name,change", [
        ("surrogate", "head_w", "missing"), ("surrogate", "extra", "added"), ("surrogate", "head_b", "float32"),
        ("surrogate", "enc_0", "3_columns"), ("surrogate", "head_w", "transposed"),
        ("factorizer", "p_3", "missing"), ("factorizer", "extra", "added"), ("factorizer", "p_0", "float32"),
        ("factorizer", "p_0", "one_row"),
        ("table", "biases", "missing"), ("table", "extra", "added"), ("table", "values", "int64"),
        ("table", "values", "float64"), ("table", "rg_ids", "int32"), ("table", "member_ids", "column"),
    ])
    def test_blob_array(self, pipeline, capsys, blob, name, change):
        # the meta is right, one array is missing, added, or of another dtype or shape
        from apexcsl import blobio

        meta, arrays = blobio.load_blob(pipeline[blob])
        if change == "missing":
            del arrays[name]
        elif change == "added":
            arrays[name] = np.zeros(3)
        elif change in ("float32", "float64", "int32", "int64"):
            arrays[name] = arrays[name].astype(change)
        else:
            arrays[name] = {"3_columns": lambda a: a[:, :3], "one_row": lambda a: a[:1],
                            "transposed": lambda a: a.T, "column": lambda a: a[:, None]}[change](arrays[name])
        assert run_on_blob(pipeline, blob, f"{name}_{change}", meta, arrays) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert repr(name) in err

    @pytest.mark.parametrize("records", [
        "S 10 ab*\nS 11 cd*\nS 12 ef*\nS 13 gh*\nR 0 10 11\nR 1 12 13\nT 0 0 1",
        "S 0 ab*\nS 1 cd*\nS 2 ef*\nS 3 gh*\nR 0 0 1\nR 1 2 3\nT 7 0 1",
    ], ids=["synthon_ids_from_10", "reaction_id_7"])
    def test_library_ids_not_positional(self, pipeline, capsys, records):
        library = pipeline["dir"] / "ids.csl"
        library.write_text("cslv1 4 2 1\n" + records + "\n")
        assert run("label", "--library", str(library), "--out", str(pipeline["dir"] / "ids.tsv")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["search", "label"])
    @pytest.mark.parametrize("record", ["synthon_extra_field", "rgroup_repeated", "rgroup_unused"])
    def test_library_record_dropped_silently(self, pipeline, capsys, command, record):
        # each was accepted with exit 0, and the record was lost from the library
        lines = pipeline["library"].read_text().splitlines()
        first_r = next(i for i, ln in enumerate(lines) if ln.startswith("R "))
        if record == "synthon_extra_field":
            lines[2] += " junk"
        elif record == "rgroup_repeated":
            lines.insert(first_r, lines[first_r])
        else:
            version, n_s, n_r, n_t = lines[0].split()
            lines[0] = f"{version} {n_s} {int(n_r) + 1} {n_t}"
            lines.insert(first_r, "R 99 0 1")
        library = pipeline["dir"] / f"dropped_{record}.csl"
        library.write_text("\n".join(lines) + "\n")
        p = {k: str(v) for k, v in pipeline.items()}
        out = p["dir"] + f"/dropped_{record}_{command}"
        argv = {"search": ["search", "--library", str(library), "--table", p["table"], "--query", p["query"],
                           "--out", out],
                "label": ["label", "--library", str(library), "--out", out]}[command]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_search_reads_library_in_any_spacing(self, pipeline, capsys):
        # a tab-separated copy with blank lines is the same library, so the table's
        # fingerprint matches it; another library's does not
        tabbed = pipeline["dir"] / "library_tabbed.csl"
        tabbed.write_text(pipeline["library"].read_text().replace(" ", "\t").replace("\n", "\n\n"))
        out = pipeline["dir"] / "hits_tabbed.tsv"
        assert run("search", "--library", str(tabbed), "--table", str(pipeline["table"]),
                   "--query", str(pipeline["query"]), "--out", str(out)) == 0
        assert out.read_bytes() == pipeline["hits"].read_bytes()
        other = pipeline["dir"] / "library_other.csl"
        assert run("generate", "--out", str(other), "--reactions", "2", "--components", "2,3",
                   "--synthons", "4", "--seed", "6") == 0
        capsys.readouterr()
        assert run("search", "--library", str(other), "--table", str(pipeline["table"]),
                   "--query", str(pipeline["query"]), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "fingerprint" in err

    @pytest.mark.parametrize("assemble", [False, True])
    def test_search_parses_only_a_library_it_cannot_trust(self, pipeline, monkeypatch, assemble):
        # the canonical text and its CRLF copy are read by their R and T lines
        # (the synthons, for --assemble, on first use); a tab-spaced copy is
        # parsed first; each writes the same hits
        p = {k: str(v) for k, v in pipeline.items()}
        text = pipeline["library"].read_text()
        copies = {"canonical": text.encode(), "crlf": text.replace("\n", "\r\n").encode(),
                  "tabbed": text.replace(" ", "\t").encode()}
        flags = ["--assemble"] if assemble else []
        expected = p["dir"] + f"/hits_parsed_{assemble}.tsv"
        assert run("search", "--library", p["library"], "--table", p["table"], "--query", p["query"],
                   "--out", expected, *flags) == 0
        parses, calls = [], []
        for counted, attr in ((parses, "deserialize_library"), (calls, "_synthon_lines")):
            monkeypatch.setattr(csl, attr, lambda text, f=getattr(csl, attr), c=counted: c.append(1) or f(text))
        for name, data in copies.items():
            library = pipeline["dir"] / f"library_{name}.csl"
            library.write_bytes(data)
            out = pipeline["dir"] / f"hits_{name}_{assemble}.tsv"
            parses.clear()
            calls.clear()
            assert run("search", "--library", str(library), "--table", p["table"], "--query", p["query"],
                       "--out", str(out), *flags) == 0
            # the tabbed copy's header is not canonical, so its S lines are parsed a line at a time
            assert parses == ([1] if name == "tabbed" else [])
            assert calls == ([1] if assemble and name != "tabbed" else [])
            assert out.read_bytes() == pathlib.Path(expected).read_bytes()

    @pytest.mark.parametrize("case", ["tables_first", "rgroups_first", "rgroups_swapped", "negative_count",
                                      "huge_count", "not_utf8", "synthon_malformed"])
    def test_forged_fingerprint(self, pipeline, capsys, case):
        # a table whose fingerprint is the SHA-256 of a text that is not a
        # canonical library: the same hits as the library's, or one error line
        from apexcsl import blobio

        p = {k: str(v) for k, v in pipeline.items()}
        lines = pipeline["library"].read_text().splitlines()
        r_lines = [ln for ln in lines if ln.startswith("R ")]
        t_lines = [ln for ln in lines if ln.startswith("T ")]
        s_lines = lines[1: -len(r_lines) - len(t_lines)]
        version, n_s, n_r, n_t = lines[0].split()
        text = {
            "tables_first": [lines[0], *s_lines, *t_lines, *r_lines],
            "rgroups_first": [lines[0], *r_lines, *s_lines, *t_lines],
            "rgroups_swapped": [lines[0], *s_lines, *r_lines[::-1], *t_lines],
            "negative_count": [f"{version} -{n_s} {n_r} {n_t}", *lines[1:]],
            "huge_count": [f"{version} {n_s}{'0' * 30} {n_r} {n_t}", *lines[1:]],
            "not_utf8": lines,
            "synthon_malformed": [lines[0], lines[1] + " junk", *lines[2:]],
        }[case]
        data = ("\n".join(text) + "\n").encode()
        if case == "not_utf8":
            data = data[:20] + b"\xff\xfe" + data[20:]
        library = pipeline["dir"] / f"forged_{case}.csl"
        library.write_bytes(data)
        meta, arrays = blobio.load_blob(pipeline["table"])
        table = pipeline["dir"] / f"forged_{case}.blob"
        blobio.save_blob(table, {**meta, "fingerprint": hashlib.sha256(data).hexdigest()}, arrays)
        for flags in ([], ["--assemble"]):
            expected = p["dir"] + f"/hits_forged_expected{len(flags)}.tsv"
            assert run("search", "--library", p["library"], "--table", p["table"], "--query", p["query"],
                       "--out", expected, *flags) == 0
            out = pipeline["dir"] / f"hits_forged_{case}{len(flags)}.tsv"
            capsys.readouterr()
            code = run("search", "--library", str(library), "--table", str(table), "--query", p["query"],
                       "--out", str(out), *flags)
            err = capsys.readouterr().err
            if code == 0:
                assert out.read_bytes() == pathlib.Path(expected).read_bytes() and err == ""
            else:
                assert code == 1 and err.startswith("error:") and len(err.strip().splitlines()) == 1
            # the layout of a text whose one fault is an S line is trusted, and its synthons are not read
            if case == "synthon_malformed":
                assert code == (1 if flags else 0)
                assert "malformed record" in err or not flags

    @pytest.mark.parametrize("blob,field,value", [
        ("surrogate", "dims", []), ("surrogate", "dims", [-1, 16]), ("factorizer", "feature_dim", -3),
    ])
    def test_blob_meta_width(self, pipeline, capsys, blob, field, value):
        # each ended in a traceback: the model was built from the widths before any check
        from apexcsl import blobio

        meta, arrays = blobio.load_blob(pipeline[blob])
        assert run_on_blob(pipeline, blob, f"{field}_{len(str(value))}", {**meta, field: value}, arrays) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert f"meta field {field!r}" in err

    def test_embedding_widths_differ(self, pipeline, capsys):
        # the pipeline's factorizer was trained on a 16-wide surrogate
        p = {k: str(v) for k, v in pipeline.items()}
        narrow = p["dir"] + "/surrogate_8.blob"
        assert run("train-surrogate", "--library", p["library"], "--labels", p["labels"], "--out", narrow,
                   "--epochs", "1", "--embedding-dim", "8") == 0
        capsys.readouterr()
        assert run("precompute", "--library", p["library"], "--surrogate", narrow, "--factorizer", p["factorizer"],
                   "--out", p["dir"] + "/table_8.blob") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "8 wide" in err and "16" in err

    def test_surrogate_input_width_not_feature_width(self, pipeline, capsys):
        # ended in a matmul traceback: the encoder was built from the meta's dims
        from apexcsl import blobio

        p = {k: str(v) for k, v in pipeline.items()}
        meta, arrays = blobio.load_blob(p["surrogate"])
        fc = meta["feature_config"]
        bad = p["dir"] + "/surrogate_p_wider.blob"
        blobio.save_blob(bad, {**meta, "feature_config": {**fc, "p": fc["p"] + 32}}, arrays)
        assert run("train-factorizer", "--library", p["library"], "--surrogate", bad,
                   "--out", p["dir"] + "/factorizer_p_wider.blob", "--steps", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "meta field 'dims'" in err and "p + q" in err

    def test_factorizer_input_width_not_feature_width(self, pipeline, capsys):
        # ended in a matmul traceback when precompute encoded the hierarchy
        from apexcsl import blobio

        meta, arrays = blobio.load_blob(pipeline["factorizer"])
        fc = meta["feature_config"]
        assert run_on_blob(pipeline, "factorizer", "p_wider", {**meta, "feature_config": {**fc, "p": fc["p"] + 32}},
                           arrays) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "meta field 'feature_dim'" in err

    def test_feature_configs_differ(self, pipeline, capsys):
        # equal embedding widths, so this wrote a table from mismatched features and exited 0
        p = {k: str(v) for k, v in pipeline.items()}
        narrow = p["dir"] + "/surrogate_p32.blob"
        assert run("train-surrogate", "--library", p["library"], "--labels", p["labels"], "--out", narrow,
                   "--epochs", "1", "--embedding-dim", "16", "--feature-p", "32") == 0
        capsys.readouterr()
        assert run("precompute", "--library", p["library"], "--surrogate", narrow, "--factorizer", p["factorizer"],
                   "--out", p["dir"] + "/table_p32.blob") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "different feature configs" in err

    @pytest.mark.parametrize("kind", ["library", "query", "labels", "oracle"])
    def test_file_not_utf8(self, pipeline, capsys, kind):
        # each ended in a UnicodeDecodeError traceback
        p = {k: str(v) for k, v in pipeline.items()}
        bad = pipeline["dir"] / f"not_utf8_{kind}"
        data = pipeline[kind].read_bytes()
        bad.write_bytes(data[:20] + b"\xff\xfe" + data[20:])
        p[kind] = str(bad)
        out = p["dir"] + f"/not_utf8_{kind}_out"
        argv = {
            "library": ["cost", "--library", p["library"]],
            "query": ["search", "--library", p["library"], "--table", p["table"], "--query", p["query"],
                      "--out", out],
            "labels": ["train-surrogate", "--library", p["library"], "--labels", p["labels"], "--out", out,
                       "--epochs", "1"],
            "oracle": ["evaluate", "--library", p["library"], "--table", p["table"], "--oracle", p["oracle"],
                       "--query", p["query"], "--out", out],
        }[kind]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert f"{bad}: not UTF-8 text" in err

    def test_integral_float_k_accepted(self, pipeline):
        q = pipeline["dir"] / "query_k_float.json"
        q.write_text(json.dumps({"objective": {"task": "dock_a"}, "k": 3.0}))
        out = pipeline["dir"] / "hits_k_float.tsv"
        assert run("search", "--library", str(pipeline["library"]),
                   "--table", str(pipeline["table"]), "--query", str(q), "--out", str(out)) == 0
        assert len(out.read_text().strip().splitlines()) == 1 + 3

    def test_missing_library(self, pipeline, capsys):
        assert run("cost", "--library", str(pipeline["dir"] / "absent.csl")) == 1
        assert "error:" in capsys.readouterr().err

    def test_from_library_requires_downsample(self, pipeline, capsys):
        assert run("generate", "--out", str(pipeline["dir"] / "x.csl"),
                   "--from-library", str(pipeline["library"])) == 1
        assert "--downsample" in capsys.readouterr().err

    def test_downsample_from_library(self, pipeline):
        from apexcsl import csl

        out = pipeline["dir"] / "down.csl"
        assert run("generate", "--out", str(out), "--from-library", str(pipeline["library"]),
                   "--downsample", "0.5") == 0
        lib = csl.load_library(out)
        full = csl.load_library(pipeline["library"])
        assert 0 < csl.product_count(lib) < csl.product_count(full)


class TestReadme:
    """The README's CLI section parses as the code reads it, so a renamed or
    removed flag or query key fails here instead of leaving the README stale."""

    README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()

    def block(self, lang):
        """The first ```lang block of the README's CLI section."""
        section = self.README.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]

    def test_commands_parse(self):
        commands = [shlex.split(line) for line in self.block("sh").replace("\\\n", " ").splitlines()
                    if line.startswith("apexcsl ")]
        assert [c[1] for c in commands] == ["generate", "label", "train-surrogate", "train-factorizer",
                                            "precompute", "search", "evaluate", "compare-ts", "cost"]
        for _, *argv in commands:
            args = vars(cli.build_parser().parse_args(argv))
            assert args["command"] == argv[0]
            # each flag by its full name: argparse would also take a prefix of a renamed flag
            for flag in (a for a in argv if a.startswith("--")):
                assert flag[2:].replace("-", "_") in args, (argv[0], flag)

    def test_query_parses(self, small_library, small_oracle, tmp_path):
        path = tmp_path / "query.json"
        path.write_text(self.block("json"))
        table = random_table(small_library, small_oracle.task_names, np.random.default_rng(0))
        query = cli.parse_query_file(path, table)
        assert (query.objective, query.direction, query.k) == ("dock_a", "maximize", 1000)
        assert query.constraints == presets.PRESET_CONSTRAINTS["lipinski"] + (engine.Constraint("tpsa", upper=140.0),)
