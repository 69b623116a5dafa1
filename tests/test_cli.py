import argparse
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from moe_pathfinder import __version__, numerics
from moe_pathfinder.cli import build_parser, load_data, main
from moe_pathfinder.harness import ExperimentConfig, SeedOutcome, run_comparison
from moe_pathfinder.model import MoEConfig, gen_model, load_model, save_model
from moe_pathfinder.numerics import load_tensor, save_tensor
from moe_pathfinder.planner import load_pathset
from moe_pathfinder.pruner import load_mask


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture
def pipeline(tmp_path):
    model = tmp_path / "model"
    data = tmp_path / "data.tnsr"
    assert run_cli(
        "gen-model", "--layers", 3, "--experts", 4, "--dim", 8, "--topk", 2,
        "--seed", 7, "-o", model,
    ) == 0
    assert run_cli(
        "gen-data", "--model", model, "--samples", 10, "--tokens", 5,
        "--seed", 8, "-o", data,
    ) == 0
    return tmp_path, model, data


def test_pipeline_end_to_end(pipeline, capsys):
    tmp, model, data = pipeline
    calib = tmp / "calib.json"
    graphs = tmp / "graphs"
    paths = tmp / "paths"
    pruned = tmp / "pruned"

    assert run_cli("calibrate", "--data", data, "--k", 4, "--seed", 9, "-o", calib) == 0
    obj = json.loads(calib.read_text())
    assert set(obj) == {"K", "seed", "sample_ids", "distortion"}
    assert len(obj["sample_ids"]) == 4

    assert run_cli(
        "score", "--model", model, "--data", data, "--calibration", calib, "-o", graphs
    ) == 0
    index = json.loads((graphs / "graphs.json").read_text())
    assert len(index["samples"]) == 4 and index["scores"] == "scores.tnsr"
    assert sorted(p.name for p in graphs.iterdir()) == ["graphs.json", "scores.tnsr"]
    assert load_tensor(graphs / "scores.tnsr").shape == (4, 3, 4, 4)

    assert run_cli("plan", "--graphs", graphs, "--m", 2, "-o", paths) == 0
    first = json.loads((paths / f"sample{index['samples'][0]['id']:04d}.paths.json").read_text())
    assert first["m"] == 2
    assert all(len(p["experts"]) == 3 for p in first["paths"])

    assert run_cli("prune", "--paths", paths, "--model", model, "-o", pruned) == 0
    mask = load_mask(pruned / "mask.json")
    assert mask.keep.shape == (3, 4)
    report = json.loads((pruned / "report.json").read_text())
    assert report["m_used"] == 2
    assert report["samples_used"] == 4
    remap = json.loads((pruned / "pruned-model" / "remap.json").read_text())
    assert len(remap["kept"]) == 3

    eval_out = tmp / "eval.json"
    assert run_cli(
        "eval", "--model", model, "--mask", pruned / "mask.json", "--data", data,
        "-o", eval_out,
    ) == 0
    result = json.loads(eval_out.read_text())
    assert result["mean_final_error"] >= 0.0
    assert len(result["per_layer_errors"]) == 3

    heatmap = tmp / "heatmap.csv"
    assert run_cli("heatmap", "--paths", paths, "-o", heatmap) == 0
    lines = heatmap.read_text().splitlines()
    assert lines[0] == "layer,expert,count"
    assert len(lines) == 1 + 3 * 4


def test_m1_pipeline_retains_one_expert_per_layer(tmp_path):
    model = tmp_path / "model"
    data = tmp_path / "data.tnsr"
    graphs = tmp_path / "graphs"
    paths = tmp_path / "paths"
    pruned = tmp_path / "pruned"
    assert run_cli(
        "gen-model", "--layers", 6, "--experts", 8, "--dim", 16, "--topk", 2,
        "--seed", 3, "-o", model,
    ) == 0
    assert run_cli(
        "gen-data", "--model", model, "--samples", 1, "--tokens", 4, "--seed", 4, "-o", data
    ) == 0
    assert run_cli("score", "--model", model, "--data", data, "-o", graphs) == 0
    assert run_cli("plan", "--graphs", graphs, "--m", 1, "-o", paths) == 0
    assert run_cli("prune", "--paths", paths, "-o", pruned) == 0
    mask = load_mask(pruned / "mask.json")
    assert mask.retained_total() == 6
    assert np.array_equal(mask.keep.sum(axis=1), np.ones(6))


def test_plan_huge_m_caps_at_path_count(tmp_path):
    model = tmp_path / "model"
    data = tmp_path / "data.tnsr"
    graphs = tmp_path / "graphs"
    paths = tmp_path / "paths"
    run_cli("gen-model", "--layers", 2, "--experts", 2, "--dim", 4, "--topk", 1,
            "--seed", 1, "-o", model)
    run_cli("gen-data", "--model", model, "--samples", 1, "--tokens", 3, "--seed", 2, "-o", data)
    run_cli("score", "--model", model, "--data", data, "-o", graphs)
    assert run_cli("plan", "--graphs", graphs, "--m", 999999, "-o", paths) == 0
    ps = json.loads((paths / "sample0000.paths.json").read_text())
    assert len(ps["paths"]) == 4


def test_prune_flag_conflicts(pipeline):
    tmp, model, data = pipeline
    graphs = tmp / "graphs"
    run_cli("score", "--model", model, "--data", data, "-o", graphs)
    paths = tmp / "paths"
    run_cli("plan", "--graphs", graphs, "--m", 1, "-o", paths)
    out = tmp / "x"
    # prune only unions planned paths or searches a target; `plan` plans
    for argv in [
        ("prune", "--graphs", graphs, "--m", 1),
        ("prune", "--graphs", graphs),
        ("prune",),
        ("prune", "--paths", paths, "--m", 1),
        ("prune", "--paths", paths, "--target-retention", 0.5),
        ("prune", "--paths", paths, "--m-max", 3),
        ("calibrate", "--data", data, "--k", 2, "--seed", 0, "--max-iters", 5),
    ]:
        assert run_cli(*argv, "-o", out) == 1, argv
        assert not out.exists(), argv


def test_unknown_flag_is_usage_error(capsys):
    assert run_cli("plan", "--bogus", 3) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_command_is_usage_error():
    assert run_cli("frobnicate") == 1


def test_one_parser_serves_every_call_as_a_fresh_one_would(tmp_path, capsys):
    parser = build_parser()
    assert build_parser() is parser
    model, data = tmp_path / "model", tmp_path / "data.tnsr"
    stages = [
        ["gen-model", "--layers", 3, "--experts", 4, "--dim", 8, "--topk", 2, "--seed", 7,
         "-o", model],
        ["gen-data", "--model", model, "--samples", 4, "--tokens", 5, "--seed", 8, "-o", data],
    ]
    argvs = [[str(a) for a in argv] for argv in stages]
    assert main(argvs[0]) == 0
    # a usage error in between leaves nothing behind for the next stage
    assert main(["gen-data", "--model", str(model), "--samples", "0", "-o", str(data)]) == 1
    assert "--samples" in capsys.readouterr().err
    assert main(argvs[1]) == 0
    assert [x.tokens.shape for x in load_data(data)] == [(5, 8)] * 4
    for argv in argvs:
        assert vars(parser.parse_args(argv)) == vars(build_parser.__wrapped__().parse_args(argv))


def _readme_commands():
    """The words of each `moe-pathfinder <sub> ...` command in README's
    fenced blocks, `\\` continuations joined and comments dropped, and of
    each inline code span."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    fence = re.compile(r"^```.*?^```", re.M | re.S)
    for block in fence.findall(text):
        for line in block.replace("\\\n", " ").splitlines():
            if "moe-pathfinder " in line:
                yield line.split("moe-pathfinder ", 1)[1].split(" #")[0].split()
    for span in re.findall(r"`([^`]+)`", fence.sub("", text)):
        yield span.split()


def test_readme_gives_each_subcommand_only_its_own_flags():
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    seen = set()
    for words in _readme_commands():
        if not words or words[0] not in subparsers:
            continue
        seen.add(words[0])
        options = subparsers[words[0]]._option_string_actions
        for flag in (w.split("=")[0] for w in words[1:] if w.startswith("--")):
            assert flag in options, f"README gives `{words[0]}` {flag}: {' '.join(words)}"
    assert seen == set(subparsers)


def test_missing_data_is_format_error(tmp_path):
    assert run_cli("calibrate", "--data", tmp_path, "--k", 2, "--seed", 0,
                   "-o", tmp_path / "c.json") == 2


def graph_rows(graphs) -> dict[int, np.ndarray]:
    """Each sample's (L, 4, N_e) score array in a graph directory, by id."""
    index = json.loads((graphs / "graphs.json").read_text())
    return dict(zip((e["id"] for e in index["samples"]), load_tensor(graphs / index["scores"])))


# sample 3's layer-1 activation vector with a NaN entry, or the activation
# field dropped from every graph, which leaves graphs of 3 fields
@pytest.mark.parametrize("activation", [[float("nan"), 1.0, 1.0, 1.0], []])
def test_plan_rejects_malformed_graph_vector(pipeline, capsys, activation):
    tmp, model, data = pipeline
    graphs = tmp / "graphs"
    run_cli("score", "--model", model, "--data", data, "-o", graphs)
    graph_file = graphs / "scores.tnsr"
    scores = load_tensor(graph_file)
    if activation:
        scores[3, 1, 0] = activation
    else:
        scores = scores[:, :, 1:]
    save_tensor(graph_file, scores)
    assert run_cli("plan", "--graphs", graphs, "--m", 2, "-o", tmp / "paths") == 2
    err = capsys.readouterr().err
    assert str(graph_file) in err and "Traceback" not in err


def test_prune_rejects_truncated_path_set(pipeline, capsys):
    tmp, model, data = pipeline
    graphs, paths = tmp / "graphs", tmp / "paths"
    run_cli("score", "--model", model, "--data", data, "-o", graphs)
    run_cli("plan", "--graphs", graphs, "--m", 2, "-o", paths)
    sample = paths / "sample0000.paths.json"
    sample.write_text(sample.read_text()[:40])
    assert run_cli("prune", "--paths", paths, "-o", tmp / "pruned") == 2
    assert str(sample) in capsys.readouterr().err
    sample.write_text(json.dumps({"m": 2}))
    assert run_cli("prune", "--paths", paths, "-o", tmp / "pruned") == 2
    assert str(sample) in capsys.readouterr().err


def test_mask_model_shape_mismatch_is_format_error(pipeline, capsys):
    tmp, model, data = pipeline
    mask = tmp / "mask.json"
    mask.write_text(json.dumps({"L": 3, "Ne": 2, "keep": [[1, 0]] * 3}))
    assert run_cli("eval", "--model", model, "--mask", mask, "--data", data,
                   "-o", tmp / "eval.json") == 2
    assert str(mask) in capsys.readouterr().err

    other = tmp / "other-model"
    run_cli("gen-model", "--layers", 3, "--experts", 6, "--dim", 8, "--topk", 2,
            "--seed", 7, "-o", other)
    graphs, pruned = tmp / "graphs", tmp / "pruned"
    run_cli("score", "--model", model, "--data", data, "-o", graphs)
    assert run_cli("prune", "--graphs", graphs, "--target-retention", 0.5, "--model", other,
                   "-o", pruned) == 2
    err = capsys.readouterr().err
    assert str(graphs) in err and str(other) in err
    assert not pruned.exists()


def test_unreachable_target_is_invariant_error(pipeline):
    tmp, model, data = pipeline
    graphs = tmp / "graphs"
    run_cli("score", "--model", model, "--data", data, "-o", graphs)
    code = run_cli("prune", "--graphs", graphs, "--target-retention", 1.0,
                   "--m-max", 1, "-o", tmp / "p")
    assert code == 3


@pytest.mark.parametrize("values, k", [
    pytest.param([0.0, 0.0, 0.0], 3, id="one-distinct-sample"),
    pytest.param([0.0, 0.0, 0.0, 1.0, 1.0, 1.0], 4, id="two-distinct-samples"),
    pytest.param([0.0, 1.0, 2.0, 0.0, 1.0], 5, id="three-distinct-samples"),
    pytest.param([0.0, 0.0, 0.0, 0.0, 5.0], 4, id="one-outlier"),
])
def test_calibrate_on_repeated_samples_picks_k_distinct_ids(tmp_path, values, k):
    # fewer distinct samples than --k: a k-means refill that took the only
    # member of an earlier cluster would leave that cluster empty
    data, calib = tmp_path / "data.tnsr", tmp_path / "calib.json"
    save_tensor(data, np.array(values).reshape(-1, 1, 1))
    for seed in range(6):
        assert run_cli("calibrate", "--data", data, "--k", k, "--seed", seed, "-o", calib) == 0
        ids = json.loads(calib.read_text())["sample_ids"]
        assert len(ids) == k and len(set(ids)) == k


def test_calibrate_on_subnormal_distances_picks_k_distinct_ids(tmp_path):
    # the k-means++ distances total 4.8e-324, a subnormal, so u * total can
    # round up to the total itself, which no running sum exceeds
    data, calib = tmp_path / "data.tnsr", tmp_path / "calib.json"
    save_tensor(data, np.array([0.0, 2.2e-162, 0.0]).reshape(3, 1, 1))
    for seed in range(8):
        assert run_cli("calibrate", "--data", data, "--k", 2, "--seed", seed, "-o", calib) == 0
        ids = json.loads(calib.read_text())["sample_ids"]
        assert len(ids) == 2 and len(set(ids)) == 2


@pytest.mark.parametrize("out", ["dd/", "dd"])
def test_existing_directory_as_a_one_file_output_exits_1_writing_nothing(
    pipeline, monkeypatch, capsys, out
):
    tmp, model, _ = pipeline
    monkeypatch.chdir(tmp)
    (tmp / "dd").mkdir()
    before = sorted(tmp.rglob("*"))
    capsys.readouterr()
    argv = ["gen-data", "--model", model, "--samples", 2, "--tokens", 3, "--seed", 1, "-o", out]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert "Is a directory" in err and f"'{out}'" in err
    assert sorted(tmp.rglob("*")) == before


def test_stage_rerun_is_byte_identical(pipeline):
    tmp, model, data = pipeline
    graphs = tmp / "graphs"
    run_cli("score", "--model", model, "--data", data, "-o", graphs)
    before = {p.name: p.read_bytes() for p in graphs.iterdir()}
    run_cli("score", "--model", model, "--data", data, "-o", graphs)
    after = {p.name: p.read_bytes() for p in graphs.iterdir()}
    assert before == after


def _score_jobs_1_and_2(model, data, tmp):
    a, b = tmp / "g1", tmp / "g2"
    run_cli("score", "--model", model, "--data", data, "-o", a)
    run_cli("score", "--model", model, "--data", data, "--jobs", 2, "-o", b)
    files_a = {p.name: p.read_bytes() for p in a.iterdir()}
    files_b = {p.name: p.read_bytes() for p in b.iterdir()}
    assert files_a == files_b


def test_score_jobs_parallel_identical(pipeline):
    tmp, model, data = pipeline
    _score_jobs_1_and_2(model, data, tmp)


def test_score_jobs_parallel_identical_over_three_blocks(pipeline):
    # 40 samples of 32 tokens stack into blocks of 512, 512 and 256 rows
    tmp, model, _ = pipeline
    data = tmp / "data-blocks.tnsr"
    run_cli("gen-data", "--model", model, "--samples", 40, "--tokens", 32, "--seed", 8, "-o", data)
    _score_jobs_1_and_2(model, data, tmp)


def test_plan_jobs_parallel_identical(pipeline):
    tmp, model, data = pipeline
    run_cli("score", "--model", model, "--data", data, "-o", tmp / "graphs")
    for jobs in (1, 2):
        run_cli("plan", "--graphs", tmp / "graphs", "--m", 4, "--jobs", jobs, "-o", tmp / f"p{jobs}")
    files = [{p.name: p.read_bytes() for p in (tmp / f"p{jobs}").iterdir()} for jobs in (1, 2)]
    assert files[0] == files[1] and len(files[0]) == 11  # ten path sets and the index


def test_calibration_score_plans_the_paths_of_a_full_score(tmp_path):
    # a graph's floats depend on the block its sample is scored in: the 8
    # calibration samples share one block, the full run's 40 are three (at
    # this width some floats differ in the last place)
    tmp = tmp_path
    model, data, calib = tmp / "model", tmp / "data.tnsr", tmp / "calib.json"
    run_cli("gen-model", "--layers", 3, "--experts", 4, "--dim", 32, "--topk", 2,
            "--seed", 7, "-o", model)
    run_cli("gen-data", "--model", model, "--samples", 40, "--tokens", 32, "--seed", 8, "-o", data)
    run_cli("calibrate", "--data", data, "--k", 8, "--seed", 3, "-o", calib)
    ids = json.loads(calib.read_text())["sample_ids"]
    runs = {}
    for name, extra in (("calib", ["--calibration", calib]), ("full", [])):
        graphs, paths = tmp / f"graphs-{name}", tmp / f"paths-{name}"
        assert run_cli("score", "--model", model, "--data", data, *extra, "-o", graphs) == 0
        assert run_cli("plan", "--graphs", graphs, "--m", 16, "-o", paths) == 0
        runs[name] = (graphs, paths)
    (gc, pc), (gf, pf) = runs["calib"], runs["full"]
    rows_c, rows_f = graph_rows(gc), graph_rows(gf)
    for i in ids:
        np.testing.assert_allclose(rows_c[i], rows_f[i], rtol=1e-12, atol=0)
        a, b = (load_pathset(p / f"sample{i:04d}.paths.json") for p in (pc, pf))
        assert [p.experts for p in a.paths] == [p.experts for p in b.paths]


def test_manifest_accumulates_and_validates(tmp_path, monkeypatch):
    # every stage records, under its -o path, what it wrote and its --seed if
    # it takes one; a rerun into the same -o replaces its record, and runs
    # into other -o paths keep theirs
    monkeypatch.chdir(tmp_path)
    for argv in [
        "gen-model --layers 3 --experts 4 --dim 8 --topk 2 --seed 7 -o model",
        "gen-data --model model --samples 10 --tokens 5 --seed 6 -o data.tnsr",
        "gen-data --model model --samples 10 --tokens 5 --seed 8 -o data.tnsr",
        "gen-data --model model --samples 10 --tokens 5 --seed 5 -o data2.tnsr",
        "calibrate --data data.tnsr --k 4 --seed 9 -o calib.json",
        "score --model model --data data.tnsr --calibration calib.json -o graphs",
        "plan --graphs graphs --m 2 -o paths",
        "prune --paths paths --model model -o pruned",
        "prune --graphs graphs --target-retention 0.5 -o pruned-target",
        "eval --model model --mask pruned/mask.json --data data.tnsr -o eval.json",
        "heatmap --paths paths -o heatmap.csv",
        f"{TINY_COMPARE} --trials 1 -o cmp",
    ]:
        assert run_cli(*argv.split(), "--manifest", "manifest.json") == 0, argv
    manifest = tmp_path / "manifest.json"
    obj = json.loads(manifest.read_text())
    assert list(obj) == ["tool_version", "stages"]
    assert obj["tool_version"] == __version__
    assert obj["stages"] == {
        "model": {"command": "gen-model", "outputs": "model", "seed": 7},
        "data.tnsr": {"command": "gen-data", "outputs": "data.tnsr", "seed": 8},
        "data2.tnsr": {"command": "gen-data", "outputs": "data2.tnsr", "seed": 5},
        "calib.json": {"command": "calibrate", "outputs": "calib.json", "seed": 9},
        "graphs": {"command": "score", "outputs": "graphs"},
        "paths": {"command": "plan", "outputs": "paths"},
        "pruned": {"command": "prune", "outputs": [
            "pruned/mask.json", "pruned/report.json", "pruned/pruned-model"]},
        "pruned-target": {"command": "prune", "outputs": [
            "pruned-target/mask.json", "pruned-target/report.json"]},
        "eval.json": {"command": "eval", "outputs": "eval.json"},
        "heatmap.csv": {"command": "heatmap", "outputs": "heatmap.csv"},
        "cmp": {"command": "compare", "outputs": ["cmp/summary.json"], "seed": 0},
    }

    # a stage that fails records nothing
    before = manifest.read_bytes()
    for argv, code in [
        ("calibrate --data data.tnsr --k 11 --seed 9 -o c2.json", 1),
        ("plan --graphs nosuch --m 1 -o p2", 2),
        ("prune --graphs graphs --target-retention 1.0 --m-max 1 -o p3", 3),
    ]:
        assert run_cli(*argv.split(), "--manifest", "manifest.json") == code, argv
        assert manifest.read_bytes() == before, argv


def _compare_rows(out):
    """The per-seed rows of compare's printed table and its footer line."""
    lines = out.splitlines()
    assert lines[0].split() == ["seed", "pathfinder", "rand", "median", "ratio", "win"]
    blank = lines.index("")
    return [line.split() for line in lines[1:blank]], lines[blank + 1]


# a compare run small enough for the manifest and summary tests
TINY_COMPARE = ("compare --layers 2 --experts 3 --dim 6 --topk 1 --seed 0 --pool 6 --tokens 4 "
                "--k 2 --eval-samples 2 --random-masks 2")
TINY_CONFIG = ExperimentConfig(
    moe=MoEConfig(num_layers=2, experts_per_layer=3, hidden_dim=6, top_k=1),
    model_seeds=(0, 1), pool_size=6, tokens_per_sample=4, calibration_k=2, n_eval_samples=2,
    n_random_masks=2,
)


def test_compare_small_run(tmp_path, capsys):
    tiny = TINY_COMPARE.split()
    out = tmp_path / "cmp"
    capsys.readouterr()
    assert run_cli(*tiny, "--trials", 2, "--retention", 0.5, "-o", out) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["moe"]["num_layers"] == 2 and len(summary["outcomes"]) == 2
    rows, footer = _compare_rows(capsys.readouterr().out)
    ratios = []
    for row, s in zip(rows, summary["outcomes"], strict=True):
        ratios.append(s["pathfinder_error"] / s["random_median"])
        assert row == [
            str(s["model_seed"]), f"{s['pathfinder_error']:.4e}", f"{s['random_median']:.4e}",
            f"{ratios[-1]:.2f}", "yes" if s["win"] else "no",
        ]
    mean_error = np.mean([s["pathfinder_error"] for s in summary["outcomes"]])
    assert footer == (
        f"pathfinder wins {summary['wins']}/2 seeds -> {out} "
        f"(mean error {mean_error:.4e}, mean ratio {np.mean(ratios):.2f})"
    )

    # full retention: every mask keeps every expert, so the random median is 0
    assert run_cli(*tiny, "--trials", 1, "--retention", 1, "-o", tmp_path / "full") == 0
    rows, footer = _compare_rows(capsys.readouterr().out)
    assert rows == [["0", "0.0000e+00", "0.0000e+00", "nan", "yes"]]
    assert footer.endswith("(mean error 0.0000e+00, mean ratio nan)")


def test_compare_writes_its_report_record_and_nothing_else(tmp_path):
    # -o holds the one output, written atomically, so no .tmp is left;
    # summary.json is the in-process report, every field of every outcome
    out = tmp_path / "cmp"
    assert run_cli(*TINY_COMPARE.split(), "--trials", 2, "-o", out) == 0
    assert [p.name for p in out.iterdir()] == ["summary.json"]
    summary = json.loads((out / "summary.json").read_text())
    report = run_comparison(TINY_CONFIG)
    assert list(summary) == ["wins", "config", "outcomes"]
    assert summary == json.loads(json.dumps(asdict(report)))
    assert [list(o) for o in summary["outcomes"]] == [[f.name for f in fields(SeedOutcome)]] * 2
    assert summary["wins"] == sum(o["win"] for o in summary["outcomes"])


def test_compare_draws_only_the_cluster_centers_it_uses(tmp_path):
    # 10**13 centers of 32 floats would not fit in memory; 8 pool and 2 eval
    # samples use the first 8, so the run's outcomes are the ones with 8
    # clusters (the configs, which name the count, differ)
    argv = "compare --seed 0 --trials 1 --pool 8 --k 2 --eval-samples 2 --random-masks 2".split()
    assert run_cli(*argv, "--clusters", 10**13, "-o", tmp_path / "huge") == 0
    assert run_cli(*argv, "--clusters", 8, "-o", tmp_path / "eight") == 0
    huge, eight = (json.loads((tmp_path / name / "summary.json").read_text())["outcomes"]
                   for name in ("huge", "eight"))
    assert huge == eight


def test_gen_data_roundtrip_via_load(pipeline):
    tmp, model, data = pipeline
    assert sorted(p.name for p in tmp.iterdir()) == ["data.tnsr", "model"] and data.is_file()
    assert load_tensor(data).shape == (10, 5, 8)
    samples = load_data(data)
    assert len(samples) == 10
    assert samples[0].tokens.shape == (5, 8)


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "moe_pathfinder.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == __version__ + "\n"


# Every stage run from the pipeline fixture's directory with relative paths,
# so manifests hold no temporary-directory names and copies compare by bytes.
STAGES = [
    "calibrate --data data.tnsr --k 4 --seed 9 -o calib.json --manifest manifest.json",
    "score --model model --data data.tnsr --calibration calib.json -o graphs --manifest manifest.json",
    "plan --graphs graphs --m 2 -o paths --manifest manifest.json",
    "prune --paths paths -o pruned --manifest manifest.json",
]


@pytest.fixture
def staged(pipeline, monkeypatch):
    tmp = pipeline[0]
    monkeypatch.chdir(tmp)
    for argv in STAGES:
        assert run_cli(*argv.split()) == 0
    return tmp


def _first_id(staged):
    return json.loads((staged / "graphs" / "graphs.json").read_text())["samples"][0]["id"]


def _truncate(n):
    return lambda p: p.write_bytes(p.read_bytes()[:n])


def _replace(obj):
    return lambda p: p.write_text(json.dumps(obj))


def _edit(fn):
    def apply(p):
        obj = json.loads(p.read_text())
        fn(obj)
        p.write_text(json.dumps(obj))

    return apply


GRAPH_FIELDS = ("activation", "routing", "recon_loss", "importance")


def _naming(*texts, corrupt):
    # corrupt, and the error must also hold each of texts
    def apply(p):
        corrupt(p)

    apply.names = texts
    return apply


def _graph_entry(field, value):
    # sets the first expert's entry of the first sample's layer-1 score
    # vector for field
    def apply(p):
        scores = load_tensor(p)
        scores[0, 1, GRAPH_FIELDS.index(field), 0] = value
        save_tensor(p, scores)

    return _naming(f"sample {{first}} layer 1 field '{field}'", corrupt=apply)


def _per_sample_layout(suffix):
    # graphs.json and one file per sample, as score wrote them before all
    # scores went into one blob: a .tnsr blob each, or, from before graphs
    # became blobs, a JSON file each
    def apply(p):
        index = json.loads(p.read_text())
        blob = p.parent / index.pop("scores")
        for e, scores in zip(index["samples"], load_tensor(blob)):
            e["graph"] = f"sample{e['id']:04d}{suffix}"
            if suffix == ".tnsr":
                save_tensor(p.parent / e["graph"], scores)
            else:
                (p.parent / e["graph"]).write_text(json.dumps({
                    "num_layers": scores.shape[0],
                    "experts_per_layer": scores.shape[2],
                    "layers": [dict(zip(GRAPH_FIELDS, layer.tolist())) for layer in scores],
                }))
        blob.unlink()
        p.write_text(json.dumps(index))

    return apply


def _drop_last_row(p):
    save_tensor(p, load_tensor(p)[:-1])


def _model_config(**fields):
    return _edit(lambda o: o["config"].update(fields))


def _nan_last_entry(p):
    p.write_bytes(p.read_bytes()[:-8] + struct.pack("<d", float("nan")))


def _scale_sample(i, factor):
    # every token of sample i times factor: each entry finite, but squared
    # distances between the samples' features overflow
    def apply(p):
        tokens = load_tensor(p)
        tokens[i] *= factor
        save_tensor(p, tokens)

    return apply


def _empty_data(*shape):
    return lambda p: save_tensor(p, np.zeros(shape))


def _old_data_layout(p):
    # gen-data's output as a directory, data.json over tokens.tnsr, as it was
    # written before the data file became the blob alone
    p.mkdir()
    tokens = load_tensor(p.parent / "data.tnsr")
    save_tensor(p / "tokens.tnsr", tokens)
    (p / "data.json").write_text(json.dumps(dict(
        zip(("n_samples", "tokens_per_sample", "hidden_dim"), tokens.shape),
        seed=8, blob="tokens.tnsr")))


def _per_layer_layout(per_expert=False):
    # the model directory as written when each layer had a router blob and an
    # experts blob of its own, or, before that, when each expert had a blob
    def apply(p):
        index, model = json.loads(p.read_text()), load_model(p.parent)
        layers = []
        for l, layer in enumerate(model.layers):
            layers.append({"router": f"layer{l}.router.tnsr", "experts": f"layer{l}.experts.tnsr"})
            blobs = [(layers[-1]["router"], layer.router), (layers[-1]["experts"], layer.experts)]
            if per_expert:
                layers[-1]["experts"] = [f"layer{l}.expert{i}.tnsr" for i in range(len(layer.experts))]
                blobs[1:] = zip(layers[-1]["experts"], layer.experts)
            for name, arr in blobs:
                save_tensor(p.parent / name, arr)
        (p.parent / index["weights"]).unlink()
        config = {**index["config"], **({"layer_expert_counts": None} if per_expert else {})}
        p.write_text(json.dumps({"config": config, "layers": layers}))

    return apply


def _set_count(l, n):
    # model.json lists n experts in layer l, and the blob holds that many rows
    # for it: its first rows, or its first row repeated
    def apply(p):
        index = json.loads(p.read_text())
        blob = p.parent / index["weights"]
        weights, start = load_tensor(blob), sum(index["counts"][:l])
        rows = weights[start:start + index["counts"][l]]
        rows = rows[:n] if n <= len(rows) else np.concatenate([rows, rows[:1].repeat(n - len(rows), 0)])
        save_tensor(blob, np.concatenate([weights[:start], rows, weights[start + index["counts"][l]:]]))
        index["counts"][l] = n
        p.write_text(json.dumps(index))

    return apply


def _add_row(p):
    save_tensor(p, np.concatenate([load_tensor(p), load_tensor(p)[:1]]))


def _member_outside(field, where=None, entry=lambda o: o["samples"][0]):
    # entry(index)[field] names a valid file outside the index's own
    # directory: the member itself by its absolute path, or, with `where`,
    # the member in the sibling directory `where`, a copy of this one
    def apply(p):
        obj = json.loads(p.read_text())
        name = entry(obj)[field]
        if where is None:
            entry(obj)[field] = str(p.parent.resolve() / name)
        else:
            if p.parent.name != where:
                shutil.copytree(p.parent, p.parent.parent / where)
            entry(obj)[field] = f"../{where}/{name}"
        p.write_text(json.dumps(obj))

    apply.names = ("not a plain file name",)
    return apply


def _pruned_model(_):
    # writes pruned/pruned-model next to its mask, as a README-style run does
    assert run_cli(*"prune --graphs graphs --target-retention 0.5 --model model -o pruned".split()) == 0


EVAL = "eval --model model --mask pruned/mask.json --data data.tnsr -o eval.json"
SCORE = "score --model model --data data.tnsr -o g2"
SCORE_CALIB = "score --model model --data data.tnsr --calibration calib.json -o g2"


@pytest.mark.parametrize(
    "name, corrupt, argv",
    [
        pytest.param("pruned/mask.json", _truncate(30), EVAL, id="mask-truncated"),
        pytest.param("graphs/graphs.json", _replace({"scores": "scores.tnsr"}),
                     "plan --graphs graphs --m 2 -o p2", id="graph-index-no-samples"),
        pytest.param("paths/paths.json", _replace({}), "prune --paths paths -o pr2",
                     id="path-index-empty"),
        pytest.param("paths/paths.json", _edit(lambda o: o["samples"][1].pop("paths")),
                     "heatmap --paths paths -o h.csv", id="path-index-entry-no-paths"),
        pytest.param("calib.json", _replace([]), SCORE_CALIB, id="calibration-list"),
        pytest.param("calib.json", _truncate(20), SCORE_CALIB, id="calibration-truncated"),
        pytest.param("calib.json", Path.unlink, SCORE_CALIB, id="calibration-missing"),
        pytest.param("pruned/mask.json", _edit(lambda o: o.pop("keep")), EVAL, id="mask-no-keep"),
        pytest.param("pruned/mask.json", Path.unlink, EVAL, id="mask-missing"),
        pytest.param("pruned/mask.json", _edit(lambda o: o.update(Ne=3)), EVAL,
                     id="mask-grid-disagrees-with-header"),
        pytest.param("pruned/mask.json", _edit(lambda o: o["keep"].__setitem__(1, [0] * 4)),
                     EVAL, id="mask-empty-layer"),
        pytest.param("pruned/mask.json", _edit(lambda o: o["keep"][0].__setitem__(0, 2)), EVAL,
                     id="mask-keep-not-0-or-1"),
        pytest.param("pruned/mask.json", _edit(lambda o: o["keep"][0].__setitem__(0, True)),
                     EVAL, id="mask-keep-bool"),
        pytest.param("manifest.json", _truncate(30),
                     "plan --graphs graphs --m 1 -o p2 --manifest manifest.json",
                     id="manifest-truncated"),
        # a manifest that keys its stages by subcommand, as before records
        # were keyed by their -o path
        pytest.param("manifest.json", _replace({"tool_version": "0.1.0", "stages": {
            "plan": "paths"}, "seeds": {}}),
                     "plan --graphs graphs --m 1 -o p2 --manifest manifest.json",
                     id="manifest-keyed-by-subcommand"),
        pytest.param("data.tnsr", _scale_sample(3, 1e200),
                     "calibrate --data data.tnsr --k 4 --seed 3 -o c2.json",
                     id="data-overflows-k-means"),
        pytest.param("model/weights.tnsr", Path.unlink, EVAL, id="blob-missing"),
        pytest.param("model/weights.tnsr",
                     lambda p: p.write_bytes(p.read_bytes() + bytes(8)), EVAL,
                     id="blob-trailing-bytes"),
        pytest.param("model/weights.tnsr", _nan_last_entry,
                     "score --model model --data data.tnsr -o g2", id="blob-nan"),
        # a model directory in an earlier layout, with no counts; rerunning
        # gen-model rewrites it
        pytest.param("model/model.json", _naming("no key 'counts'", corrupt=_per_layer_layout(True)),
                     SCORE, id="model-per-expert-blobs"),
        pytest.param("model/model.json", _naming("no key 'counts'", corrupt=_per_layer_layout()),
                     EVAL, id="model-per-layer-blobs"),
        # the blob holds sum(counts) experts, each a router row over a d x d
        # matrix, and a layer's count is 1 to N_e
        pytest.param("model/weights.tnsr", _naming("(11, 9, 8)", "(12, 9, 8)", corrupt=_drop_last_row),
                     SCORE, id="experts-fewer-than-router-rows"),
        pytest.param("model/weights.tnsr", _naming("(13, 9, 8)", "(12, 9, 8)", corrupt=_add_row),
                     EVAL, id="blob-rows-more-than-counts"),
        pytest.param("model/weights.tnsr", _naming("(12, 9, 7)", "(12, 9, 8)", corrupt=lambda p:
                     save_tensor(p, load_tensor(p)[:, :, :-1])), SCORE, id="blob-trailing-dims"),
        pytest.param("model/model.json", _naming("layer 1 holds 5 experts", "experts_per_layer 4",
                     corrupt=_set_count(1, 5)), SCORE, id="experts-more-than-n-e"),
        pytest.param("model/model.json", _naming("layer 2 holds 0 experts", corrupt=_set_count(2, 0)),
                     EVAL, id="model-count-zero"),
        pytest.param("model/model.json", _naming("counts [4, 4]", corrupt=_edit(
            lambda o: o["counts"].pop())), SCORE, id="model-counts-fewer-than-layers"),
        pytest.param("model/model.json", _naming("layer 0 count must be an integer", corrupt=_edit(
            lambda o: o["counts"].__setitem__(0, 4.0))), SCORE, id="model-count-float"),
        pytest.param("paths/sample{first:04d}.paths.json",
                     _edit(lambda o: o["paths"][0].update(experts=[0, 4, 1])),
                     "heatmap --paths paths -o h.csv", id="path-outside-index"),
        pytest.param("nosuch", lambda p: None, "prune --paths paths --model nosuch -o pr2",
                     id="prune-model-missing"),
        # integer fields must be JSON integers in range, and path weights finite
        pytest.param("model/model.json", _edit(lambda o: o["config"].update(top_k=True)),
                     SCORE, id="model-top-k-bool"),
        pytest.param("model/model.json", _edit(lambda o: o["config"].update(num_layers=3.0)),
                     SCORE, id="model-num-layers-float"),
        pytest.param("paths/paths.json", _edit(lambda o: o.update(m=-5)),
                     "prune --paths paths -o pr2", id="path-index-m-negative"),
        pytest.param("paths/paths.json", _edit(lambda o: o.update(m=99)),
                     "prune --paths paths -o pr2", id="path-index-m-disagrees"),
        pytest.param("paths/sample{first:04d}.paths.json",
                     _edit(lambda o: o["paths"][0].update(experts=[0, 2.5, 1])),
                     "heatmap --paths paths -o h.csv", id="path-expert-float"),
        pytest.param("paths/sample{first:04d}.paths.json",
                     _edit(lambda o: o["paths"][0].update(log_weight=float("nan"))),
                     "prune --paths paths -o pr2", id="path-log-weight-nan"),
        pytest.param("calib.json", _edit(lambda o: o["sample_ids"].__setitem__(0, 1.7)),
                     SCORE_CALIB, id="calibration-id-float"),
        # a calibration set lists K distinct ids; a stage index at least one
        # sample, none twice
        pytest.param("calib.json", _edit(lambda o: o["sample_ids"].__setitem__(1, o["sample_ids"][0])),
                     SCORE_CALIB, id="calibration-id-repeated"),
        pytest.param("calib.json", _edit(lambda o: o.update(sample_ids=[])), SCORE_CALIB,
                     id="calibration-ids-empty"),
        pytest.param("calib.json", _edit(lambda o: o["sample_ids"].pop()), SCORE_CALIB,
                     id="calibration-ids-fewer-than-k"),
        # k-means distortion is a sum of squared distances
        pytest.param("calib.json", _naming("distortion", corrupt=_edit(
            lambda o: o.update(distortion=-5.0))), SCORE_CALIB,
                     id="calibration-distortion-negative"),
        pytest.param("graphs/graphs.json", _edit(lambda o: o.update(samples=[])),
                     "plan --graphs graphs --m 2 -o p2", id="graph-index-samples-empty"),
        pytest.param("graphs/graphs.json", _edit(lambda o: o["samples"].append(o["samples"][0])),
                     "prune --graphs graphs --target-retention 0.5 -o pr2",
                     id="graph-index-id-repeated"),
        pytest.param("paths/paths.json", _edit(lambda o: o.update(samples=[])),
                     "prune --paths paths -o pr2", id="path-index-samples-empty"),
        pytest.param("paths/paths.json", _edit(lambda o: o["samples"].append(o["samples"][1])),
                     "heatmap --paths paths -o h.csv", id="path-index-id-repeated"),
        # graph score vectors are nonnegative, and routing preferences at most
        # 1; the error names the sample, the layer and the field
        pytest.param("graphs/scores.tnsr", _graph_entry("routing", -1.0),
                     "plan --graphs graphs --m 2 -o p2", id="graph-routing-negative"),
        pytest.param("graphs/scores.tnsr", _graph_entry("routing", 1.5),
                     "prune --graphs graphs --target-retention 0.5 -o pr2",
                     id="graph-routing-above-1"),
        pytest.param("graphs/scores.tnsr", _graph_entry("recon_loss", -3.0),
                     "plan --graphs graphs --m 2 -o p2", id="graph-recon-loss-negative"),
        pytest.param("graphs/scores.tnsr", _graph_entry("activation", -0.5),
                     "prune --graphs graphs --target-retention 0.5 -o pr2",
                     id="graph-activation-negative"),
        pytest.param("graphs/scores.tnsr", _graph_entry("importance", -1e-9),
                     "plan --graphs graphs --m 2 -o p2", id="graph-importance-negative"),
        # the scores blob holds one graph per listed sample, and is there
        pytest.param("graphs/scores.tnsr", Path.unlink, "plan --graphs graphs --m 2 -o p2",
                     id="graph-scores-missing"),
        pytest.param("graphs/scores.tnsr", _naming("expected (4, L, 4, N_e)", corrupt=_drop_last_row),
                     "prune --graphs graphs --target-retention 0.5 -o pr2",
                     id="graph-scores-fewer-than-samples"),
        # a graph directory in an earlier layout, one file per sample;
        # rerunning score rewrites it
        pytest.param("graphs/graphs.json", _per_sample_layout(".json"),
                     "plan --graphs graphs --m 2 -o p2", id="graph-json-layout"),
        pytest.param("graphs/graphs.json", _per_sample_layout(".tnsr"),
                     "prune --graphs graphs --target-retention 0.5 -o pr2",
                     id="graph-per-sample-layout"),
        # model.json and the blobs disagree: the error names model.json and
        # both numbers
        pytest.param("model/model.json",
                     _naming("[4, 4, 4]", "experts_per_layer 1000000",
                             corrupt=_model_config(experts_per_layer=10**6)),
                     SCORE, id="model-experts-per-layer-above-blobs"),
        pytest.param("model/model.json",
                     _naming("4 experts", "experts_per_layer 2",
                             corrupt=_model_config(experts_per_layer=2)),
                     SCORE, id="model-experts-per-layer-below-blobs"),
        pytest.param("model/model.json",
                     _naming("(12, 9, 8)", "(12, 1000001, 1000000)",
                             corrupt=_model_config(hidden_dim=10**6)),
                     SCORE, id="model-hidden-dim-disagrees"),
        # an index names files in its own directory only
        pytest.param("model/model.json",
                     _member_outside("weights", "other", entry=lambda o: o),
                     SCORE, id="model-member-outside-dir"),
        pytest.param("graphs/graphs.json", _member_outside("scores", "g", entry=lambda o: o),
                     "plan --graphs graphs --m 2 -o p2", id="graph-member-outside-dir"),
        pytest.param("graphs/graphs.json", _naming("not a plain file name", corrupt=_edit(
            lambda o: o.update(scores="../x.tnsr"))),
                     "prune --graphs graphs --target-retention 0.5 -o pr2",
                     id="graph-scores-in-parent-dir"),
        pytest.param("paths/paths.json", _member_outside("paths"),
                     "heatmap --paths paths -o h.csv", id="path-member-absolute"),
        pytest.param("paths/paths.json", _naming("each id and each paths once", corrupt=_edit(
            lambda o: o["samples"][2].update(paths=o["samples"][0]["paths"]))),
                     "heatmap --paths paths -o h.csv", id="path-member-twice"),
        pytest.param("pruned/pruned-model", _pruned_model,
                     "score --model pruned/pruned-model --data data.tnsr -o g2", id="pruned-model-score"),
        pytest.param("pruned/pruned-model", _pruned_model,
                     "eval --model pruned/pruned-model --mask pruned/mask.json --data data.tnsr "
                     "-o eval.json", id="pruned-model-eval"),
        pytest.param("pruned/pruned-model", _pruned_model,
                     "prune --paths paths --model pruned/pruned-model -o pr2",
                     id="pruned-model-prune"),
        *[
            pytest.param(name, corrupt, argv, id=f"{case}-{argv.split()[0]}")
            for name, corrupt, case in [
                ("data.tnsr", _empty_data(10, 0, 8), "data-zero-tokens"),
                ("data.tnsr", _empty_data(0, 5, 8), "data-zero-samples"),
            ]
            for argv in (EVAL, SCORE)
        ],
        # tokens of width 0 fit no model, and calibrate would cluster
        # featureless samples
        pytest.param("data.tnsr", _empty_data(10, 5, 0),
                     "calibrate --data data.tnsr --k 2 --seed 0 -o c2.json", id="data-zero-width"),
        # the data file is one rank-3 blob: gen-data's older directory
        # output, or a blob of another rank, exits 2 naming it
        *[
            pytest.param("old-data", _old_data_layout, argv.replace("data.tnsr", "old-data"),
                         id=f"data-old-directory-layout-{argv.split()[0]}")
            for argv in (EVAL, SCORE, "calibrate --data data.tnsr --k 2 --seed 0 -o c2.json")
        ],
        pytest.param("routers.tnsr", _naming("shape (12, 8)", corrupt=lambda p: save_tensor(
            p, load_tensor(p.parent / "model" / "weights.tnsr")[:, 0])),
                     "score --model model --data routers.tnsr -o g2", id="data-rank-2-blob"),
    ],
)
def test_bad_artifact_exits_2_naming_it(staged, capsys, name, corrupt, argv):
    first = _first_id(staged)
    name = name.format(first=first)
    corrupt(staged / name)
    capsys.readouterr()
    assert run_cli(*argv.split()) == 2
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err
    assert all(text.format(first=first) in err for text in getattr(corrupt, "names", ())), err
    argv = argv.split()
    assert not (staged / argv[argv.index("-o") + 1]).exists()


def test_gen_data_runs_on_a_pruned_model(staged):
    _pruned_model(staged / "pruned" / "pruned-model")
    assert run_cli(*"gen-data --model pruned/pruned-model --samples 2 --tokens 3 --seed 1 -o d2.tnsr".split()) == 0
    assert len(load_data(staged / "d2.tnsr")) == 2


def test_prune_writes_the_pruned_model_index_last(staged, monkeypatch):
    # a rerun cut short while writing pruned-model/ leaves its model.json,
    # the last file written, and so the whole directory, as the first run did
    assert run_cli(*"prune --paths paths --model model -o pr2".split()) == 0
    out = staged / "pr2" / "pruned-model"
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    # the same weights with another top_k: only model.json would differ
    assert run_cli(*"gen-model --layers 3 --experts 4 --dim 8 --topk 1 --seed 7 -o m1".split()) == 0

    def fail(kept, path):
        raise OSError(28, "No space left on device", str(path))

    monkeypatch.setattr("moe_pathfinder.cli.save_remap", fail)
    assert run_cli(*"prune --paths paths --model m1 -o pr2".split()) == 1
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_interrupted_score_rerun_leaves_the_old_graphs(staged, monkeypatch):
    # score rerun over graphs/ with a same-shape model of another seed, cut
    # short at its scores blob's write: graphs/ stays as the first run wrote
    # it, so plan plans the old graphs, never a mix of old and new
    graphs = staged / "graphs"
    before = {p.name: p.read_bytes() for p in graphs.iterdir()}
    assert run_cli(*"gen-model --layers 3 --experts 4 --dim 8 --topk 2 --seed 99 -o m99".split()) == 0
    assert run_cli(*"score --model m99 --data data.tnsr --calibration calib.json -o g99".split()) == 0
    assert (staged / "g99" / "scores.tnsr").read_bytes() != before["scores.tnsr"]
    save_tensor_ = numerics.save_tensor

    def fail(path, arr):
        if Path(path).name == "scores.tnsr":
            raise OSError(28, "No space left on device", str(path))
        save_tensor_(path, arr)

    monkeypatch.setattr(numerics, "save_tensor", fail)
    assert run_cli(*"score --model m99 --data data.tnsr --calibration calib.json -o graphs".split()) == 1
    assert {p.name: p.read_bytes() for p in graphs.iterdir()} == before
    assert run_cli(*"plan --graphs graphs --m 2 -o p2".split()) == 0
    planned = {p.name: p.read_bytes() for p in (staged / "p2").iterdir()}
    assert planned == {p.name: p.read_bytes() for p in (staged / "paths").iterdir()}


def test_interrupted_gen_model_rerun_leaves_the_old_model(staged, monkeypatch):
    # gen-model rerun over model/ with another seed, cut short while writing
    # its weights blob: model/ stays as the first run wrote it, so score
    # scores the old model, never layers of two seeds
    model = staged / "model"
    before = {p.name: p.read_bytes() for p in model.iterdir()}
    write = numerics._write_atomic

    def cut(parts):
        yield parts[0]  # the header reaches the temporary file, the payload does not
        raise OSError(28, "No space left on device")

    def fail(path, parts):
        write(path, cut(parts) if Path(path).name == "weights.tnsr" else parts)

    monkeypatch.setattr(numerics, "_write_atomic", fail)
    assert run_cli(*"gen-model --layers 3 --experts 4 --dim 8 --topk 2 --seed 99 -o model".split()) == 1
    assert {p.name: p.read_bytes() for p in model.iterdir()} == before
    assert run_cli(*"score --model model --data data.tnsr --calibration calib.json -o g2".split()) == 0
    assert _tree_bytes(staged / "g2") == _tree_bytes(staged / "graphs")


def test_prune_model_rerun_leaves_no_stale_blob(staged):
    # the first pruned model in the per-layer layout, as earlier versions
    # wrote it: the rerun removes its blobs
    out = staged / "pr2" / "pruned-model"
    for m in (16, 1):
        assert run_cli(*f"plan --graphs graphs --m {m} -o p{m}".split()) == 0
        assert run_cli(*f"prune --paths p{m} --model model -o pr2".split()) == 0
        if m == 16:
            _per_layer_layout()(out / "model.json")
            assert len(list(out.glob("layer*.tnsr"))) == 6
    assert {p.name for p in out.iterdir()} == {"model.json", "remap.json", "weights.tnsr"}


def _tree_bytes(root) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_graph_index_with_its_former_dimension_keys_plans_and_prunes_the_same(staged):
    # graphs.json used to repeat the blob's L and N_e as num_layers and
    # experts_per_layer; readers ignore keys they do not use
    index = staged / "graphs" / "graphs.json"
    assert set(json.loads(index.read_text())) == {"scores", "samples"}
    shutil.copytree(staged / "graphs", staged / "old")
    _, L, _, n = load_tensor(staged / "old" / "scores.tnsr").shape
    _edit(lambda o: o.update(num_layers=L, experts_per_layer=n))(staged / "old" / "graphs.json")
    for graphs in ("graphs", "old"):
        assert run_cli(*f"plan --graphs {graphs} --m 2 -o {graphs}-paths".split()) == 0
        assert run_cli(*f"prune --graphs {graphs} --target-retention 0.5 --model model "
                         f"-o {graphs}-pruned".split()) == 0
    for out in ("paths", "pruned"):
        assert _tree_bytes(staged / f"old-{out}") == _tree_bytes(staged / f"graphs-{out}")


def _listed_members(out) -> set[str]:
    """The index in a stage output directory and every member it lists."""
    for name, members in [
        ("model.json", lambda o: [o["weights"]]),
        ("paths.json", lambda o: [e["paths"] for e in o["samples"]]),
        ("graphs.json", lambda o: [o["scores"]]),
    ]:
        if (out / name).exists():
            return {name, *members(json.loads((out / name).read_text()))}


def _runs(*argvs):
    return lambda staged: [run_cli(*argv.split()) for argv in argvs] == [0] * len(argvs)


def _per_sample_graphs(staged):
    shutil.copytree(staged / "graphs", staged / "out")
    _per_sample_layout(".tnsr")(staged / "out" / "graphs.json")
    return True


def _per_layer_model(staged):
    assert run_cli(*"gen-model --layers 6 --experts 4 --dim 8 --topk 2 --seed 7 -o out".split()) == 0
    _per_layer_layout()(staged / "out" / "model.json")
    return True


# (the first run into out/, the rerun into it): a 6-layer model in the
# per-layer layout under a 3-layer one in one weights blob, 10 path sets
# under 4, and graphs in the per-sample layout under one scores blob
@pytest.mark.parametrize("first, rerun", [
    pytest.param(_per_layer_model,
                 "gen-model --layers 3 --experts 4 --dim 8 --topk 2 --seed 7 -o out",
                 id="gen-model-fewer-layers"),
    pytest.param(_runs("score --model model --data data.tnsr -o g10",
                       "plan --graphs g10 --m 2 -o out"),
                 "plan --graphs graphs --m 1 -o out", id="plan-fewer-samples"),
    pytest.param(_per_sample_graphs,
                 "score --model model --data data.tnsr --calibration calib.json -o out",
                 id="score-over-per-sample-graphs"),
])
def test_stage_rerun_leaves_only_its_index_and_members(staged, first, rerun):
    assert first(staged)
    out = staged / "out"
    # files that the stage's member pattern does not match stay
    (out / "notes.txt").write_text("kept\n")
    (out / "remap.json").write_text("{}\n")
    stale = {p.name for p in out.iterdir()} - {"notes.txt", "remap.json"}
    assert run_cli(*rerun.split()) == 0
    assert stale - _listed_members(out)  # the first run left members the rerun does not list
    assert {p.name for p in out.iterdir()} == _listed_members(out) | {"notes.txt", "remap.json"}


@pytest.mark.parametrize("argv", [
    pytest.param("score --model wide --data data.tnsr -o g2", id="score"),
    pytest.param("eval --model wide --mask pruned/mask.json --data data.tnsr -o eval2.json", id="eval"),
])
def test_data_width_mismatch_exits_2_naming_both(staged, capsys, argv):
    assert run_cli(*"gen-model --layers 3 --experts 4 --dim 16 --topk 2 --seed 7 -o wide".split()) == 0
    capsys.readouterr()
    assert run_cli(*argv.split()) == 2
    err = capsys.readouterr().err
    assert "data data.tnsr " in err and "model wide " in err and "Traceback" not in err
    assert not (staged / argv.split()[-1]).exists()


@pytest.mark.parametrize("argv", [
    pytest.param("score --model big --data data.tnsr -o g", id="score"),
    pytest.param("score --model big --data data.tnsr --jobs 2 -o g", id="score-jobs"),
    pytest.param("eval --model big --mask mask.json --data data.tnsr -o eval.json", id="eval"),
])
def test_overflowing_forward_exits_2_naming_both(tmp_path, monkeypatch, capfd, argv):
    # every blob is finite, but experts scaled by 1e120 overflow a linear
    # forward; 8 samples of 128 tokens are two 512-row blocks, so score
    # --jobs 2 overflows in a spawned worker (capfd, not capsys: a
    # RuntimeWarning there goes to the worker's own stderr)
    monkeypatch.chdir(tmp_path)
    model = gen_model(MoEConfig(num_layers=4, experts_per_layer=3, hidden_dim=4, top_k=2,
                                nonlinearity="none"), 1)
    for layer in model.layers:
        layer.experts = 1e120 * layer.experts
    save_model(model, "big")
    assert run_cli(*"gen-data --model big --samples 8 --tokens 128 --seed 2 -o data.tnsr".split()) == 0
    (tmp_path / "mask.json").write_text(json.dumps({"L": 4, "Ne": 3, "keep": [[1, 0, 1]] * 4}))
    capfd.readouterr()
    # a RuntimeWarning would fail this test (see pyproject.toml's filterwarnings)
    assert run_cli(*argv.split()) == 2
    err = capfd.readouterr().err
    assert "model big " in err and "data data.tnsr " in err
    assert "Warning" not in err and "Traceback" not in err
    assert not (tmp_path / argv.split()[-1]).exists()


@pytest.mark.parametrize("jobs", [1, 2])
def test_overflowing_compare_is_usage_error_naming_the_flags(tmp_path, capfd, jobs):
    # capfd, not capsys: a RuntimeWarning in a --jobs worker goes to its own stderr
    argv = (f"compare --seed 0 --trials 2 --jobs {jobs} --expert-scale 1e200 "
            f"--nonlinearity none -o {tmp_path / 'cmp'}")
    assert run_cli(*argv.split()) == 1
    err = capfd.readouterr().err
    assert err.startswith("compare: ")
    for flag in ("--expert-scale", "--router-gain", "--nonlinearity"):
        assert flag in err
    assert "Warning" not in err and "Traceback" not in err
    assert not (tmp_path / "cmp").exists()


def test_bad_manifest_fails_before_the_stage_writes(staged, capsys):
    _truncate(30)(staged / "manifest.json")
    capsys.readouterr()
    assert run_cli(*"plan --graphs graphs --m 1 -o p2 --manifest manifest.json".split()) == 2
    assert "manifest.json" in capsys.readouterr().err
    assert not (staged / "p2").exists()


GEN_DATA_PIB = "gen-data --model model --samples 100000000 --tokens 100000000 --seed 1 -o x"
COMPARE_EIB = "compare --seed 0 --trials 1 --pool 100000000000 --tokens 100000 -o x"
# compare draws its pool, eval, mask, k-means and center seeds from ExperimentConfig's
# defaults; only a script that builds its own config sets them
COMPARE_SEED_FLAGS = "--data-seed 1 --eval-seed 2 --mask-seed 3 --kmeans-seed 4 --centers-seed 5"


@pytest.mark.parametrize(
    "argv, named",
    [
        pytest.param("plan --graphs graphs --m 0 -o x", "--m", id="plan-m"),
        pytest.param("plan --graphs graphs --m two -o x", "--m", id="plan-m-not-a-number"),
        pytest.param("calibrate --data data.tnsr --k 0 --seed 9 -o x", "--k", id="calibrate-k"),
        pytest.param("calibrate --data data.tnsr --k 11 --seed 9 -o x",
                     "--k 11 exceeds the 10 samples", id="calibrate-k-over-samples"),
        pytest.param("prune --graphs graphs --target-retention 1.5 -o x", "--target-retention",
                     id="prune-target-retention"),
        pytest.param("prune --graphs graphs --target-retention 0.5 --m-max 0 -o x", "--m-max",
                     id="prune-m-max"),
        pytest.param("gen-data --model model --samples 0 --tokens 5 --seed 1 -o x", "--samples",
                     id="gen-data-samples"),
        pytest.param("gen-model --layers 1 --experts 4 --dim 8 --topk 2 --seed 1 -o x",
                     "num_layers", id="gen-model-layers"),
        pytest.param("gen-model --layers 3 --experts 4 --dim 8 --topk 5 --seed 1 -o x", "top_k",
                     id="gen-model-topk-over-experts"),
        pytest.param("compare --seed 1 --retention 0 -o x", "--retention", id="compare-retention"),
        pytest.param("compare --seed 1 --k 9 --pool 8 -o x", "calibration_k=9", id="compare-k-over-pool"),
        pytest.param("compare --seed 1 --cluster-radius nan -o x", "cluster_radius",
                     id="compare-cluster-radius-nan"),
        pytest.param("compare --seed 1 --expert-scale nan -o x", "expert_scale",
                     id="compare-expert-scale-nan"),
        pytest.param("compare --seed 1 --router-gain inf -o x", "router_gain",
                     id="compare-router-gain-inf"),
        # a removed subcommand is an unknown one
        pytest.param("selfcheck --trials 3 --seed 2", "invalid choice", id="selfcheck-gone"),
        pytest.param("score --model model --data data.tnsr --jobs 0 -o x", "--jobs", id="score-jobs"),
        pytest.param("plan --graphs graphs --m 1 --jobs -3 -o x", "--jobs", id="plan-jobs"),
        pytest.param("compare --seed 1 --jobs 0 -o x", "--jobs", id="compare-jobs"),
        pytest.param("heatmap --paths paths --outliers o.json -o x", "--outliers",
                     id="heatmap-outliers-gone"),
        pytest.param(f"compare --seed 1 {COMPARE_SEED_FLAGS} -o x",
                     f"unrecognized arguments: {COMPARE_SEED_FLAGS}", id="compare-seed-flags-gone"),
        # sizes that numpy refuses to allocate at once
        pytest.param(GEN_DATA_PIB, "568. PiB", id="gen-data-beyond-memory"),
        pytest.param(COMPARE_EIB, "2.22 EiB", id="compare-beyond-memory"),
    ],
)
def test_bad_flag_value_is_usage_error(staged, capsys, argv, named):
    capsys.readouterr()
    assert run_cli(*argv.split()) == 1
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not (staged / "x").exists()


@pytest.mark.parametrize("argv", [
    pytest.param("gen-model --layers 1 --experts 4 --dim 8 --topk 2 --seed 1 -o x",
                 id="gen-model-config"),
    pytest.param("calibrate --data data.tnsr --k 11 --seed 9 -o x", id="calibrate-k-over-samples"),
    pytest.param("prune --graphs graphs -o x", id="prune-mode"),
    pytest.param("compare --seed 1 --layers 1 -o x", id="compare-moe-config"),
    pytest.param("compare --seed 1 --k 9 --pool 8 -o x", id="compare-config"),
    pytest.param("compare --seed 0 --trials 1 --expert-scale 1e200 --nonlinearity none -o x",
                 id="compare-overflow"),
    pytest.param(GEN_DATA_PIB, id="gen-data-beyond-memory"),
    pytest.param(COMPARE_EIB, id="compare-beyond-memory"),
])
def test_usage_error_is_one_line_led_by_its_subcommand(staged, capsys, argv):
    capsys.readouterr()
    assert run_cli(*argv.split()) == 1
    err = capsys.readouterr().err
    assert err.startswith(argv.split()[0] + ": ") and err.count("\n") == 1, err
    assert not (staged / "x").exists()


@pytest.mark.parametrize("argv", [
    "eval --model model --mask pruned/mask.json --data data.tnsr -o nodir/eval.json",
    "heatmap --paths paths -o nodir/h.csv",
])
def test_unwritable_output_is_usage_error_naming_it(staged, capsys, argv):
    capsys.readouterr()
    assert run_cli(*argv.split()) == 1
    err = capsys.readouterr().err
    assert f"'{argv.split()[-1]}'" in err and ".tmp" not in err and "Traceback" not in err


# (artifact, the stage that reads it); each stage writes only under out/
# and, with --manifest, to manifest.json
READERS = [
    ("model/model.json", "score --model model --data data.tnsr -o out"),
    ("data.tnsr", "calibrate --data data.tnsr --k 4 --seed 9 -o out/calib.json"),
    ("calib.json", "score --model model --data data.tnsr --calibration calib.json -o out"),
    ("graphs/graphs.json", "plan --graphs graphs --m 3 -o out"),
    ("paths/paths.json", "prune --paths paths -o out"),
    ("paths/sample{first:04d}.paths.json", "heatmap --paths paths -o out/h.csv"),
    ("graphs/scores.tnsr", "prune --graphs graphs --target-retention 0.5 -o out"),
    ("pruned/mask.json", "eval --model model --mask pruned/mask.json --data data.tnsr -o out/eval.json"),
    ("manifest.json", "plan --graphs graphs --m 1 -o out --manifest manifest.json"),
]

# stage -> output map of the manifest: dropping one of their entries is a
# different valid manifest, not a damaged one
DATA_MAPS = ("stages", "seeds")


def _key_paths(obj, prefix=()):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield prefix + (key,)
            if key not in DATA_MAPS:
                yield from _key_paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _key_paths(value, prefix + (i,))


def _run_in_copy(base, argv, corrupt=None):
    """Run one stage on a copy of base; (exit code, output bytes)."""
    with tempfile.TemporaryDirectory() as d:
        work = Path(d) / "w"
        shutil.copytree(base, work)
        (work / "out").mkdir()
        os.chdir(work)
        try:
            if corrupt is not None:
                corrupt(work)
            code = run_cli(*argv.split())
            out = {
                str(p.relative_to(work)): p.read_bytes()
                for p in sorted(work.rglob("*"))
                if p.is_file() and (p.parts[len(work.parts)] == "out" or p.name == "manifest.json")
            }
        finally:
            os.chdir(base)
    return code, out


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_artifact_is_exit_0_identical_or_exit_2_named(staged, capsys, data):
    name, argv = data.draw(st.sampled_from(READERS))
    name = name.format(first=_first_id(staged))
    raw = (staged / name).read_bytes()
    keys = list(_key_paths(json.loads(raw))) if name.endswith(".json") else []
    if keys and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(keys))

        def corrupt(work):
            obj = json.loads(raw)
            node = obj
            for k in key[:-1]:
                node = node[k]
            del node[key[-1]]
            (work / name).write_text(json.dumps(obj, indent=2) + "\n")
    else:
        cut = data.draw(st.integers(0, len(raw) - 1))

        def corrupt(work):
            (work / name).write_bytes(raw[:cut])

    _assert_identical_or_named(staged, capsys, name, argv, corrupt)


# (.tnsr blob, the stage that reads it): the model's weights, the tokens,
# and the sample graphs' scores
BLOBS = [
    ("model/weights.tnsr", "score --model model --data data.tnsr -o out"),
    ("data.tnsr", "score --model model --data data.tnsr -o out"),
    ("graphs/scores.tnsr", "plan --graphs graphs --m 3 -o out"),
]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_tnsr_header_bit_flip_is_exit_0_identical_or_exit_2_named(staged, capsys, data):
    name, argv = data.draw(st.sampled_from(BLOBS))
    raw = bytearray((staged / name).read_bytes())
    (rank,) = struct.unpack_from("<I", raw, 5)
    # header: magic, version byte, u32 rank, one u32 per dimension
    bit = data.draw(st.integers(0, 8 * (9 + 4 * rank) - 1))
    raw[bit // 8] ^= 1 << (bit % 8)
    _assert_identical_or_named(staged, capsys, name, argv,
                               lambda work: (work / name).write_bytes(raw))


def _assert_identical_or_named(staged, capsys, name, argv, corrupt):
    """The damage contract: on the damaged copy, argv exits 0 with the
    outputs of the intact copy, or exits 2 naming the damaged file."""
    ref_code, ref_out = _run_in_copy(staged, argv)
    assert ref_code == 0
    capsys.readouterr()
    code, out = _run_in_copy(staged, argv, corrupt)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 0:
        assert out == ref_out
    else:
        assert code == 2 and name in err, err
