import json
import subprocess
import sys

import numpy as np
import pytest

from moe_pathfinder.cli import load_data, load_manifest, main
from moe_pathfinder.errors import FormatError
from moe_pathfinder.pruner import load_mask


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture
def pipeline(tmp_path):
    model = tmp_path / "model"
    data = tmp_path / "data"
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
    assert len(index["samples"]) == 4

    assert run_cli("plan", "--graphs", graphs, "--m", 2, "-o", paths) == 0
    first = json.loads((paths / index["samples"][0]["graph"].replace(".json", ".paths.json")).read_text())
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
    data = tmp_path / "data"
    graphs = tmp_path / "graphs"
    pruned = tmp_path / "pruned"
    assert run_cli(
        "gen-model", "--layers", 6, "--experts", 8, "--dim", 16, "--topk", 2,
        "--seed", 3, "-o", model,
    ) == 0
    assert run_cli(
        "gen-data", "--model", model, "--samples", 1, "--tokens", 4, "--seed", 4, "-o", data
    ) == 0
    assert run_cli("score", "--model", model, "--data", data, "-o", graphs) == 0
    assert run_cli("prune", "--graphs", graphs, "--m", 1, "-o", pruned) == 0
    mask = load_mask(pruned / "mask.json")
    assert mask.retained_total() == 6
    assert np.array_equal(mask.keep.sum(axis=1), np.ones(6))


def test_plan_huge_m_caps_at_path_count(tmp_path):
    model = tmp_path / "model"
    data = tmp_path / "data"
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
    out = tmp / "x"
    assert run_cli("prune", "--graphs", graphs, "--m", 1, "--target-retention", 0.5, "-o", out) == 1
    assert run_cli("prune", "--graphs", graphs, "-o", out) == 1
    assert run_cli("prune", "-o", out) == 1
    paths = tmp / "paths"
    run_cli("plan", "--graphs", graphs, "--m", 1, "-o", paths)
    assert run_cli("prune", "--paths", paths, "--m", 1, "-o", out) == 1


def test_unknown_flag_is_usage_error(capsys):
    assert run_cli("plan", "--bogus", 3) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_command_is_usage_error():
    assert run_cli("frobnicate") == 1


def test_missing_data_is_format_error(tmp_path):
    assert run_cli("calibrate", "--data", tmp_path, "--k", 2, "--seed", 0,
                   "-o", tmp_path / "c.json") == 2


@pytest.mark.parametrize("activation", [[1.0, 2.0], [float("nan"), 1.0, 1.0, 1.0]])
def test_plan_rejects_malformed_graph_vector(pipeline, capsys, activation):
    tmp, model, data = pipeline
    graphs = tmp / "graphs"
    run_cli("score", "--model", model, "--data", data, "-o", graphs)
    graph_file = graphs / "sample0003.json"
    obj = json.loads(graph_file.read_text())
    obj["layers"][1]["activation"] = activation
    graph_file.write_text(json.dumps(obj))
    assert run_cli("plan", "--graphs", graphs, "--m", 2, "-o", tmp / "paths") == 2
    err = capsys.readouterr().err
    assert str(graph_file) in err and "'activation'" in err


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
    assert run_cli("prune", "--graphs", graphs, "--m", 1, "--model", other, "-o", pruned) == 2
    assert str(pruned / "mask.json") in capsys.readouterr().err


def test_unreachable_target_is_invariant_error(pipeline):
    tmp, model, data = pipeline
    graphs = tmp / "graphs"
    run_cli("score", "--model", model, "--data", data, "-o", graphs)
    code = run_cli("prune", "--graphs", graphs, "--target-retention", 1.0,
                   "--m-max", 1, "-o", tmp / "p")
    assert code == 3


def test_selfcheck_passes(capsys):
    assert run_cli("selfcheck", "--trials", 100, "--seed", 1) == 0
    assert "oracle: 100/100" in capsys.readouterr().out


def test_stage_rerun_is_byte_identical(pipeline):
    tmp, model, data = pipeline
    graphs = tmp / "graphs"
    run_cli("score", "--model", model, "--data", data, "-o", graphs)
    before = {p.name: p.read_bytes() for p in graphs.iterdir()}
    run_cli("score", "--model", model, "--data", data, "-o", graphs)
    after = {p.name: p.read_bytes() for p in graphs.iterdir()}
    assert before == after


def test_score_jobs_parallel_identical(pipeline):
    tmp, model, data = pipeline
    a, b = tmp / "g1", tmp / "g2"
    run_cli("score", "--model", model, "--data", data, "-o", a)
    run_cli("score", "--model", model, "--data", data, "--jobs", 2, "-o", b)
    files_a = {p.name: p.read_bytes() for p in a.iterdir()}
    files_b = {p.name: p.read_bytes() for p in b.iterdir()}
    assert files_a == files_b


def test_jobs_env_override(pipeline, monkeypatch):
    tmp, model, data = pipeline
    monkeypatch.setenv("MOE_PATHFINDER_JOBS", "2")
    out = tmp / "genv"
    assert run_cli("score", "--model", model, "--data", data, "-o", out) == 0
    ref = tmp / "gref"
    monkeypatch.delenv("MOE_PATHFINDER_JOBS")
    run_cli("score", "--model", model, "--data", data, "-o", ref)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == {
        p.name: p.read_bytes() for p in ref.iterdir()
    }


def test_manifest_accumulates_and_validates(pipeline):
    tmp, model, data = pipeline
    manifest = tmp / "manifest.json"
    graphs = tmp / "graphs"
    run_cli("score", "--model", model, "--data", data, "-o", graphs, "--manifest", manifest)
    run_cli("plan", "--graphs", graphs, "--m", 1, "-o", tmp / "paths", "--manifest", manifest)
    loaded = load_manifest(manifest)
    assert set(loaded.stages) == {"score", "plan"}

    obj = json.loads(manifest.read_text())
    obj["stages"]["score"] = str(tmp / "gone")
    manifest.write_text(json.dumps(obj))
    with pytest.raises(FormatError, match="missing"):
        load_manifest(manifest)


def test_compare_small_run(tmp_path):
    out = tmp_path / "cmp"
    code = run_cli(
        "compare", "--layers", 2, "--experts", 3, "--dim", 6, "--topk", 1,
        "--seed", 0, "--trials", 1, "--pool", 6, "--tokens", 4, "--k", 2,
        "--eval-samples", 2, "--random-masks", 2, "--retention", 0.5, "-o", out,
    )
    assert code == 0
    assert (out / "comparison.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_seeds"] == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["moe"]["num_layers"] == 2


def test_gen_data_roundtrip_via_load(pipeline):
    tmp, model, data = pipeline
    samples = load_data(data)
    assert len(samples) == 10
    assert samples[0].tokens.shape == (5, 8)


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "moe_pathfinder.cli", "selfcheck", "--trials", "3", "--seed", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "oracle: 3/3" in proc.stdout
