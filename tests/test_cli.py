import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from moe_pathfinder.cli import load_data, main
from moe_pathfinder.model import MoEConfig, gen_model, save_model
from moe_pathfinder.numerics import save_tensor
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


def test_manifest_accumulates_and_validates(pipeline):
    tmp, model, data = pipeline
    manifest = tmp / "manifest.json"
    graphs = tmp / "graphs"
    run_cli("score", "--model", model, "--data", data, "-o", graphs, "--manifest", manifest)
    run_cli("plan", "--graphs", graphs, "--m", 1, "-o", tmp / "paths", "--manifest", manifest)
    obj = json.loads(manifest.read_text())
    assert list(obj) == ["tool_version", "stages", "seeds"]
    assert set(obj["stages"]) == {"score", "plan"}


def _compare_rows(out):
    """The per-seed rows of compare's printed table and its footer line."""
    lines = out.splitlines()
    assert lines[0].split() == ["seed", "pathfinder", "rand", "median", "ratio", "win"]
    blank = lines.index("")
    return [line.split() for line in lines[1:blank]], lines[blank + 1]


def test_compare_small_run(tmp_path, capsys):
    tiny = ("compare --layers 2 --experts 3 --dim 6 --topk 1 --seed 0 --pool 6 --tokens 4 "
            "--k 2 --eval-samples 2 --random-masks 2").split()
    out = tmp_path / "cmp"
    capsys.readouterr()
    assert run_cli(*tiny, "--trials", 2, "--retention", 0.5, "-o", out) == 0
    # every file written atomically: the three outputs and no leftover .tmp
    assert sorted(p.name for p in out.iterdir()) == [
        "comparison.csv", "manifest.json", "summary.json",
    ]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_seeds"] == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["moe"]["num_layers"] == 2
    rows, footer = _compare_rows(capsys.readouterr().out)
    ratios = []
    for row, s in zip(rows, summary["per_seed"], strict=True):
        ratios.append(s["pathfinder_error"] / s["random_median"])
        assert row == [
            str(s["model_seed"]), f"{s['pathfinder_error']:.4e}", f"{s['random_median']:.4e}",
            f"{ratios[-1]:.2f}", "yes" if s["win"] else "no",
        ]
    mean_error = np.mean([s["pathfinder_error"] for s in summary["per_seed"]])
    assert footer == (
        f"pathfinder wins {summary['wins']}/2 seeds -> {out} "
        f"(mean error {mean_error:.4e}, mean ratio {np.mean(ratios):.2f})"
    )

    # full retention: every mask keeps every expert, so the random median is 0
    assert run_cli(*tiny, "--trials", 1, "--retention", 1, "-o", tmp_path / "full") == 0
    rows, footer = _compare_rows(capsys.readouterr().out)
    assert rows == [["0", "0.0000e+00", "0.0000e+00", "nan", "yes"]]
    assert footer.endswith("(mean error 0.0000e+00, mean ratio nan)")


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


# Every stage run from the pipeline fixture's directory with relative paths,
# so manifests hold no temporary-directory names and copies compare by bytes.
STAGES = [
    "calibrate --data data --k 4 --seed 9 -o calib.json --manifest manifest.json",
    "score --model model --data data --calibration calib.json -o graphs --manifest manifest.json",
    "plan --graphs graphs --m 2 -o paths --manifest manifest.json",
    "prune --paths paths -o pruned --manifest manifest.json",
]


@pytest.fixture
def staged(pipeline, monkeypatch):
    tmp = pipeline[0]
    monkeypatch.chdir(tmp)
    for argv in STAGES:
        assert run_cli(*argv.split()) == 0
    (tmp / "outliers.json").write_text("[[0, 1], [2, 3]]\n")
    return tmp


def _first_id(staged):
    return f'{json.loads((staged / "graphs" / "graphs.json").read_text())["samples"][0]["id"]:04d}'


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


def _nan_last_entry(p):
    p.write_bytes(p.read_bytes()[:-8] + struct.pack("<d", float("nan")))


def _empty_data(*shape):
    # an empty tokens blob with a data.json that agrees with its shape
    def apply(p):
        save_tensor(p, np.zeros(shape))
        _edit(lambda o: o.update(n_samples=shape[0], tokens_per_sample=shape[1]))(
            p.parent / "data.json")

    return apply


def _pruned_model(_):
    # writes pruned/pruned-model next to its mask, as a README-style run does
    assert run_cli(*"prune --graphs graphs --target-retention 0.5 --model model -o pruned".split()) == 0


EVAL = "eval --model model --mask pruned/mask.json --data data -o eval.json"
SCORE = "score --model model --data data -o g2"
SCORE_CALIB = "score --model model --data data --calibration calib.json -o g2"


@pytest.mark.parametrize(
    "name, corrupt, argv",
    [
        pytest.param("pruned/mask.json", _truncate(30), EVAL, id="mask-truncated"),
        pytest.param("graphs/graphs.json", _replace({"num_layers": 3}),
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
        pytest.param("data/data.json", _edit(lambda o: o.pop("blob")),
                     "calibrate --data data --k 2 --seed 0 -o c2.json", id="data-no-blob"),
        pytest.param("manifest.json", _truncate(30),
                     "plan --graphs graphs --m 1 -o p2 --manifest manifest.json",
                     id="manifest-truncated"),
        pytest.param("model/layer1.expert2.tnsr", Path.unlink, EVAL, id="blob-missing"),
        pytest.param("model/layer1.expert2.tnsr",
                     lambda p: p.write_bytes(p.read_bytes() + bytes(8)), EVAL,
                     id="blob-trailing-bytes"),
        pytest.param("model/layer0.router.tnsr", _nan_last_entry,
                     "score --model model --data data -o g2", id="blob-nan"),
        pytest.param("graphs/graphs.json", _edit(lambda o: o.update(experts_per_layer=5)),
                     "prune --graphs graphs --m 1 -o pr2", id="graph-index-disagrees"),
        pytest.param("paths/sample{first}.paths.json",
                     _edit(lambda o: o["paths"][0].update(experts=[0, 4, 1])),
                     "heatmap --paths paths -o h.csv", id="path-outside-index"),
        pytest.param("outliers.json", _replace([[3, 0]]),
                     "heatmap --paths paths --outliers outliers.json -o h.csv",
                     id="outlier-outside-index"),
        pytest.param("nosuch", lambda p: None, "prune --paths paths --model nosuch -o pr2",
                     id="prune-model-missing"),
        pytest.param("pruned/pruned-model", _pruned_model,
                     "score --model pruned/pruned-model --data data -o g2", id="pruned-model-score"),
        pytest.param("pruned/pruned-model", _pruned_model,
                     "eval --model pruned/pruned-model --mask pruned/mask.json --data data "
                     "-o eval.json", id="pruned-model-eval"),
        pytest.param("pruned/pruned-model", _pruned_model,
                     "prune --graphs graphs --m 1 --model pruned/pruned-model -o pr2",
                     id="pruned-model-prune"),
        *[
            pytest.param(name, corrupt, argv, id=f"{case}-{argv.split()[0]}")
            for name, corrupt, case in [
                ("data/tokens.tnsr", _empty_data(10, 0, 8), "data-zero-tokens"),
                ("data/tokens.tnsr", _empty_data(0, 5, 8), "data-zero-samples"),
                ("data/data.json", _edit(lambda o: o.update(tokens_per_sample=6)),
                 "data-manifest-disagrees"),
            ]
            for argv in (EVAL, SCORE)
        ],
    ],
)
def test_bad_artifact_exits_2_naming_it(staged, capsys, name, corrupt, argv):
    name = name.format(first=_first_id(staged))
    corrupt(staged / name)
    capsys.readouterr()
    assert run_cli(*argv.split()) == 2
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err
    argv = argv.split()
    assert not (staged / argv[argv.index("-o") + 1]).exists()


def test_gen_data_runs_on_a_pruned_model(staged):
    _pruned_model(staged / "pruned" / "pruned-model")
    assert run_cli(*"gen-data --model pruned/pruned-model --samples 2 --tokens 3 --seed 1 -o d2".split()) == 0
    assert len(load_data(staged / "d2")) == 2


@pytest.mark.parametrize("argv", [
    pytest.param("score --model wide --data data -o g2", id="score"),
    pytest.param("eval --model wide --mask pruned/mask.json --data data -o eval2.json", id="eval"),
])
def test_data_width_mismatch_exits_2_naming_both(staged, capsys, argv):
    assert run_cli(*"gen-model --layers 3 --experts 4 --dim 16 --topk 2 --seed 7 -o wide".split()) == 0
    capsys.readouterr()
    assert run_cli(*argv.split()) == 2
    err = capsys.readouterr().err
    assert "data data " in err and "model wide " in err and "Traceback" not in err
    assert not (staged / argv.split()[-1]).exists()


@pytest.mark.parametrize("argv", [
    pytest.param("score --model big --data data -o g", id="score"),
    pytest.param("score --model big --data data --jobs 2 -o g", id="score-jobs"),
    pytest.param("eval --model big --mask mask.json --data data -o eval.json", id="eval"),
])
def test_overflowing_forward_exits_2_naming_both(tmp_path, monkeypatch, capsys, argv):
    # every blob is finite, but experts scaled by 1e120 overflow a linear forward
    monkeypatch.chdir(tmp_path)
    model = gen_model(MoEConfig(num_layers=4, experts_per_layer=3, hidden_dim=4, top_k=2,
                                nonlinearity="none"), 1)
    for layer in model.layers:
        layer.experts = [1e120 * w for w in layer.experts]
    save_model(model, "big")
    assert run_cli(*"gen-data --model big --samples 4 --tokens 3 --seed 2 -o data".split()) == 0
    (tmp_path / "mask.json").write_text(json.dumps({"L": 4, "Ne": 3, "keep": [[1, 0, 1]] * 4}))
    capsys.readouterr()
    # a RuntimeWarning would fail this test (see pyproject.toml's filterwarnings)
    assert run_cli(*argv.split()) == 2
    err = capsys.readouterr().err
    assert "model big " in err and "data data " in err and "Traceback" not in err
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


@pytest.mark.parametrize(
    "argv, named",
    [
        pytest.param("plan --graphs graphs --m 0 -o x", "--m", id="plan-m"),
        pytest.param("plan --graphs graphs --m two -o x", "--m", id="plan-m-not-a-number"),
        pytest.param("calibrate --data data --k 0 --seed 9 -o x", "--k", id="calibrate-k"),
        pytest.param("calibrate --data data --k 11 --seed 9 -o x",
                     "--k 11 exceeds the 10 samples", id="calibrate-k-over-samples"),
        pytest.param("prune --graphs graphs --target-retention 1.5 -o x", "--target-retention",
                     id="prune-target-retention"),
        pytest.param("prune --graphs graphs --target-retention 0.5 --m-max 0 -o x", "--m-max",
                     id="prune-m-max"),
        pytest.param("gen-data --model model --samples 0 --tokens 5 --seed 1 -o x", "--samples",
                     id="gen-data-samples"),
        pytest.param("compare --seed 1 --retention 0 -o x", "--retention", id="compare-retention"),
        pytest.param("compare --seed 1 --k 9 --pool 8 -o x", "calibration_k=9", id="compare-k-over-pool"),
        pytest.param("compare --seed 1 --cluster-radius nan -o x", "cluster_radius",
                     id="compare-cluster-radius-nan"),
        pytest.param("compare --seed 1 --expert-scale nan -o x", "expert_scale",
                     id="compare-expert-scale-nan"),
        pytest.param("compare --seed 1 --router-gain inf -o x", "router_gain",
                     id="compare-router-gain-inf"),
        pytest.param("selfcheck --trials 0 --seed 1", "--trials", id="selfcheck-trials"),
    ],
)
def test_bad_flag_value_is_usage_error(staged, capsys, argv, named):
    capsys.readouterr()
    assert run_cli(*argv.split()) == 1
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not (staged / "x").exists()


@pytest.mark.parametrize("argv", [
    "eval --model model --mask pruned/mask.json --data data -o nodir/eval.json",
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
    ("model/model.json", "score --model model --data data -o out"),
    ("data/data.json", "calibrate --data data --k 4 --seed 9 -o out/calib.json"),
    ("calib.json", "score --model model --data data --calibration calib.json -o out"),
    ("graphs/graphs.json", "plan --graphs graphs --m 3 -o out"),
    ("graphs/sample{first}.json", "plan --graphs graphs --m 3 -o out"),
    ("paths/paths.json", "prune --paths paths -o out"),
    ("paths/sample{first}.paths.json", "heatmap --paths paths --outliers outliers.json -o out/h.csv"),
    ("outliers.json", "heatmap --paths paths --outliers outliers.json -o out/h.csv"),
    ("pruned/mask.json", "eval --model model --mask pruned/mask.json --data data -o out/eval.json"),
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
    keys = list(_key_paths(json.loads(raw)))
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
