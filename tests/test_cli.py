import argparse
import json
import os
import re
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

from moe_pathfinder.cli import build_parser, load_data, main
from moe_pathfinder.model import MoEConfig, gen_model, save_model
from moe_pathfinder.numerics import load_tensor, save_tensor
from moe_pathfinder.planner import load_pathset
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
    blob = Path(index["samples"][0]["graph"])
    assert blob.suffix == ".tnsr" and load_tensor(graphs / blob).shape == (3, 4, 4)

    assert run_cli("plan", "--graphs", graphs, "--m", 2, "-o", paths) == 0
    first = json.loads((paths / f"{blob.stem}.paths.json").read_text())
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
    model, data = tmp_path / "model", tmp_path / "data"
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


# layer 1's activation vector with a NaN entry, or the activation field
# dropped from every layer, which leaves a blob of 3 fields
@pytest.mark.parametrize("activation", [[float("nan"), 1.0, 1.0, 1.0], []])
def test_plan_rejects_malformed_graph_vector(pipeline, capsys, activation):
    tmp, model, data = pipeline
    graphs = tmp / "graphs"
    run_cli("score", "--model", model, "--data", data, "-o", graphs)
    graph_file = graphs / "sample0003.tnsr"
    scores = load_tensor(graph_file)
    if activation:
        scores[1, 0] = activation
    else:
        scores = scores[:, 1:]
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
    data = tmp / "data-blocks"
    run_cli("gen-data", "--model", model, "--samples", 40, "--tokens", 32, "--seed", 8, "-o", data)
    _score_jobs_1_and_2(model, data, tmp)


def test_calibration_score_plans_the_paths_of_a_full_score(tmp_path):
    # a graph's floats depend on the block its sample is scored in: the 8
    # calibration samples share one block, the full run's 40 are three (at
    # this width some floats differ in the last place)
    tmp = tmp_path
    model, data, calib = tmp / "model", tmp / "data", tmp / "calib.json"
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
    for i in ids:
        (gc, pc), (gf, pf) = runs["calib"], runs["full"]
        a, b = (load_tensor(g / f"sample{i:04d}.tnsr") for g in (gc, gf))
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)
        a, b = (load_pathset(p / f"sample{i:04d}.paths.json") for p in (pc, pf))
        assert [p.experts for p in a.paths] == [p.experts for p in b.paths]


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


GRAPH_FIELDS = ("activation", "routing", "recon_loss", "importance")


def _naming(*texts, corrupt):
    # corrupt, and the error must also hold each of texts
    def apply(p):
        corrupt(p)

    apply.names = texts
    return apply


def _graph_entry(field, value):
    # sets the first expert's entry of layer 1's score vector for field
    def apply(p):
        scores = load_tensor(p)
        scores[1, GRAPH_FIELDS.index(field), 0] = value
        save_tensor(p, scores)

    return _naming(f"layer 1 field '{field}'", corrupt=apply)


def _old_graph_layout(p):
    # every graph as the JSON file it was before graphs became blobs, and
    # graphs.json listing those files
    for blob in p.parent.glob("sample*.tnsr"):
        scores = load_tensor(blob)
        blob.with_suffix(".json").write_text(json.dumps({
            "num_layers": scores.shape[0],
            "experts_per_layer": scores.shape[2],
            "layers": [dict(zip(GRAPH_FIELDS, layer.tolist())) for layer in scores],
        }))
        blob.unlink()
    index = p.parent / "graphs.json"
    index.write_text(index.read_text().replace(".tnsr", ".json"))


def _model_config(**fields):
    return _edit(lambda o: o["config"].update(fields))


def _nan_last_entry(p):
    p.write_bytes(p.read_bytes()[:-8] + struct.pack("<d", float("nan")))


def _empty_data(*shape):
    # an empty tokens blob with a data.json that agrees with its shape
    def apply(p):
        save_tensor(p, np.zeros(shape))
        _edit(lambda o: o.update(n_samples=shape[0], tokens_per_sample=shape[1]))(
            p.parent / "data.json")

    return apply


def _old_model_layout(p):
    # model.json as written when each expert had a blob of its own
    def old(o):
        o["config"]["layer_expert_counts"] = None
        for l, entry in enumerate(o["layers"]):
            entry["experts"] = [f"layer{l}.expert{i}.tnsr" for i in range(4)]

    _edit(old)(p)


def _resize_experts(delta, router=False):
    # drops the last expert, or repeats the first; with router=True the
    # router blob of the layer gets the same rows
    def resize(w):
        return w[:delta] if delta < 0 else np.concatenate([w, w[:delta]])

    def apply(p):
        names = [p, p.with_name(p.name.replace("experts", "router"))] if router else [p]
        for name in names:
            save_tensor(name, resize(load_tensor(name)))

    return apply


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
        pytest.param("pruned/mask.json", _edit(lambda o: o["keep"][0].__setitem__(0, True)),
                     EVAL, id="mask-keep-bool"),
        pytest.param("data/data.json", _edit(lambda o: o.pop("blob")),
                     "calibrate --data data --k 2 --seed 0 -o c2.json", id="data-no-blob"),
        pytest.param("manifest.json", _truncate(30),
                     "plan --graphs graphs --m 1 -o p2 --manifest manifest.json",
                     id="manifest-truncated"),
        pytest.param("model/layer1.experts.tnsr", Path.unlink, EVAL, id="blob-missing"),
        pytest.param("model/layer1.experts.tnsr",
                     lambda p: p.write_bytes(p.read_bytes() + bytes(8)), EVAL,
                     id="blob-trailing-bytes"),
        pytest.param("model/layer0.router.tnsr", _nan_last_entry,
                     "score --model model --data data -o g2", id="blob-nan"),
        # a layer's expert count is its router's row count, at most N_e
        pytest.param("model/model.json", _old_model_layout, SCORE, id="model-per-expert-blobs"),
        pytest.param("model/layer1.experts.tnsr", _resize_experts(-1), SCORE,
                     id="experts-fewer-than-router-rows"),
        pytest.param("model/layer1.experts.tnsr", _resize_experts(+1, router=True), SCORE,
                     id="experts-more-than-n-e"),
        pytest.param("graphs/graphs.json", _edit(lambda o: o.update(experts_per_layer=5)),
                     "prune --graphs graphs --target-retention 0.5 -o pr2",
                     id="graph-index-disagrees"),
        pytest.param("paths/sample{first}.paths.json",
                     _edit(lambda o: o["paths"][0].update(experts=[0, 4, 1])),
                     "heatmap --paths paths -o h.csv", id="path-outside-index"),
        pytest.param("outliers.json", _replace([[3, 0]]),
                     "heatmap --paths paths --outliers outliers.json -o h.csv",
                     id="outlier-outside-index"),
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
        pytest.param("paths/sample{first}.paths.json",
                     _edit(lambda o: o["paths"][0].update(experts=[0, 2.5, 1])),
                     "heatmap --paths paths -o h.csv", id="path-expert-float"),
        pytest.param("paths/sample{first}.paths.json",
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
        pytest.param("graphs/graphs.json", _edit(lambda o: o.update(samples=[])),
                     "plan --graphs graphs --m 2 -o p2", id="graph-index-samples-empty"),
        pytest.param("graphs/graphs.json", _edit(lambda o: o["samples"].append(o["samples"][0])),
                     "prune --graphs graphs --target-retention 0.5 -o pr2",
                     id="graph-index-id-repeated"),
        pytest.param("paths/paths.json", _edit(lambda o: o.update(samples=[])),
                     "prune --paths paths -o pr2", id="path-index-samples-empty"),
        pytest.param("paths/paths.json", _edit(lambda o: o["samples"].append(o["samples"][1])),
                     "heatmap --paths paths -o h.csv", id="path-index-id-repeated"),
        # graph score vectors are nonnegative, and routing preferences at most 1
        pytest.param("graphs/sample{first}.tnsr", _graph_entry("routing", -1.0),
                     "plan --graphs graphs --m 2 -o p2", id="graph-routing-negative"),
        pytest.param("graphs/sample{first}.tnsr", _graph_entry("routing", 1.5),
                     "prune --graphs graphs --target-retention 0.5 -o pr2",
                     id="graph-routing-above-1"),
        pytest.param("graphs/sample{first}.tnsr", _graph_entry("recon_loss", -3.0),
                     "plan --graphs graphs --m 2 -o p2", id="graph-recon-loss-negative"),
        pytest.param("graphs/sample{first}.tnsr", _graph_entry("activation", -0.5),
                     "prune --graphs graphs --target-retention 0.5 -o pr2",
                     id="graph-activation-negative"),
        pytest.param("graphs/sample{first}.tnsr", _graph_entry("importance", -1e-9),
                     "plan --graphs graphs --m 2 -o p2", id="graph-importance-negative"),
        # a graph directory written before graphs became blobs; rerunning
        # score rewrites it
        pytest.param("graphs/sample{first}.json", _old_graph_layout,
                     "plan --graphs graphs --m 2 -o p2", id="graph-json-layout"),
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
                     _naming("(4, 8)", "hidden_dim 1000000",
                             corrupt=_model_config(hidden_dim=10**6)),
                     SCORE, id="model-hidden-dim-disagrees"),
        # an index names files in its own directory only
        pytest.param("model/model.json",
                     _member_outside("router", "other", entry=lambda o: o["layers"][0]),
                     SCORE, id="model-member-outside-dir"),
        pytest.param("data/data.json", _member_outside("blob", "data", entry=lambda o: o),
                     "calibrate --data data --k 2 --seed 0 -o c2.json",
                     id="data-member-outside-dir"),
        pytest.param("graphs/graphs.json", _member_outside("graph", "g"),
                     "plan --graphs graphs --m 2 -o p2", id="graph-member-outside-dir"),
        pytest.param("paths/paths.json", _member_outside("paths"),
                     "heatmap --paths paths -o h.csv", id="path-member-absolute"),
        pytest.param("pruned/pruned-model", _pruned_model,
                     "score --model pruned/pruned-model --data data -o g2", id="pruned-model-score"),
        pytest.param("pruned/pruned-model", _pruned_model,
                     "eval --model pruned/pruned-model --mask pruned/mask.json --data data "
                     "-o eval.json", id="pruned-model-eval"),
        pytest.param("pruned/pruned-model", _pruned_model,
                     "prune --paths paths --model pruned/pruned-model -o pr2",
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
    assert all(text in err for text in getattr(corrupt, "names", ())), err
    argv = argv.split()
    assert not (staged / argv[argv.index("-o") + 1]).exists()


def test_gen_data_runs_on_a_pruned_model(staged):
    _pruned_model(staged / "pruned" / "pruned-model")
    assert run_cli(*"gen-data --model pruned/pruned-model --samples 2 --tokens 3 --seed 1 -o d2".split()) == 0
    assert len(load_data(staged / "d2")) == 2


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


def test_prune_model_rerun_leaves_no_stale_blob(staged):
    for m in (16, 1):
        assert run_cli(*f"plan --graphs graphs --m {m} -o p{m}".split()) == 0
        assert run_cli(*f"prune --paths p{m} --model model -o pr2".split()) == 0
    out = staged / "pr2" / "pruned-model"
    layers = json.loads((out / "model.json").read_text())["layers"]
    listed = {layer["router"] for layer in layers} | {layer["experts"] for layer in layers}
    assert {p.name for p in out.iterdir()} == listed | {"model.json", "remap.json"}


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
        layer.experts = 1e120 * layer.experts
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
        pytest.param("score --model model --data data --jobs 0 -o x", "--jobs", id="score-jobs"),
        pytest.param("plan --graphs graphs --m 1 --jobs -3 -o x", "--jobs", id="plan-jobs"),
        pytest.param("compare --seed 1 --jobs 0 -o x", "--jobs", id="compare-jobs"),
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

    _assert_identical_or_named(staged, capsys, name, argv, corrupt)


# (.tnsr blob, the stage that reads it): each layer's router and experts,
# the tokens, and one sample graph
BLOBS = [
    *((f"model/layer{l}.{kind}.tnsr", "score --model model --data data -o out")
      for l in range(3) for kind in ("router", "experts")),
    ("data/tokens.tnsr", "score --model model --data data -o out"),
    ("graphs/sample{first}.tnsr", "plan --graphs graphs --m 3 -o out"),
]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_tnsr_header_bit_flip_is_exit_0_identical_or_exit_2_named(staged, capsys, data):
    name, argv = data.draw(st.sampled_from(BLOBS))
    name = name.format(first=_first_id(staged))
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
