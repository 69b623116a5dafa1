"""Golden artifact bytes for the README pipeline and one desk comparison seed.

The digests pin the graph files, path sets, masks, reports, heatmaps and
comparison rows.  The mask, report, heatmap, eval and comparison digests
date from the prefix-DP planner that the best-first enumerator replaced.
The graph digests were taken before path weights became sums of per-node
scores, and that change left them alone.  It re-captured the ten path-set
digests that moved: summing one score per node rounds differently from
summing clamped log edges, so 47 of the 136 stored weights moved, by at most
3.2e-16 relative, and no expert sequence changed.  The digests hold on
x86-64 with numpy's bundled OpenBLAS; another BLAS may round the model's
matrix products differently and move every float.
"""

import hashlib

from moe_pathfinder.cli import main

GOLDEN = {
    "compare/comparison.csv": "a1e34cb7ac53f65c9828d21203c2b78e66435b7ba35cc57f2c21c16c6c2f9dee",
    "compare-no-importance/comparison.csv": "7c3e8e40d12e89f48a9f9a605cadf3e78a9398b62090b7a42cfcaf978279038a",
    "compare-no-transition/comparison.csv": "67bec1b7e63f13dc746fa7ddf59fd2588a4145d924fd42275616d6718d28e583",
    "eval.json": "6b89921f503dd7a3a7367a446cdba04acc0316d43fec3b1e05cff010bfd6def4",
    "graphs/graphs.json": "339dc1671888604387163ec906e1a3cbd394cec06c9d01b3cc17903ae0285938",
    "graphs/sample0005.json": "2a0389d810b018d06abbd8123d5fe507060af319c88a9cf146fc49f918c7aea1",
    "graphs/sample0015.json": "a494a362e7a5b95479515dc7e002c8e02b13e9014acc342042d5f7d6e1ad64fd",
    "graphs/sample0021.json": "8f5430e5ce57b1f8fc4c19c4d3e683b294cf5351b346024cea532551483b2c41",
    "graphs/sample0032.json": "7523ad88c9b7c91784bcfaa9e17fc843aa44bf70ff93067c953e6e1d42b2077c",
    "graphs/sample0036.json": "5e9124a8961f72640c49bf65b7331981388c1060c9ac693c772b603888e1384b",
    "graphs/sample0041.json": "ef976e26d7932fc086d13b6c66b27344dce682949338143b05a809505e6da78e",
    "graphs/sample0050.json": "bc4a44b3f4c841c5b295162144895389a97a7cb7115f042221dab70a6ad6ff5e",
    "graphs/sample0063.json": "c581229a7dc3a87159462541e95f144ddd66047790e31ae3151dc85bf96e8679",
    "heatmap1.csv": "ffec49c1c3aa4b1bd1393da2a98ca7c0ac0779f0835d089f9f653d06b6474c75",
    "heatmap16.csv": "0323e3978ef5869bca6e6ded95b73f1f72b909ff2353bebaaf40cebb220b2113",
    "paths1/paths.json": "53b621d2e7ff88b2ff3a3890ad821eb23ca3cfc86849767009574e423b381a56",
    "paths1/sample0005.paths.json": "e66fae29ea369e4a309638184f7b4041cfad498b44a27b92c769f34536e831fd",
    "paths1/sample0015.paths.json": "686b83e163fd1190e613c0f3ec5128418786f77e971723b4ed663bafcd1e9a0d",
    "paths1/sample0021.paths.json": "865187f33a362ad4abe906cea18b273da00f5da1da6a502799c1cf6dbe82dcf8",
    "paths1/sample0032.paths.json": "db0e6f85e442f7b631a8f6044df5cdb583805d13152e1c6e68562467a6cdf5b4",
    "paths1/sample0036.paths.json": "d680a24b55f8764673d1cfe9c9a47dbb88bb26cdcbf6608f7a09787e9e82f567",
    "paths1/sample0041.paths.json": "307e5b1d5214ff6151fc18af52cc711715831ca1b1f04dc5a4aba3d56f9aa8b9",
    "paths1/sample0050.paths.json": "447b7c61108b8b5be3a47b0f82499fc2016852e6847335881302637f1feed855",
    "paths1/sample0063.paths.json": "aec6adfc75156504aeb1ee1c2654eec32e219fb76d03ba04ff986fb87ee4d2b3",
    "paths16/paths.json": "f25660964a1ad844a21dff8a928b0d739738dbbe44c012dce0f84a730388e738",
    "paths16/sample0005.paths.json": "9679d6b28af3800e5db09fb9fc6b239de03f42c217b2756a46e61ac913738f9e",
    "paths16/sample0015.paths.json": "c271e9ed77d0d2e9bdfe7991aa1e4aec407111f55f3dd2d1ec9cf66def2fdbe4",
    "paths16/sample0021.paths.json": "ff6c6c701bfb26e0a07a801e89e5392a9e6d311d41de03ad8c2731b06ef02bfd",
    "paths16/sample0032.paths.json": "2d48a7f7eb8bf85af01be8f18c727fb1cab0dcc8037e7e073f8a9d5936821480",
    "paths16/sample0036.paths.json": "1fc7105fdd0af398e98cf16db94d34e66b4f18b94787582e11c888b4609b7eda",
    "paths16/sample0041.paths.json": "04213d5c4fb8c6d9f3080ff79843299ba189f16265a641b3cd452dcf09382afd",
    "paths16/sample0050.paths.json": "85272746669323a1b64f514ec6cc734a9d0db2ec03641122a764e9b533889902",
    "paths16/sample0063.paths.json": "33cfb4783d9bde0873423de1f4620fb5d00a3cd0b7487167038814464398b9d5",
    "pruned/mask.json": "58af2cdc5c457eeaa351a2a6f67f37d1094d069381fdfb0a2edfa56b1fc5b026",
    "pruned/report.json": "127281b4ca8c46d492b8376b488fa2b1919bcd93c7fe078977a1a6c8b1f6f7e1",
    "pruned1/mask.json": "3ffd35ecdc4ede282764fcb9b3beb78fa2eb4e58fed2f72d528323e40c98ff64",
    "pruned1/report.json": "12be44a32ab37116d2f7bf857b8df8ec8eda864ee5d562bfa893ba3f9915f40d",
    "pruned16/mask.json": "480eeefe61f7c28a68938da8ba84f5795624700eaa8d848149d363f72f63b93c",
    "pruned16/report.json": "88a1bbd3a696612e890c418d81bf1d0c86304b71d57f77663c0991f4c32384f1",
}


def run_cli(*args):
    assert main([str(a) for a in args]) == 0


def artifact_digests(tmp) -> dict[str, str]:
    """Run the README pipeline, a top-16 plan, a target-retention search,
    and one desk comparison seed with each signal set; return the sha256 of
    each artifact, keyed by its path relative to tmp."""
    model, data, calib = tmp / "model", tmp / "data", tmp / "calib.json"
    graphs, pruned = tmp / "graphs", tmp / "pruned"
    run_cli("gen-model", "--layers", 6, "--experts", 8, "--dim", 32, "--topk", 2,
            "--seed", 7, "-o", model)
    run_cli("gen-data", "--model", model, "--samples", 64, "--tokens", 32, "--seed", 8,
            "-o", data)
    run_cli("calibrate", "--data", data, "--k", 8, "--seed", 9, "-o", calib)
    run_cli("score", "--model", model, "--data", data, "--calibration", calib, "-o", graphs)
    for m in (1, 16):
        paths = tmp / f"paths{m}"
        run_cli("plan", "--graphs", graphs, "--m", m, "-o", paths)
        run_cli("prune", "--paths", paths, "--model", model, "-o", tmp / f"pruned{m}")
        run_cli("heatmap", "--paths", paths, "-o", tmp / f"heatmap{m}.csv")
    run_cli("eval", "--model", model, "--mask", tmp / "pruned1" / "mask.json",
            "--data", data, "-o", tmp / "eval.json")
    run_cli("prune", "--graphs", graphs, "--target-retention", 0.5, "-o", pruned)
    run_cli("compare", "--seed", 1, "--trials", 1, "-o", tmp / "compare")
    for flag in ("--no-importance", "--no-transition"):
        run_cli("compare", "--seed", 1, "--trials", 1, flag, "-o", tmp / f"compare{flag[1:]}")

    wanted = [p for p in sorted(tmp.rglob("*")) if p.is_file()]
    wanted = [
        p for p in wanted
        if p.suffix == ".csv" or p.name in ("mask.json", "report.json", "eval.json")
        or p.name.endswith(".paths.json") or p.name == "paths.json"
        or (p.parent.name == "graphs" and p.suffix == ".json")
    ]
    return {
        p.relative_to(tmp).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in wanted
    }


def test_planner_artifacts_match_golden_bytes(tmp_path):
    assert artifact_digests(tmp_path) == GOLDEN
