"""Golden artifact bytes for the README pipeline and one desk comparison seed.

The digests were taken from the prefix-DP planner that the best-first
enumerator replaced, so they pin the planner's output bytes (path sets,
masks, reports, heatmaps, comparison rows) across that change.  They hold on
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
    "heatmap1.csv": "ffec49c1c3aa4b1bd1393da2a98ca7c0ac0779f0835d089f9f653d06b6474c75",
    "heatmap16.csv": "0323e3978ef5869bca6e6ded95b73f1f72b909ff2353bebaaf40cebb220b2113",
    "paths1/paths.json": "53b621d2e7ff88b2ff3a3890ad821eb23ca3cfc86849767009574e423b381a56",
    "paths1/sample0005.paths.json": "e66fae29ea369e4a309638184f7b4041cfad498b44a27b92c769f34536e831fd",
    "paths1/sample0015.paths.json": "686b83e163fd1190e613c0f3ec5128418786f77e971723b4ed663bafcd1e9a0d",
    "paths1/sample0021.paths.json": "cf0cfc613d552b9fd99d3e7255bfe25af8ab45e19d79dfe5ec5ca59c41421ced",
    "paths1/sample0032.paths.json": "db0e6f85e442f7b631a8f6044df5cdb583805d13152e1c6e68562467a6cdf5b4",
    "paths1/sample0036.paths.json": "c9ba007462bf8cee5beaa177d5385cf6221bc65672accd171c6af4b2cddb7152",
    "paths1/sample0041.paths.json": "307e5b1d5214ff6151fc18af52cc711715831ca1b1f04dc5a4aba3d56f9aa8b9",
    "paths1/sample0050.paths.json": "447b7c61108b8b5be3a47b0f82499fc2016852e6847335881302637f1feed855",
    "paths1/sample0063.paths.json": "aec6adfc75156504aeb1ee1c2654eec32e219fb76d03ba04ff986fb87ee4d2b3",
    "paths16/paths.json": "f25660964a1ad844a21dff8a928b0d739738dbbe44c012dce0f84a730388e738",
    "paths16/sample0005.paths.json": "51216eb647777e772741507a5ef04773623d4536273d13d2aa2eda6f24068281",
    "paths16/sample0015.paths.json": "953e79d477a408b4e2fefcceb5e5fe69e8adf9334e1e63bd34065b6b94799b8c",
    "paths16/sample0021.paths.json": "5e22443852dd26a1ef7b927aa098f76ee09694d3ccb859b70cd972c6ec04e9e4",
    "paths16/sample0032.paths.json": "7c183ad4322dc2225b79471d5519995be9f9a3a0ec7acfa0f518303e32a4695f",
    "paths16/sample0036.paths.json": "9a5ecdb45f518cd9b5e84b1af8a97041aec56ab2bfec82a80b9610b9c8705ae1",
    "paths16/sample0041.paths.json": "2ba81e4f1b3c16de686dfab2495c61a26907162ddefb3ff1a15db91c62f094e0",
    "paths16/sample0050.paths.json": "78ce22202f6bc20105d91b604822470cc037c212cd7ed02c512160e39217750a",
    "paths16/sample0063.paths.json": "a1055f853051d53aa97c1f842c5cbbeadd887f98b2d6f8314bb955c0119094d4",
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
    ]
    return {
        p.relative_to(tmp).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in wanted
    }


def test_planner_artifacts_match_golden_bytes(tmp_path):
    assert artifact_digests(tmp_path) == GOLDEN
