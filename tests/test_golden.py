"""Golden artifact bytes for the README pipeline and one desk comparison seed.

The digests pin the generated model and data blobs with their JSON indexes,
the calibration set, the graph files, path sets, masks, reports, heatmaps
and comparison rows.  The generator and calibration digests were taken
before the PRNG drew its arrays in numpy, so they hold every draw of the
scalar SplitMix64 loop to its bytes.  The mask, report, heatmap, eval and comparison digests
date from the prefix-DP planner that the best-first enumerator replaced.
The graph digests were taken before path weights became sums of per-node
scores, and that change left them alone.  It re-captured the ten path-set
digests that moved: summing one score per node rounds differently from
summing clamped log edges, so 47 of the 136 stored weights moved, by at most
3.2e-16 relative, and no expert sequence changed.  The eval.json and three
comparison.csv digests were re-captured when evaluation began to stack
samples into 512-row blocks and a masked layer began to run the pruned
layer's own router product and softmax: a product over a block rounds
differently from one over a single sample, so 45 of the 70 error floats in
those files moved, by at most 5.1e-16 relative.  The digests hold on x86-64 with numpy's
bundled OpenBLAS, with one BLAS thread or two; another BLAS may round the
model's matrix products differently and move every float.
"""

import hashlib

from moe_pathfinder.cli import main

GOLDEN = {
    "calib.json": "549c397a55e7f42175457405989ffe13b3e99d0e5183432dec8ea9aff5671dd1",
    "compare-no-importance/comparison.csv": "d30fada91373ed46f31940e72d18cbbd577944990da37f1b04d4f8e14f55d845",
    "compare-no-transition/comparison.csv": "f75b6bd82512f3d6d18e2c8c1fa10c922f2cc56cebba3ceea1a292c1ab530ebb",
    "compare/comparison.csv": "7b233f6ef6202e5e8444f7de070e17c366ffdaa4815ce5d6d28a328c29b97b19",
    "data/data.json": "c21b57d401bf60c88b5fbcac2c43a1111c4aa54bc79218e390b91da3f888d460",
    "data/tokens.tnsr": "d51047174ba2195eee126c70a366321ab4abb742f163f108ef3da6125247cffa",
    "eval.json": "09fc01fe006060161f4fc1e735f0555c41ac04d89af1158789668969475a9db7",
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
    "model/layer0.expert0.tnsr": "5cad98429dfbd0b9b3d0546767d2f2d27ea8ab059ac794deb64c84019c70deb2",
    "model/layer0.expert1.tnsr": "1ea7b16cd97b3f33803bfa7f0d2c3180037c5127ff2de7c96cc1f34c86d59de3",
    "model/layer0.expert2.tnsr": "0624e21a3fd6ab9df64e1e3fb9f5feb39bb272c3b65c36ae333bb8e3dd7912f3",
    "model/layer0.expert3.tnsr": "599a4dd6194cf9e79afdda71b296bf65a2371fa22521336d541ce48e76085319",
    "model/layer0.expert4.tnsr": "454948938435a10a3782c901f2b27fae28bc50d7c5b54fb276abf9538114802e",
    "model/layer0.expert5.tnsr": "679eab3d691ebfcdf082e8c786130414118ced68797e4f640de4276ae8f8d1a9",
    "model/layer0.expert6.tnsr": "65060a381413467700aed01759170c22c201c50af98bd443f279a39ca99ad87a",
    "model/layer0.expert7.tnsr": "0d59b6b05b49ac96a19eea8e43e2b6feba1a1adb2a26b6d88deb647aadbd6561",
    "model/layer0.router.tnsr": "0dc30b086991fd29fc1a4d1f36f95eae812fcb0e2d50c8eb243862e72ee590c1",
    "model/layer1.expert0.tnsr": "9a1f7a37f9fd8b88c0b01fabd8aadce78582af94b23823a2fac70cc2b7d420bf",
    "model/layer1.expert1.tnsr": "b131a66fba3da01e855fea81be87aebc67a50414c0660c4f51b879c346deb6b1",
    "model/layer1.expert2.tnsr": "391e5c152e723ef58680b89b2f2951840ef6a15478f5d654c45e76bdcdddb89d",
    "model/layer1.expert3.tnsr": "d3c3f83e46becdb46504ea459fa6d857b88e1674f637932304d50304d24f2827",
    "model/layer1.expert4.tnsr": "11debba526fbfb79a18d71adae236fcf3e660b8a060420986f803bb17448c5aa",
    "model/layer1.expert5.tnsr": "c48727a7de7c96377d2ffe1e34a5601477d0e6aeadcb49f4b96d9c95c6e352cb",
    "model/layer1.expert6.tnsr": "5643894dd542b2f1253125e25a05cfd3809ae0d1eaa4c2ceda0afd607d6172fc",
    "model/layer1.expert7.tnsr": "281975a8a9ca3d24056f5b264e70e12a8de0bdee4cd13a667471050681476cb2",
    "model/layer1.router.tnsr": "f47da08a1dabb279615d3ee39bcbdbdc7f258af95010be57c714ebbf6c0ed481",
    "model/layer2.expert0.tnsr": "39341dc2df43287dce77991d661d540990b977d7dab6b7c28388384ddc6f303a",
    "model/layer2.expert1.tnsr": "2056b4b554d0efde23e314c405e11f2d8c00544a72083db6eb0172923f344cc8",
    "model/layer2.expert2.tnsr": "d2c8155490eff194c805a9f65ad3e36ff109363b5f711061a7c439d7d35689bc",
    "model/layer2.expert3.tnsr": "a472df3eddb4d0d9af25be86e3eda8f2e79faa83b344218bbb21ba6a50066fb4",
    "model/layer2.expert4.tnsr": "acf1960e5f029bdeb8aed7e85ef9b73b19e731e5f1495ab4d72b35bab6fba095",
    "model/layer2.expert5.tnsr": "c66faf543d2dd13214cf55266be03c0f98e66b19556b7e4b5b97607b79721277",
    "model/layer2.expert6.tnsr": "2c9f4a58e40df355887df93db37e405ccd7f587b6c2d3533a47e4d65608b641e",
    "model/layer2.expert7.tnsr": "efe60c0444f89c5dcf6c0a2f51ee5e1cdcd4fd788f6fa45740a3edb8472b04eb",
    "model/layer2.router.tnsr": "9e09c72f277995f7b70edc273b8c3ef409300c99bc8d90b652b9750e909e84eb",
    "model/layer3.expert0.tnsr": "38e50920e5f26c88702525b83367114242d218ffd42aec5e40d3b9e71b25cda3",
    "model/layer3.expert1.tnsr": "d68a0f565eea148f8c70214bb99d3fc1ec911c364544851517cd006b08fdff87",
    "model/layer3.expert2.tnsr": "6b5bd783d6dd0592d4aa7fa44f98c131ee241149298a91858b9e011476d2256f",
    "model/layer3.expert3.tnsr": "b25f97d5579d2e6233398ea5c9ca63589a62cb310fafb761e9cc751d8b3d9270",
    "model/layer3.expert4.tnsr": "d3679c84ca5e5dbc226eb4ff576e4f0c5daf3d841212b394a715d5d02a9813ae",
    "model/layer3.expert5.tnsr": "dc53cead1f69154de32f3a464fc28cacfabdf5a445fbb24599b37c708f97609f",
    "model/layer3.expert6.tnsr": "ef81c5e93f0e7b584ae6173ed310957eae1be51cec5581e161c43f95aabdf18c",
    "model/layer3.expert7.tnsr": "b645088274915211f88a9eb82b60da5d188cfc451eb28809dabe07d89169e9f1",
    "model/layer3.router.tnsr": "fc2b665ffdca380c25a2f5c0d0b78ecbabf4f349222a5ae9049df274f44c6484",
    "model/layer4.expert0.tnsr": "50af73ef569217250ac7bfd0a852d7d308e0316f6023c15978ee9d42e49f088d",
    "model/layer4.expert1.tnsr": "cc473d6db65f71371fa4f68ba8870424c31f55811c78b71e7b112fbc20b00b38",
    "model/layer4.expert2.tnsr": "dc9714ca6508d8dbd8f319005b718f2fb4257e0725aaccb614af7f7803432e0d",
    "model/layer4.expert3.tnsr": "e942881b272f8ff0352d2aab8424ccf20e2ef0922faba3431a6053133650be8a",
    "model/layer4.expert4.tnsr": "f75c27de48a8f963e60e938f7fb9ba508fb1c3ada14ffa85b0f329814de31c07",
    "model/layer4.expert5.tnsr": "916b856343a5726dd481ac3572bf2a9c9d9d9fa870f4de18e4f97d99e6ef74ec",
    "model/layer4.expert6.tnsr": "b2363cd58d7bc8edfe2b89c8111b148ca054e6727a035a8799c272b07a89c425",
    "model/layer4.expert7.tnsr": "0f41a094c4b2718dbdb914120d6be3f9f66ec776e24788cf07a519dab0e1479e",
    "model/layer4.router.tnsr": "8655145dc49353208429709e610c04d9b2f186918c77aff6a29e404bd232f1c0",
    "model/layer5.expert0.tnsr": "b592c31699236846425e7fcec1eb4f699452a91adb9bdebc653f83c03e15e56a",
    "model/layer5.expert1.tnsr": "f818419355f4cbc282a08588e6fc306e8096e9a32cc93bfbc15d477fdc944f67",
    "model/layer5.expert2.tnsr": "d224f894881011ad12c8f945b545e8d1a9408aee5a32f9a9887f6b9f778797dc",
    "model/layer5.expert3.tnsr": "50f96d0283144b499d459ef9546f0ef05ae228e0ea7488803505e82c3f109079",
    "model/layer5.expert4.tnsr": "fc8db94a1025ec49346b6cf0e724264a2edaed19c14b370fddf1d4c02ab3d6eb",
    "model/layer5.expert5.tnsr": "04e447b6e6f18298a48ef2eecea14bc8c966c44023c7155a646e82a7d809fde3",
    "model/layer5.expert6.tnsr": "b755ecf7e1310ef3463f6fef4456bde84c72c1eabab3ae28094fead63e703b40",
    "model/layer5.expert7.tnsr": "d01b37b7ef4f755a378de8d4f18965ae5c15b4d815157885068c34dfd2d72519",
    "model/layer5.router.tnsr": "47a5e5660ac71c4399b106b670ae4bf4155a1fe11da5f9e96a0ae71f09e2bfbf",
    "model/model.json": "e45203db70f816589735eab4356d97d0f446653327479fcd25b622e0082a44f0",
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
        or p.parent.name in ("model", "data") or p.name == "calib.json"
    ]
    return {
        p.relative_to(tmp).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in wanted
    }


def test_planner_artifacts_match_golden_bytes(tmp_path):
    assert artifact_digests(tmp_path) == GOLDEN
