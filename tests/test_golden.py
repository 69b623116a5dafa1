"""Golden artifact bytes for the README pipeline and one desk comparison seed.

The digests pin the generated model blobs with their JSON index, the data blob,
the calibration set, the graph blobs, path sets, masks, reports, heatmaps
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
those files moved, by at most 5.1e-16 relative.  The eight graph digests and
the paths16 digests of samples 21 and 36 were re-captured when scoring began
to run one forward per block of stacked samples, as evaluation does: the
expert and router products over a block round differently, so 308 of the
1,536 graph floats moved, by at most 4.4e-16 relative, and 3 of the 128
top-16 path weights with them; no expert sequence changed, and every other
digest held.  When a layer's experts became one blob, the 48 per-expert
blob digests gave way to six layer{l}.experts.tnsr digests and model.json
was re-captured; each new blob's payload is its layer's eight old payloads
in order, and the old digests still pin each expert matrix through
EXPERT_SLICES.  When each sample graph became one (L, 4, N_e) blob, the
eight graph JSON digests gave way to eight sample{i}.tnsr digests and
graphs.json, which now lists the blobs, was re-captured; every float is
unchanged, and the old digests still pin each graph through GRAPH_JSON.
When every sample's graph went into one (n, L, 4, N_e) scores.tnsr, in
graphs.json's order, the eight sample{i}.tnsr digests gave way to the
scores.tnsr digest and graphs.json, which now names that blob, was
re-captured; each row of the blob, re-saved alone, must still match its old
digest in GRAPH_SLICES, and GRAPH_JSON reads the same rows.
When gen-data's output became its tokens blob alone, the data/data.json
digest went with the index it pinned, which repeated the blob's three
dimensions and a seed; the blob's digest, once data/tokens.tnsr's, holds
unchanged as the data file's.
When graphs.json stopped repeating the scores blob's L and N_e as
num_layers and experts_per_layer, its digest was re-captured; it holds the
blob's member name and the sample ids, and scores.tnsr held.
The three comparison summary.json digests were captured before save_json
began to write every record, so they pin that the summaries kept their bytes.
They were re-captured when summary.json became the comparison report record
itself: wins, the experiment config, and every field of each seed's outcome,
the random masks' errors included, where it had held a count of seeds and
six fields per seed.  No float moved: each summary, rewritten in the old
layout, must still match its old digest in SUMMARY_LAYOUT_V1.
When every expert of a model went into one weights.tnsr, the twelve
layer{l}.router.tnsr and layer{l}.experts.tnsr digests gave way to the
weights.tnsr digest and model.json, which now lists each layer's expert
count, was re-captured; each layer's router and experts, split out of the
blob and re-saved alone, must still match its old digest in LAYER_SLICES.
The two pruned models' directories were pinned with that change: their
remap.json files kept the bytes they had, and their model.json and
weights.tnsr hold the per-layer blobs they had, in the same layout.
When compare stopped writing comparison.csv, its three digests went: each
CSV row was a seed's pathfinder error or one of its random masks' errors, in
mask order, with its retention fraction, and summary.json holds those floats
in that order, so its digests pin them; the CSV rebuilt from each summary
matched its old digest.
The digests hold on x86-64 with numpy's
bundled OpenBLAS, with one BLAS thread or two; another BLAS may round the
model's matrix products differently and move every float.
"""

import hashlib
import json

from moe_pathfinder.cli import main
from moe_pathfinder.numerics import load_tensor, save_json, save_tensor

GOLDEN = {
    "calib.json": "549c397a55e7f42175457405989ffe13b3e99d0e5183432dec8ea9aff5671dd1",
    "compare-no-importance/summary.json": "88224b1f7d91996011d6ea76a40350eff8ae96faa4e34bdba0aa227fb5e8f3d0",
    "compare-no-transition/summary.json": "2e1da35f4cb8b955b82fdf40d62a0aebf3ff330cdfb956aaea4f06ec0b0ede3e",
    "compare/summary.json": "0e9e624328ce90c570f54bb4628017ee5dad356cce4aed48074adbcace915bf8",
    "data.tnsr": "d51047174ba2195eee126c70a366321ab4abb742f163f108ef3da6125247cffa",
    "eval.json": "09fc01fe006060161f4fc1e735f0555c41ac04d89af1158789668969475a9db7",
    "graphs/graphs.json": "912df811e7dac09d50637140b1b77ddaf75b6bc4e360170e053f4e96f19b0d11",
    "graphs/scores.tnsr": "0ed4acef32328c3e86adaa78a56295ec0568388c0b5f28596f16ec3c86f6ca46",
    "heatmap1.csv": "ffec49c1c3aa4b1bd1393da2a98ca7c0ac0779f0835d089f9f653d06b6474c75",
    "heatmap16.csv": "0323e3978ef5869bca6e6ded95b73f1f72b909ff2353bebaaf40cebb220b2113",
    "model/model.json": "ec8eba07b026280605d39e61c71eb6976e70e64d46dfcdb3cbcec114b2ed4d13",
    "model/weights.tnsr": "7c5f3ca30885de6923461818777f65190704a510fb759f2fbd66b1bde27a5dec",
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
    "paths16/sample0021.paths.json": "1427887afbf046d9e54de39151c30ede39cc45b3efb9318ce6b315a0026b621f",
    "paths16/sample0032.paths.json": "2d48a7f7eb8bf85af01be8f18c727fb1cab0dcc8037e7e073f8a9d5936821480",
    "paths16/sample0036.paths.json": "4ca1a1655fc6ea30d2607c51e59a78cace6b62217cb72f7c09f5b8e977085273",
    "paths16/sample0041.paths.json": "04213d5c4fb8c6d9f3080ff79843299ba189f16265a641b3cd452dcf09382afd",
    "paths16/sample0050.paths.json": "85272746669323a1b64f514ec6cc734a9d0db2ec03641122a764e9b533889902",
    "paths16/sample0063.paths.json": "33cfb4783d9bde0873423de1f4620fb5d00a3cd0b7487167038814464398b9d5",
    "pruned/mask.json": "58af2cdc5c457eeaa351a2a6f67f37d1094d069381fdfb0a2edfa56b1fc5b026",
    "pruned/report.json": "127281b4ca8c46d492b8376b488fa2b1919bcd93c7fe078977a1a6c8b1f6f7e1",
    "pruned1/mask.json": "3ffd35ecdc4ede282764fcb9b3beb78fa2eb4e58fed2f72d528323e40c98ff64",
    "pruned1/pruned-model/model.json": "80bd30ab37d5be188507568923f23a77b0868effe51c534ea1eff7235b71074c",
    "pruned1/pruned-model/remap.json": "7f2c80fe7fa30d8e06435634f56dc1f0639c1c023723dc43f0e36e070ddb5c68",
    "pruned1/pruned-model/weights.tnsr": "561afb56f4bd057587b011496f3cbf8fe9b927e69d615ef7545a575b8caca864",
    "pruned1/report.json": "12be44a32ab37116d2f7bf857b8df8ec8eda864ee5d562bfa893ba3f9915f40d",
    "pruned16/mask.json": "480eeefe61f7c28a68938da8ba84f5795624700eaa8d848149d363f72f63b93c",
    "pruned16/pruned-model/model.json": "b51f39460650413a44e56324cbf93dabfbf6a12f59e5d8f2b3f3a7c243dcea78",
    "pruned16/pruned-model/remap.json": "dd7b4118a3f6a0be8d65d8e6f4082445215053be1f8d8b6e0002d38afe5b64fa",
    "pruned16/pruned-model/weights.tnsr": "407ac00d315ca5aec574ba2368b07a81fa4691ea989bcec9aecee16771d4dde8",
    "pruned16/report.json": "88a1bbd3a696612e890c418d81bf1d0c86304b71d57f77663c0991f4c32384f1",
}

# Digests of the per-expert blobs the model directory held before each
# layer's experts became one blob.  Each expert matrix of weights.tnsr,
# re-serialized as a 2-D .tnsr of its own, must still match, which keeps the
# scalar SplitMix64 draws pinned through both format changes.
# Digests of the per-layer blobs the model directory held before every
# expert went into one weights.tnsr.  Each layer's router rows and expert
# matrices, split out of that blob and re-serialized as a .tnsr of their own
# under the blob's old name, must still match.
LAYER_SLICES = {
    "layer0.experts.tnsr": "f39bfd68519df65449daf6b2884421a869a719173d38c5cf74c019c3b6e98220",
    "layer0.router.tnsr": "0dc30b086991fd29fc1a4d1f36f95eae812fcb0e2d50c8eb243862e72ee590c1",
    "layer1.experts.tnsr": "1540840b1158d1d1079e9183d54c2afbbe3dab75aa78d50bb351b819bc038456",
    "layer1.router.tnsr": "f47da08a1dabb279615d3ee39bcbdbdc7f258af95010be57c714ebbf6c0ed481",
    "layer2.experts.tnsr": "9fd68930603ddf717eafd1d810184466ea9af70a40eff70d48590c1c72434541",
    "layer2.router.tnsr": "9e09c72f277995f7b70edc273b8c3ef409300c99bc8d90b652b9750e909e84eb",
    "layer3.experts.tnsr": "54d2aae62271d000dbf734cbdfefd40ca397cda6bda3297437ce21a1e2a3b845",
    "layer3.router.tnsr": "fc2b665ffdca380c25a2f5c0d0b78ecbabf4f349222a5ae9049df274f44c6484",
    "layer4.experts.tnsr": "caa3ca2750207337cdc302c7ea03f44895f5a55dc611fcaa0019c7dcbea56add",
    "layer4.router.tnsr": "8655145dc49353208429709e610c04d9b2f186918c77aff6a29e404bd232f1c0",
    "layer5.experts.tnsr": "3b77bbecd88321396d77aa5a8586fcfe5ffc08ed459aa1e14e3c443e84836294",
    "layer5.router.tnsr": "47a5e5660ac71c4399b106b670ae4bf4155a1fe11da5f9e96a0ae71f09e2bfbf",
}

EXPERT_SLICES = {
    "layer0.expert0.tnsr": "5cad98429dfbd0b9b3d0546767d2f2d27ea8ab059ac794deb64c84019c70deb2",
    "layer0.expert1.tnsr": "1ea7b16cd97b3f33803bfa7f0d2c3180037c5127ff2de7c96cc1f34c86d59de3",
    "layer0.expert2.tnsr": "0624e21a3fd6ab9df64e1e3fb9f5feb39bb272c3b65c36ae333bb8e3dd7912f3",
    "layer0.expert3.tnsr": "599a4dd6194cf9e79afdda71b296bf65a2371fa22521336d541ce48e76085319",
    "layer0.expert4.tnsr": "454948938435a10a3782c901f2b27fae28bc50d7c5b54fb276abf9538114802e",
    "layer0.expert5.tnsr": "679eab3d691ebfcdf082e8c786130414118ced68797e4f640de4276ae8f8d1a9",
    "layer0.expert6.tnsr": "65060a381413467700aed01759170c22c201c50af98bd443f279a39ca99ad87a",
    "layer0.expert7.tnsr": "0d59b6b05b49ac96a19eea8e43e2b6feba1a1adb2a26b6d88deb647aadbd6561",
    "layer1.expert0.tnsr": "9a1f7a37f9fd8b88c0b01fabd8aadce78582af94b23823a2fac70cc2b7d420bf",
    "layer1.expert1.tnsr": "b131a66fba3da01e855fea81be87aebc67a50414c0660c4f51b879c346deb6b1",
    "layer1.expert2.tnsr": "391e5c152e723ef58680b89b2f2951840ef6a15478f5d654c45e76bdcdddb89d",
    "layer1.expert3.tnsr": "d3c3f83e46becdb46504ea459fa6d857b88e1674f637932304d50304d24f2827",
    "layer1.expert4.tnsr": "11debba526fbfb79a18d71adae236fcf3e660b8a060420986f803bb17448c5aa",
    "layer1.expert5.tnsr": "c48727a7de7c96377d2ffe1e34a5601477d0e6aeadcb49f4b96d9c95c6e352cb",
    "layer1.expert6.tnsr": "5643894dd542b2f1253125e25a05cfd3809ae0d1eaa4c2ceda0afd607d6172fc",
    "layer1.expert7.tnsr": "281975a8a9ca3d24056f5b264e70e12a8de0bdee4cd13a667471050681476cb2",
    "layer2.expert0.tnsr": "39341dc2df43287dce77991d661d540990b977d7dab6b7c28388384ddc6f303a",
    "layer2.expert1.tnsr": "2056b4b554d0efde23e314c405e11f2d8c00544a72083db6eb0172923f344cc8",
    "layer2.expert2.tnsr": "d2c8155490eff194c805a9f65ad3e36ff109363b5f711061a7c439d7d35689bc",
    "layer2.expert3.tnsr": "a472df3eddb4d0d9af25be86e3eda8f2e79faa83b344218bbb21ba6a50066fb4",
    "layer2.expert4.tnsr": "acf1960e5f029bdeb8aed7e85ef9b73b19e731e5f1495ab4d72b35bab6fba095",
    "layer2.expert5.tnsr": "c66faf543d2dd13214cf55266be03c0f98e66b19556b7e4b5b97607b79721277",
    "layer2.expert6.tnsr": "2c9f4a58e40df355887df93db37e405ccd7f587b6c2d3533a47e4d65608b641e",
    "layer2.expert7.tnsr": "efe60c0444f89c5dcf6c0a2f51ee5e1cdcd4fd788f6fa45740a3edb8472b04eb",
    "layer3.expert0.tnsr": "38e50920e5f26c88702525b83367114242d218ffd42aec5e40d3b9e71b25cda3",
    "layer3.expert1.tnsr": "d68a0f565eea148f8c70214bb99d3fc1ec911c364544851517cd006b08fdff87",
    "layer3.expert2.tnsr": "6b5bd783d6dd0592d4aa7fa44f98c131ee241149298a91858b9e011476d2256f",
    "layer3.expert3.tnsr": "b25f97d5579d2e6233398ea5c9ca63589a62cb310fafb761e9cc751d8b3d9270",
    "layer3.expert4.tnsr": "d3679c84ca5e5dbc226eb4ff576e4f0c5daf3d841212b394a715d5d02a9813ae",
    "layer3.expert5.tnsr": "dc53cead1f69154de32f3a464fc28cacfabdf5a445fbb24599b37c708f97609f",
    "layer3.expert6.tnsr": "ef81c5e93f0e7b584ae6173ed310957eae1be51cec5581e161c43f95aabdf18c",
    "layer3.expert7.tnsr": "b645088274915211f88a9eb82b60da5d188cfc451eb28809dabe07d89169e9f1",
    "layer4.expert0.tnsr": "50af73ef569217250ac7bfd0a852d7d308e0316f6023c15978ee9d42e49f088d",
    "layer4.expert1.tnsr": "cc473d6db65f71371fa4f68ba8870424c31f55811c78b71e7b112fbc20b00b38",
    "layer4.expert2.tnsr": "dc9714ca6508d8dbd8f319005b718f2fb4257e0725aaccb614af7f7803432e0d",
    "layer4.expert3.tnsr": "e942881b272f8ff0352d2aab8424ccf20e2ef0922faba3431a6053133650be8a",
    "layer4.expert4.tnsr": "f75c27de48a8f963e60e938f7fb9ba508fb1c3ada14ffa85b0f329814de31c07",
    "layer4.expert5.tnsr": "916b856343a5726dd481ac3572bf2a9c9d9d9fa870f4de18e4f97d99e6ef74ec",
    "layer4.expert6.tnsr": "b2363cd58d7bc8edfe2b89c8111b148ca054e6727a035a8799c272b07a89c425",
    "layer4.expert7.tnsr": "0f41a094c4b2718dbdb914120d6be3f9f66ec776e24788cf07a519dab0e1479e",
    "layer5.expert0.tnsr": "b592c31699236846425e7fcec1eb4f699452a91adb9bdebc653f83c03e15e56a",
    "layer5.expert1.tnsr": "f818419355f4cbc282a08588e6fc306e8096e9a32cc93bfbc15d477fdc944f67",
    "layer5.expert2.tnsr": "d224f894881011ad12c8f945b545e8d1a9408aee5a32f9a9887f6b9f778797dc",
    "layer5.expert3.tnsr": "50f96d0283144b499d459ef9546f0ef05ae228e0ea7488803505e82c3f109079",
    "layer5.expert4.tnsr": "fc8db94a1025ec49346b6cf0e724264a2edaed19c14b370fddf1d4c02ab3d6eb",
    "layer5.expert5.tnsr": "04e447b6e6f18298a48ef2eecea14bc8c966c44023c7155a646e82a7d809fde3",
    "layer5.expert6.tnsr": "b755ecf7e1310ef3463f6fef4456bde84c72c1eabab3ae28094fead63e703b40",
    "layer5.expert7.tnsr": "d01b37b7ef4f755a378de8d4f18965ae5c15b4d815157885068c34dfd2d72519",
}

# Digests of the blobs each sample graph was before every graph went into one
# scores.tnsr.  Each row of that blob, re-serialized as an (L, 4, N_e) .tnsr
# of its own under its sample's name, must still match, as EXPERT_SLICES does
# for the experts.
GRAPH_SLICES = {
    "sample0005.tnsr": "26e26b3d200c1838cdde0918939329eb058e66df1ded521a334f396bca7f1be5",
    "sample0015.tnsr": "54e6edc10ea97dd28ab3f0745014095589dd348ff0376860d60e11b5490175da",
    "sample0021.tnsr": "893029e4309661535a4453eeace41d403253eda98ad13b21627b4616db37f86a",
    "sample0032.tnsr": "876a7feac6fb06046a6cef8bf2fc9c9739e309fa00911f8c3280c8f6a46e9506",
    "sample0036.tnsr": "3efa1f37d161ea0af2300f51e39bd3ac39abe1213f68c87e6f9d892c8ec8b2a7",
    "sample0041.tnsr": "3c0224f9344b438de8e4a820afeef4513a7938b58194f6f560916896ce95f643",
    "sample0050.tnsr": "6f01c4e1838754c6a9c1f1c26f7a0b8a7518f77f9ea07ebb472e94704b87651d",
    "sample0063.tnsr": "de8155f210ebcb84d0beec9aa3095f33e7026195de2343f2d9c9f0837f7ddce7",
}

# Digests of the JSON files each sample graph was before it became one blob:
# per layer a dict of its four vectors, under its num_layers and
# experts_per_layer.  Each graph blob, re-serialized in that layout, must
# still match, so every graph float stays pinned through the format change.
GRAPH_JSON = {
    "sample0005.json": "66865df6cd3635d24507a0e3a5a370e1db8aab64a79592e609967b53a21b5009",
    "sample0015.json": "ffc3b8e650d17143d528a59926fdd7e24ca285a84e626bad108838dadf9ef6e1",
    "sample0021.json": "9e861f3023e2db57c3fef71e1bbe7f8ff4e6d715549b0225cf43308b7733bf31",
    "sample0032.json": "b9755ca2f712c888c0a5bc98d62a28918e0107cc910c7bfa5faba3009033a4b5",
    "sample0036.json": "8766c73db6d1fcd7da8843d34fa0c568ecb36debf960b9dc06b29b95bed4f192",
    "sample0041.json": "e03811effa3b636c52c6ba2612ddeb79930ba4096b85d6985964ad651666fec3",
    "sample0050.json": "aef45ae198fa67011426ea9932950f2609a08e95bfd2162ce5c444df14004cb5",
    "sample0063.json": "3758ac9476f8f9a651a889e48b73cb278379dba48801ed8143bf9280cfc28611",
}
GRAPH_FIELDS = ("activation", "routing", "recon_loss", "importance")

# Digests of the three comparison summary.json files before each became the
# report record.  Each summary, rewritten in that layout (wins, n_seeds, and
# per seed six of its outcome's fields), must still match.
SUMMARY_LAYOUT_V1 = {
    "compare": "63ec8aac93aa79eed4c04ed3591192579e312b21351e8b2c96f100f4a5950288",
    "compare-no-importance": "cd6b253b03cbeff10ac78efd054c2c57356133907cb9b0949b03e64f88f2d9c9",
    "compare-no-transition": "33c275ad0c3c2fd2bdda213dfdb16be225c883e4827317a9cc79321d41fa8051",
}
SUMMARY_V1_FIELDS = (
    "model_seed", "pathfinder_error", "random_median", "win", "retention_fraction", "m_used",
)


def run_cli(*args):
    assert main([str(a) for a in args]) == 0


def artifact_digests(tmp) -> dict[str, str]:
    """Run the README pipeline, a top-16 plan, a target-retention search,
    and one desk comparison seed with each signal set; return the sha256 of
    each artifact, keyed by its path relative to tmp."""
    model, data, calib = tmp / "model", tmp / "data.tnsr", tmp / "calib.json"
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
        if p.suffix == ".csv" or p.name in ("mask.json", "report.json", "eval.json", "summary.json")
        or p.name.endswith(".paths.json") or p.name == "paths.json"
        or p.parent.name in ("model", "pruned-model", "graphs")
        or p.name in ("data.tnsr", "calib.json")
    ]
    return {
        p.relative_to(tmp).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in wanted
    }


def model_layers(model_dir) -> list[tuple[object, object]]:
    """Each layer's (router, experts), sliced out of weights.tnsr by the
    counts model.json lists: rows in layer order, each expert's router row
    over its matrix."""
    index = json.loads((model_dir / "model.json").read_text())
    weights, layers, start = load_tensor(model_dir / index["weights"]), [], 0
    for n in index["counts"]:
        rows = weights[start:start + n]
        layers.append((rows[:, 0], rows[:, 1:]))
        start += n
    assert start == len(weights)
    return layers


def saved_digests(named_arrays, out_dir) -> dict[str, str]:
    """sha256 of each array, saved as its own .tnsr under its name."""
    out_dir.mkdir()
    digests = {}
    for name, arr in named_arrays:
        save_tensor(out_dir / name, arr)
        digests[name] = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
    return digests


def layer_slice_digests(model_dir, out_dir) -> dict[str, str]:
    """Each layer's router and experts under the names their blobs had in
    the per-layer file format."""
    return saved_digests([
        (f"layer{l}.{kind}.tnsr", arr)
        for l, (router, experts) in enumerate(model_layers(model_dir))
        for kind, arr in (("router", router), ("experts", experts))
    ], out_dir)


def expert_slice_digests(model_dir, out_dir) -> dict[str, str]:
    """Each expert matrix of each layer under the name its blob had in the
    per-expert file format."""
    return saved_digests([
        (f"layer{l}.expert{i}.tnsr", w)
        for l, (_, experts) in enumerate(model_layers(model_dir)) for i, w in enumerate(experts)
    ], out_dir)


def graph_rows(graphs_dir) -> list[tuple[str, object]]:
    """Each row of the scores blob under the stem of the file its sample's
    graph had on its own, sample{id:04d}."""
    index = json.loads((graphs_dir / "graphs.json").read_text())
    rows = load_tensor(graphs_dir / index["scores"])
    return [(f"sample{e['id']:04d}", row) for e, row in zip(index["samples"], rows)]


def graph_slice_digests(graphs_dir, out_dir) -> dict[str, str]:
    """Each graph's scores under the name its blob had before every graph
    went into one blob."""
    return saved_digests([(f"{stem}.tnsr", scores) for stem, scores in graph_rows(graphs_dir)],
                         out_dir)


def graph_json_digests(graphs_dir, out_dir) -> dict[str, str]:
    """sha256 of each graph's scores, saved in the JSON layout of graph files
    before they became blobs, under the name that file had."""
    out_dir.mkdir()
    digests = {}
    for stem, scores in graph_rows(graphs_dir):
        path = out_dir / f"{stem}.json"
        save_json(path, {
            "num_layers": scores.shape[0],
            "experts_per_layer": scores.shape[2],
            "layers": [dict(zip(GRAPH_FIELDS, layer.tolist())) for layer in scores],
        })
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def summary_v1_digests(run, out_dir) -> dict[str, str]:
    """sha256 of each comparison summary.json, saved in the layout it had
    before it became the report record, under its run's name."""
    out_dir.mkdir()
    digests = {}
    for name in SUMMARY_LAYOUT_V1:
        summary = json.loads((run / name / "summary.json").read_text())
        path = out_dir / f"{name}.json"
        save_json(path, {
            "wins": summary["wins"],
            "n_seeds": len(summary["outcomes"]),
            "per_seed": [{f: o[f] for f in SUMMARY_V1_FIELDS} for o in summary["outcomes"]],
        })
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_planner_artifacts_match_golden_bytes(tmp_path):
    run = tmp_path / "run"
    run.mkdir()
    assert artifact_digests(run) == GOLDEN
    assert layer_slice_digests(run / "model", tmp_path / "layers") == LAYER_SLICES
    assert expert_slice_digests(run / "model", tmp_path / "slices") == EXPERT_SLICES
    assert graph_slice_digests(run / "graphs", tmp_path / "graph-slices") == GRAPH_SLICES
    assert graph_json_digests(run / "graphs", tmp_path / "graph-json") == GRAPH_JSON
    assert summary_v1_digests(run, tmp_path / "summaries-v1") == SUMMARY_LAYOUT_V1
