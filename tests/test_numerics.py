import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moe_pathfinder.errors import FormatError
from moe_pathfinder.numerics import (
    Rng,
    l2_norm,
    load_json,
    load_tensor,
    matmul_transpose,
    save_json,
    save_tensor,
    softmax,
    softmax_rows,
)

MASK64 = (1 << 64) - 1


def splitmix64_reference(seed, count):
    # independent 6-line reimplementation of the documented stream
    out, state = [], seed & MASK64
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


def test_rng_matches_reference_stream():
    rng = Rng(42)
    assert [rng.next_u64() for _ in range(6)] == splitmix64_reference(42, 6)


def test_rng_frozen_values():
    # first outputs for seeds 0 and 42, frozen; seed 0 leads with the
    # published SplitMix64 test vector 0xE220A8397B1DCDAF
    assert Rng(0).next_u64() == 16294208416658607535
    rng = Rng(42)
    assert [rng.next_u64() for _ in range(3)] == [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
    ]
    rng = Rng(42)
    assert [rng.uniform() for _ in range(4)] == [
        0.7415648787718233,
        0.1599103928769201,
        0.27860113025513866,
        0.34419071652363753,
    ]


def test_rng_same_seed_same_stream():
    a, b = Rng(987654321), Rng(987654321)
    assert [a.next_u64() for _ in range(1000)] == [b.next_u64() for _ in range(1000)]


def test_rng_uniform_bounds_and_spawn():
    rng = Rng(5)
    vals = [rng.uniform(-2.0, 3.0) for _ in range(500)]
    assert all(-2.0 <= v < 3.0 for v in vals)
    child = rng.spawn()
    assert child.next_u64() != rng.next_u64()


def test_rng_randrange_and_weighted_choice():
    rng = Rng(11)
    assert all(0 <= rng.randrange(7) < 7 for _ in range(200))
    with pytest.raises(ValueError):
        rng.randrange(0)
    # zero-weight entries are never chosen
    picks = {rng.choice_weighted(np.array([0.0, 1.0, 0.0, 2.0])) for _ in range(200)}
    assert picks <= {1, 3}
    with pytest.raises(ValueError):
        rng.choice_weighted(np.zeros(3))


def matmul_transpose_oracle(h, w):
    n, d_in = h.shape
    d_out = w.shape[0]
    out = np.zeros((n, d_out))
    for i in range(n):
        for j in range(d_out):
            acc = 0.0
            for t in range(d_in):
                acc += h[i, t] * w[j, t]
            out[i, j] = acc
    return out


def test_matmul_transpose_identity():
    assert np.array_equal(matmul_transpose(np.array([[1.0, 0.0]]), np.eye(2)), [[1.0, 0.0]])


def test_matmul_transpose_hand_case():
    h = np.array([[1.0, 2.0]])
    w = np.array([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(matmul_transpose(h, w), [[11.0, 17.0]])


def test_matmul_transpose_against_triple_loop():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n, d_in, d_out = rng.integers(1, 7, size=3)
        h = rng.standard_normal((n, d_in))
        w = rng.standard_normal((d_out, d_in))
        got = matmul_transpose(h, w)
        want = matmul_transpose_oracle(h, w)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)


def test_matmul_transpose_shape_error_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
        matmul_transpose(np.zeros((2, 3)), np.zeros((4, 5)))


def test_softmax_uniform_and_shift():
    assert np.allclose(softmax(np.zeros(3)), [1 / 3] * 3, atol=1e-15)
    out = softmax(np.array([7.0, 7.0 + np.log(2.0)]))
    assert np.allclose(out, [1 / 3, 2 / 3], atol=1e-12)


def test_softmax_overflow_stability():
    out = softmax(np.array([1000.0, 0.0]))
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(1.0)
    assert out[1] == pytest.approx(0.0, abs=1e-300)


def test_softmax_empty_rejected():
    with pytest.raises(ValueError):
        softmax(np.array([]))


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=12), st.floats(-30, 30))
@settings(max_examples=200)
def test_softmax_sum_and_shift_invariance(vals, shift):
    v = np.array(vals)
    out = softmax(v)
    assert abs(out.sum() - 1.0) <= 1e-12
    assert np.all(out > 0)
    shifted = softmax(v + shift)
    assert np.max(np.abs(shifted - out)) <= 1e-12


def test_softmax_rows_with_masked_entries():
    logits = np.array([[0.0, -np.inf, 0.0], [3.0, -np.inf, -np.inf]])
    out = softmax_rows(logits)
    assert np.allclose(out, [[0.5, 0.0, 0.5], [1.0, 0.0, 0.0]])


def test_l2_norm():
    assert l2_norm(np.array([3.0, 4.0])) == 5.0
    assert l2_norm(np.zeros(4)) == 0.0
    assert l2_norm(np.ones(4)) == 2.0


def test_tnsr_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(3)
    for shape in [(4,), (3, 5), (2, 3, 4)]:
        arr = rng.standard_normal(shape)
        path = tmp_path / "x.tnsr"
        save_tensor(path, arr)
        back = load_tensor(path)
        assert back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()


def test_tnsr_header_layout(tmp_path):
    path = tmp_path / "t.tnsr"
    save_tensor(path, np.array([[1.0, 2.0]]))
    raw = path.read_bytes()
    assert raw[:4] == b"TNSR"
    assert raw[4] == 1
    # rank 2, dims (1, 2), little-endian u32
    assert raw[5:9] == (2).to_bytes(4, "little")
    assert raw[9:13] == (1).to_bytes(4, "little")
    assert raw[13:17] == (2).to_bytes(4, "little")
    assert len(raw) == 17 + 16


def test_tnsr_bad_magic(tmp_path):
    path = tmp_path / "bad.tnsr"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(FormatError, match="magic"):
        load_tensor(path)


def test_tnsr_bad_version(tmp_path):
    path = tmp_path / "bad.tnsr"
    path.write_bytes(b"TNSR" + bytes([9]) + bytes(20))
    with pytest.raises(FormatError, match="version"):
        load_tensor(path)


def test_tnsr_truncated_payload(tmp_path):
    path = tmp_path / "x.tnsr"
    save_tensor(path, np.ones((2, 2)))
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(FormatError, match="unexpected end of tensor payload"):
        load_tensor(path)


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda raw: raw[:7], "truncated header"),
        (lambda raw: raw + bytes(8), "8 trailing bytes"),
        (lambda raw: raw[:-8] + struct.pack("<d", float("nan")), "non-finite"),
        (lambda raw: raw[:-8] + struct.pack("<d", float("-inf")), "non-finite"),
        (lambda raw: None, "cannot read tensor"),
    ],
)
def test_tnsr_bad_blob_names_the_file(tmp_path, damage, message):
    path = tmp_path / "x.tnsr"
    save_tensor(path, np.ones((2, 2)))
    raw = damage(path.read_bytes())
    if raw is None:
        path.unlink()
    else:
        path.write_bytes(raw)
    with pytest.raises(FormatError, match=message) as info:
        load_tensor(path)
    assert str(path) in str(info.value)


def test_save_json_layout_and_roundtrip(tmp_path):
    path = tmp_path / "a.json"
    obj = {"b": [1, 2.5], "a": {"c": None}}
    save_json(path, obj)
    assert path.read_text() == json.dumps(obj, indent=2) + "\n"
    assert load_json(path, "thing") == obj
    assert load_json(path, "thing", lambda o: o["b"][1]) == 2.5


def test_save_json_failure_keeps_previous_file(tmp_path):
    path = tmp_path / "a.json"
    save_json(path, {"ok": True})
    before = path.read_bytes()
    # the set is met after "first" has been written to the temp file
    with pytest.raises(TypeError):
        save_json(path, {"first": list(range(1000)), "bad": {1, 2}})
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json"]


@pytest.mark.parametrize(
    "content, parse, message",
    [
        (None, lambda o: o, "cannot read"),
        ('{"a": ', lambda o: o, "malformed"),
        ('{"a": 1}', lambda o: o["b"], "has no key 'b'"),
        ('{"a": 1}', lambda o: o["a"]["b"], "malformed"),
        ('{"a": []}', lambda o: o["a"][0], "malformed"),
        ('{"a": "x"}', lambda o: int(o["a"]), "malformed"),
        ("[]", lambda o: o.get("a"), "malformed"),
    ],
)
def test_load_json_failures_name_the_file(tmp_path, content, parse, message):
    path = tmp_path / "a.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(FormatError, match=message) as info:
        load_json(path, "thing", parse)
    assert f"thing {path}" in str(info.value)
