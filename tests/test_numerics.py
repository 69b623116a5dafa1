import json
import os
import struct
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moe_pathfinder.errors import FormatError
from moe_pathfinder import numerics
from moe_pathfinder.numerics import (
    Rng,
    load_index,
    load_json,
    load_tensor,
    pairwise_sum,
    save_index,
    save_json,
    save_tensor,
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


@pytest.mark.parametrize("seed", [0, 1, 1 << 63, MASK64, 0x9E3779B97F4A7C15])
@pytest.mark.parametrize("shape", [(), (0,), (3, 5), (65536,), (3, 5, 7)])
def test_uniform_array_equals_scalar_draws(seed, shape):
    # oracle: the per-entry uniform() loop, affinely mapped, that the numpy
    # stream replaced
    fast, slow = Rng(seed), Rng(seed)
    with np.errstate(all="raise"):
        got = fast.uniform_array(shape, -0.25, 0.75)
    want = np.empty(shape)
    for idx in np.ndindex(shape):
        want[idx] = -0.25 + (0.75 - -0.25) * slow.uniform()
    assert got.shape == shape and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    assert fast._state == slow._state


@pytest.mark.parametrize("shape", [(64, 32, 32), (8, 32, 32)])
def test_uniform_array_peaks_at_twice_its_output(shape):
    # the bits are mixed in place through one scratch array, which then holds
    # the floats: no temporary per mixing step
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = Rng(7).uniform_array(shape, -1.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * out.nbytes, peak / out.nbytes


def test_rng_same_seed_same_stream():
    a, b = Rng(987654321), Rng(987654321)
    assert [a.next_u64() for _ in range(1000)] == [b.next_u64() for _ in range(1000)]


def test_rng_uniform_bounds_and_spawn():
    rng = Rng(5)
    vals = [rng.uniform() for _ in range(500)]
    assert all(0.0 <= v < 1.0 for v in vals)
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
    # a subnormal total: u * total rounds up to the total in about half the
    # draws, and the entry that reaches it is drawn then
    assert {rng.choice_weighted(np.array([0.0, 5e-324, 0.0])) for _ in range(50)} == {1}
    # a total that overflowed, or is NaN, has no scan to draw from
    for weights in ([1.0, np.inf], [1e308, 1e308], [1.0, np.nan]):
        with pytest.raises(ValueError, match="positive finite total"):
            rng.choice_weighted(np.array(weights))


def test_softmax_uniform_and_shift():
    assert np.allclose(softmax_rows(np.zeros((1, 3))), [[1 / 3] * 3], atol=1e-15)
    out = softmax_rows(np.array([[7.0, 7.0 + np.log(2.0)]]))
    assert np.allclose(out, [[1 / 3, 2 / 3]], atol=1e-12)


def test_softmax_overflow_stability():
    out = softmax_rows(np.array([[1000.0, 0.0], [0.0, -1000.0]]))
    assert np.all(np.isfinite(out))
    assert out[:, 0] == pytest.approx([1.0, 1.0])
    assert out[:, 1] == pytest.approx([0.0, 0.0], abs=1e-300)


def test_softmax_empty_rejected():
    with pytest.raises(ValueError):
        softmax_rows(np.zeros((1, 0)))


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=12), st.floats(-30, 30))
@settings(max_examples=200)
def test_softmax_sum_and_shift_invariance(vals, shift):
    v = np.array([vals, vals[::-1]])
    out = softmax_rows(v)
    assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-12
    assert np.all(out > 0)
    shifted = softmax_rows(v + shift)
    assert np.max(np.abs(shifted - out)) <= 1e-12


def test_softmax_rows_with_masked_entries():
    logits = np.array([[0.0, -np.inf, 0.0], [3.0, -np.inf, -np.inf]])
    out = softmax_rows(logits)
    assert np.allclose(out, [[0.5, 0.0, 0.5], [1.0, 0.0, 0.0]])


def row_wise_softmax(logits):
    """softmax_rows as it was before it ran along the token axis: one max,
    one sum and one quotient per row."""
    logits = np.asarray(logits, dtype=np.float64)
    m = np.max(logits, axis=1, keepdims=True)
    e = np.exp(logits - m)
    return e / e.sum(axis=1, keepdims=True)


def test_pairwise_sum_of_columns_is_numpy_row_sum():
    # widths across the 8-term and 128-term switches and the halving above
    rng = np.random.default_rng(21)
    for width in range(1, 301):
        a = rng.standard_normal((3, width)) * 10.0 ** rng.integers(-3, 4, (3, width))
        assert pairwise_sum(np.ascontiguousarray(a.T)).tobytes() == a.sum(axis=1).tobytes()
        assert pairwise_sum(a.T).tobytes() == a.sum(axis=1).tobytes()


def test_softmax_rows_is_bit_identical_to_the_row_wise_form():
    rng = np.random.default_rng(22)
    for width in range(1, 301):
        for rows in (1, 2, 7, 8, 50, int(rng.integers(1, 51))):
            logits = rng.standard_normal((rows, width)) * rng.choice([0.1, 1.0, 40.0])
            logits[rng.random((rows, width)) < 0.2] = -np.inf
            logits[np.arange(rows), rng.integers(0, width, rows)] = 0.0  # one finite entry
            out = softmax_rows(logits)
            assert out.flags.c_contiguous and out.shape == (rows, width)
            assert out.tobytes() == row_wise_softmax(logits).tobytes()


def test_tnsr_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(3)
    for shape in [(4,), (3, 5), (2, 3, 4)]:
        arr = rng.standard_normal(shape)
        path = tmp_path / "x.tnsr"
        save_tensor(path, arr)
        back = load_tensor(path)
        assert back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()


def test_tnsr_save_and_load_each_hold_one_copy_of_the_payload(tmp_path):
    # the payload goes to the file from the array's own buffer, and comes
    # back into the one array returned, its size checked first
    arr = np.random.default_rng(4).standard_normal((64, 32, 32))
    path = tmp_path / "x.tnsr"
    tracemalloc.start()
    try:
        save_tensor(path, arr)
        saved = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = load_tensor(path)
        loaded = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.tobytes() == arr.tobytes()
    assert saved <= 1.1 * arr.nbytes and loaded <= 1.1 * arr.nbytes, (saved, loaded, arr.nbytes)


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


@dataclass
class Record:
    values: list[float]
    name: str = "r"


def test_save_json_writes_a_dataclass_as_its_fields(tmp_path):
    path = tmp_path / "a.json"
    save_json(path, {"outer": [Record([1.5]), Record([], "s")]})
    assert path.read_text() == json.dumps(
        {"outer": [{"values": [1.5], "name": "r"}, {"values": [], "name": "s"}]}, indent=2
    ) + "\n"


def test_save_json_failure_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "a.json"
    save_json(path, {"ok": True})
    before = path.read_bytes()
    # the set is met after "first" has been serialised
    with pytest.raises(TypeError):
        save_json(path, {"first": list(range(1000)), "bad": {1, 2}})
    assert path.read_bytes() == before
    # no artifact holds NaN or Infinity, in a record or out of one
    for bad in ({"x": float("nan")}, Record([0.5, float("inf")]), [Record([-float("inf")])]):
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_json(path, bad)
        assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json"]

    # a write that fails once the temp file is complete, for both writers
    blob = tmp_path / "b.tnsr"
    save_tensor(blob, np.arange(6.0).reshape(2, 3))
    before_blob = blob.read_bytes()

    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", dst)

    monkeypatch.setattr(os, "replace", refuse)
    for write, target, old in [
        (lambda: save_json(path, {"ok": False}), path, before),
        (lambda: save_tensor(blob, np.ones((4, 4))), blob, before_blob),
    ]:
        with pytest.raises(PermissionError) as info:
            write()
        assert info.value.filename == str(target)
        assert target.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.tnsr"]


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


def _blob_member(obj, member):
    return member(obj["blob"])


@pytest.mark.parametrize(
    "name",
    [5, None, "", ".", "..", "a/b", "../x.tnsr", "{tmp}/x.tnsr", "x\0.tnsr"],
    ids=["int", "null", "empty", "dot", "dotdot", "subdir", "parent", "absolute", "nul"],
)
def test_load_index_member_must_be_a_plain_file_name(tmp_path, name):
    # the one member-name rule: an index names files in its own directory only
    if isinstance(name, str):
        name = name.format(tmp=tmp_path)
        save_tensor(tmp_path / "x.tnsr", np.zeros(2))  # "../x.tnsr" and "/.../x.tnsr" exist
    save_index(tmp_path / "d", "index.json", {"blob": name})
    with pytest.raises(FormatError, match="not a plain file name") as info:
        load_index(tmp_path / "d", "index.json", "test index", _blob_member)
    assert f"test index {tmp_path / 'd' / 'index.json'}" in str(info.value)


def test_load_index_member_is_its_path_in_the_index_directory(tmp_path):
    save_index(tmp_path, "index.json", {"blob": "layer0.router.tnsr"})
    member = load_index(tmp_path, "index.json", "test index", _blob_member)
    assert member == os.path.join(tmp_path, "layer0.router.tnsr")


def test_save_index_writes_each_member_then_the_index_last(tmp_path, monkeypatch):
    written = []
    write = numerics._write_atomic
    monkeypatch.setattr(
        numerics, "_write_atomic", lambda path, data: (written.append(path), write(path, data))
    )
    arr = np.arange(6.0).reshape(2, 3)
    out = tmp_path / "new" / "dir"
    save_index(out, "index.json", {"blob": "a.tnsr"}, [("a.tnsr", arr), ("b.json", {"k": [1]})])
    assert [os.path.basename(p) for p in written] == ["a.tnsr", "b.json", "index.json"]
    assert load_tensor(out / "a.tnsr").tobytes() == arr.tobytes()
    assert json.loads((out / "b.json").read_text()) == {"k": [1]}
    assert json.loads((out / "index.json").read_text()) == {"blob": "a.tnsr"}

    # a writer is held to the same rule, and a refused member leaves no index
    with pytest.raises(ValueError, match="not a plain file name"):
        save_index(tmp_path / "bad", "index.json", {}, [("a.tnsr", arr), ("../b.json", {})])
    assert sorted(os.listdir(tmp_path / "bad")) == ["a.tnsr"]


def test_save_index_removes_only_the_unlisted_files_it_owns(tmp_path, monkeypatch):
    arr = np.zeros(2)
    save_index(tmp_path, "index.json", {}, [(f"sample{i}.tnsr", arr) for i in range(3)],
               owns="sample*.tnsr")
    for name in ("notes.txt", "sample.json", "layer0.tnsr", "sample9.tnsr.tmp"):
        (tmp_path / name).write_text("other\n")
    events = []
    write, remove = numerics._write_atomic, os.remove
    monkeypatch.setattr(numerics, "_write_atomic", lambda path, data: (
        events.append(("write", os.path.basename(path))), write(path, data)))
    monkeypatch.setattr(os, "remove", lambda path: (
        events.append(("remove", os.path.basename(path))), remove(path)))
    save_index(tmp_path, "index.json", {"n": 1}, [("sample1.tnsr", arr)], owns="sample*.tnsr")
    # the members, the index, and only then the files it no longer lists
    assert events[:2] == [("write", "sample1.tnsr"), ("write", "index.json")]
    assert sorted(events[2:]) == [("remove", "sample0.tnsr"), ("remove", "sample2.tnsr")]
    assert sorted(os.listdir(tmp_path)) == [
        "index.json", "layer0.tnsr", "notes.txt", "sample.json", "sample1.tnsr", "sample9.tnsr.tmp"]
