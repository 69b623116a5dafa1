"""Dense float64 kernels, deterministic randomness, and the on-disk formats:
`.tnsr` blobs and JSON artifacts.

Matrices are plain 2-D float64 numpy arrays (row-major).  The PRNG is
SplitMix64, spelled out in full so that generated models are bit-identical
across machines and reimplementations; numpy's own generators are never used
for anything that ends up in a file.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .errors import FormatError

_MASK64 = (1 << 64) - 1

TNSR_MAGIC = b"TNSR"
TNSR_VERSION = 1


class Rng:
    """SplitMix64 stream.

    state' = state + 0x9E3779B97F4A7C15  (mod 2^64)
    z = state'
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9  (mod 2^64)
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB  (mod 2^64)
    output = z ^ (z >> 31)

    Single-owner: never share one instance across concurrent tasks; use
    spawn() to derive independent child streams instead.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        # 53-bit mantissa draw in [0, 1), affinely mapped
        u = (self.next_u64() >> 11) * 2.0**-53
        return lo + (hi - lo) * u

    def uniform_array(self, shape: tuple[int, ...], lo: float, hi: float) -> np.ndarray:
        out = np.empty(int(np.prod(shape)), dtype=np.float64)
        for i in range(out.size):
            out[i] = self.uniform(lo, hi)
        return out.reshape(shape)

    def randrange(self, n: int) -> int:
        """Integer in [0, n). Modulo bias of n/2^64 is accepted and documented."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        return self.next_u64() % n

    def choice_weighted(self, weights: np.ndarray) -> int:
        """Index drawn with probability proportional to nonnegative weights.

        Scans the running sum for the first index that strictly exceeds
        u * total, so zero-weight entries are never chosen.  The total is
        accumulated in the same order as the scan, which guarantees the scan
        terminates (threshold < total == final running sum).
        """
        total = 0.0
        for w in weights:
            total += float(w)
        if total <= 0.0:
            raise ValueError("choice_weighted needs a positive total weight")
        threshold = self.uniform() * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += float(w)
            if acc > threshold:
                return i
        raise AssertionError("unreachable: threshold below total")

    def spawn(self) -> "Rng":
        return Rng(self.next_u64())


def matmul_transpose(h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """h @ w.T with an explicit inner-dimension check."""
    h = np.asarray(h, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if h.ndim != 2 or w.ndim != 2 or h.shape[1] != w.shape[1]:
        raise ValueError(
            f"matmul_transpose: inner dimensions disagree, got {h.shape} and {w.shape}"
        )
    return h @ w.T


def softmax(v: np.ndarray) -> np.ndarray:
    """Stable softmax of a 1-D vector of finite entries."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("softmax needs a nonempty 1-D vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("softmax input must be finite")
    e = np.exp(v - np.max(v))
    return e / e.sum()


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax; -inf entries are allowed and get weight 0."""
    logits = np.asarray(logits, dtype=np.float64)
    m = np.max(logits, axis=1, keepdims=True)
    e = np.exp(logits - m)
    return e / e.sum(axis=1, keepdims=True)


def l2_norm(v: np.ndarray) -> float:
    v = np.asarray(v, dtype=np.float64)
    return float(np.sqrt(np.dot(v, v)))


def save_tensor(path, arr: np.ndarray) -> None:
    """Write `.tnsr`: b"TNSR", version byte 1, u32 LE rank, u32 LE dims,
    row-major little-endian f64 payload."""
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    with open(path, "wb") as f:
        f.write(TNSR_MAGIC)
        f.write(bytes([TNSR_VERSION]))
        f.write(struct.pack("<I", arr.ndim))
        for dim in arr.shape:
            f.write(struct.pack("<I", dim))
        f.write(arr.astype("<f8").tobytes())


def load_tensor(path) -> np.ndarray:
    """Read a `.tnsr` blob; anything but exactly one finite tensor in the
    file is a FormatError naming it."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise FormatError(f"cannot read tensor {path}: {e}") from e
    if data[:4] != TNSR_MAGIC:
        raise FormatError(f"{path}: bad magic, not a .tnsr file")
    if len(data) < 5 or data[4] != TNSR_VERSION:
        raise FormatError(f"{path}: unsupported .tnsr version")
    try:
        (rank,) = struct.unpack_from("<I", data, 5)
        dims = struct.unpack_from(f"<{rank}I", data, 9)
    except struct.error as e:
        raise FormatError(f"{path}: truncated header") from e
    off = 9 + 4 * rank
    end = off + 8 * math.prod(dims)
    if len(data) < end:
        raise FormatError(f"{path}: unexpected end of tensor payload")
    if len(data) > end:
        raise FormatError(f"{path}: {len(data) - end} trailing bytes after tensor payload")
    arr = np.frombuffer(data, dtype="<f8", offset=off)
    if not np.all(np.isfinite(arr)):
        raise FormatError(f"{path}: non-finite entry in tensor payload")
    return arr.reshape(dims).astype(np.float64)


def save_json(path, obj) -> None:
    """Write obj as JSON with indent=2 and a trailing newline.

    The bytes go to `path + ".tmp"` first and replace `path` only once
    complete, so a stage that fails or is interrupted mid-write leaves the
    previous file, or none, never a partial one."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as f:
            json.dump(obj, f, indent=2)
            f.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_json(path, what: str, parse=lambda obj: obj):
    """Read a JSON artifact and return parse(decoded object).

    `parse` indexes and converts what its caller needs.  An unreadable file,
    bad JSON, and a missing key or value of the wrong type or range met by
    `parse` all raise one FormatError naming `what` and the path."""
    try:
        with open(path) as f:
            return parse(json.load(f))
    except OSError as e:
        raise FormatError(f"cannot read {what} {path}: {e}") from e
    except KeyError as e:
        raise FormatError(f"{what} {path} has no key {e}") from e
    except (ValueError, TypeError, IndexError, AttributeError) as e:
        raise FormatError(f"malformed {what} {path}: {e}") from e
