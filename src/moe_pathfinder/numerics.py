"""Dense float64 kernels, deterministic randomness, and the on-disk formats:
`.tnsr` blobs, JSON artifacts and multi-file indexes, each written atomically.

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
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

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
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        # 53-bit mantissa draw in [0, 1), affinely mapped
        u = (self.next_u64() >> 11) * 2.0**-53
        return lo + (hi - lo) * u

    def uniform_array(self, shape: tuple[int, ...], lo: float, hi: float) -> np.ndarray:
        """The next prod(shape) uniform(lo, hi) draws in row-major order, bit
        for bit.  Draw i = 1..n mixes state + i * gamma (mod 2^64), so all n
        are mixed as one uint64 array.  Every wrapping operation stays on
        arrays: numpy checks a scalar uint64 multiply for overflow."""
        n = math.prod(shape)
        z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(self._state)
        self._state = (self._state + n * _GAMMA) & _MASK64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        u = ((z ^ (z >> np.uint64(31))) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return (lo + (hi - lo) * u).reshape(shape)

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


def strict(fn, *args):
    """fn(*args) with numpy overflow, invalid values and division by zero
    raised as FloatingPointError; a module-level function, so that it also
    holds in worker processes."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        return fn(*args)


def pairwise_sum(rows: np.ndarray) -> np.ndarray:
    """rows[0] + rows[1] + ... elementwise, added in the order numpy's
    pairwise summation adds the terms of one contiguous row: one by one
    from 0 under 8 terms, in 8 running sums combined pairwise from 8 to 128,
    split in halves at a multiple of 8 above that.  So summing the columns
    of a transposed array is bit-identical to `a.sum(axis=1)`, as vector
    operations over the rows instead of one short reduction per row."""
    n = len(rows)
    if n < 8:
        total = rows[0] + 0.0
        for row in rows[1:]:
            total += row
        return total
    if n <= 128:
        acc = rows[:8].copy()
        tail = n - n % 8
        for i in range(8, tail, 8):
            acc += rows[i:i + 8]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for row in rows[tail:]:
            total += row
        return total
    half = n // 2 - n // 2 % 8
    return pairwise_sum(rows[:half]) + pairwise_sum(rows[half:])


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax of T x n logits; -inf entries are allowed
    and get weight 0.

    Each step runs on the n x T transpose as a vector operation over all T
    rows at once, not as one n-wide reduction per row; the sum is
    pairwise_sum.  Each row's max, exp, sum and quotient are bit for bit
    those of the row-wise form `e = exp(x - x.max(axis=1)); e / e.sum(axis=1)`.
    Returns a C-contiguous T x n array."""
    e = np.asarray(logits, dtype=np.float64).T.copy()
    e -= e.max(axis=0)
    np.exp(e, out=e)
    e /= pairwise_sum(e)
    return e.T.copy()


def save_tensor(path, arr: np.ndarray) -> None:
    """Write `.tnsr`: b"TNSR", version byte 1, u32 LE rank, u32 LE dims,
    row-major little-endian f64 payload.  Written atomically."""
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    header = struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape)
    _write_atomic(
        path, TNSR_MAGIC + bytes([TNSR_VERSION]) + header + arr.astype("<f8").tobytes()
    )


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


def _write_atomic(path, data: bytes) -> None:
    """Write data to `path + ".tmp"` and only then replace `path` with it, so
    a stage that fails or is interrupted mid-write leaves the previous file,
    or none, never a partial one.  An OSError is re-raised naming `path`."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException as e:
        if os.path.exists(tmp):
            os.remove(tmp)
        if isinstance(e, OSError):
            raise OSError(e.errno, e.strerror, os.fspath(path)) from e
        raise


def save_json(path, obj) -> None:
    """Write obj as JSON with indent=2 and a trailing newline, atomically."""
    _write_atomic(path, (json.dumps(obj, indent=2) + "\n").encode())


def as_index(value, what: str, lo: int | None = 0, hi: int | None = None) -> int:
    """`value` as a JSON integer with lo <= value < hi (no bound where lo or
    hi is None).  A bool, float or string, or a value out of range, is a
    ValueError naming `what`; under load_json, a FormatError naming the file."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if (lo is not None and value < lo) or (hi is not None and value >= hi):
        bounds = f"[{lo if lo is not None else '-inf'}, {hi if hi is not None else 'inf'})"
        raise ValueError(f"{what} {value} is outside {bounds}")
    return value


def as_finite(value, what: str) -> float:
    """`value` as a finite JSON number; anything else is a ValueError naming
    `what`, as in as_index."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return float(value)


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


def _member(dirpath, file) -> str:
    """`file`'s path in `dirpath`, if it is a plain file name: a non-string,
    "", ".", "..", or a name holding a path separator or NUL is a ValueError."""
    bad = not isinstance(file, str) or file in ("", ".", "..")
    if bad or set(file) & {os.sep, os.altsep, "\0"}:
        raise ValueError(f"member {file!r} is not a plain file name")
    return os.path.join(dirpath, file)


def save_index(dirpath, name: str, obj, members=()) -> None:
    """Create `dirpath`, write each (file, value) member, an ndarray as a
    `.tnsr` blob and anything else as JSON, and then, last, the index `name`
    holding obj: a write cut short leaves no new index over unwritten members."""
    os.makedirs(dirpath, exist_ok=True)
    for file, value in members:
        (save_tensor if isinstance(value, np.ndarray) else save_json)(_member(dirpath, file), value)
    save_json(os.path.join(dirpath, name), obj)


def load_index(dirpath, name: str, what: str, parse):
    """parse(obj, member) of the index `name` in `dirpath`; member(file) is
    `file`'s path there, and a bad name a FormatError naming the index."""
    path = os.path.join(dirpath, name)
    return load_json(path, what, lambda obj: parse(obj, lambda file: _member(dirpath, file)))
