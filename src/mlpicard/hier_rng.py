"""Deterministic splittable randomness addressed by hierarchical integer paths.

Every random quantity in this package is a pure function of
(master seed, index path, purpose tag, draw position).  Re-evaluating a
random object therefore reuses exactly the same underlying randomness
without storing anything, which is what makes the recursive estimator in
:mod:`mlpicard.mlp` a well-defined random function of its index.

The construction is counter-based: a keyed BLAKE2b hash mixes the canonical
encoding of (path, tag, block counter) under the 64-bit master seed, and the
digest words are mapped to uniforms or, through the inverse normal CDF, to
Gaussians.  There are no rejection loops and no hidden state, so outputs are
bit-reproducible and safe to compute concurrently.

Uniform draws take values in [0, 1); the closed right endpoint would be a
measure-zero distinction with no observable effect at 53-bit resolution.

Two caches save re-encoding and change no output: a key encodes its path
once, when it is made, and keeps the bytes (``IndexKey.path_bytes``), and
the block and (step, block) counter suffixes live in small bounded LRU
tables keyed by their sizes.  The tables start empty; nothing is built at
import time.

Batched forms serve the estimator, which addresses thousands of sibling
keys per realization: :func:`children` extends many keys by many
extensions, validating and encoding each extension once and reusing the
parent's encoded coordinates, and :func:`batch_uniform` and
:func:`batch_step_normals` hash each key with one hasher primed with its
path, copied from one keyed hasher per seed, and map the digests of all
keys in one vector pass; :func:`batch_step_normals` hashes only as many
steps of each key as its caller asks for.  Every output equals the one-key
function's, bit for bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice, repeat
from typing import Optional, Sequence, Union

import numpy as np
from scipy.special import ndtri

__all__ = [
    "IndexKey",
    "batch_step_normals",
    "batch_uniform",
    "child",
    "children",
    "derive_seed",
    "normals",
    "step_normals",
    "uniform",
    "uniforms",
]

Tag = Union[int, str]

_SEED_MASK = (1 << 64) - 1
_WORDS_PER_BLOCK = 8  # 64-byte digest -> eight little-endian u64 words
_INV_2_53 = 1.0 / (1 << 53)
_INT_TAG = b"I"
_SUFFIX_TABLES = 64  # (steps, blocks) suffix tables kept; a grid run uses a handful


def _varint(n: int) -> bytes:
    # LEB128 for non-negative integers.
    if n < 0:
        raise ValueError(f"varint requires a non-negative integer, got {n}")
    out = bytearray()
    while n > 0x7F:
        out.append(n & 0x7F | 0x80)
        n >>= 7
    out.append(n)
    return bytes(out)


def _tag_bytes(tag: Tag) -> bytes:
    # Type byte keeps integer tags and string tags in disjoint namespaces.
    if isinstance(tag, bool):
        raise TypeError("boolean purpose tags are ambiguous; use int or str")
    if isinstance(tag, int):
        return _INT_TAG + _varint(tag)
    if isinstance(tag, str):
        enc = tag.encode("utf-8")
        return b"S" + _varint(len(enc)) + enc
    raise TypeError(f"purpose tag must be int or str, got {type(tag).__name__}")


@dataclass(frozen=True, slots=True)
class IndexKey:
    """Address of one independent random object: master seed plus integer path.

    Keys with equal (seed, path) produce bit-identical output for the same
    purpose tag; distinct keys address statistically independent streams.
    The path plays the role of a hierarchical index: extending it with
    :func:`child` never perturbs the streams of the parent.  ``path_bytes``
    is ``_path_bytes(path)``, encoded once when the key is made.
    """

    seed: int
    path: tuple[int, ...] = ()
    path_bytes: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", int(self.seed) & _SEED_MASK)
        path = tuple(map(int, self.path))
        if min(path, default=0) < 0:
            raise ValueError(f"index path must be non-negative, got {path}")
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "path_bytes", _path_bytes(path))


def child(key: IndexKey, extension: Sequence[int]) -> IndexKey:
    """Return ``key`` with its path extended; the input is never mutated."""
    (sub,) = children((key,), (extension,))
    return sub


def children(keys: Sequence[IndexKey], extensions: Sequence[Sequence[int]]) -> list[IndexKey]:
    """``[child(key, ext) for key in keys for ext in extensions]``, key-major.

    Each extension is validated and encoded once; a child's encoded path is
    a new length prefix, its parent's encoded coordinates and the
    extension's, so the work per child does not grow with the parent's path.
    """
    encoded = []
    for extension in extensions:
        ext = tuple(map(int, extension))
        if min(ext, default=0) < 0:
            raise ValueError(f"index path must be non-negative, got extension {ext}")
        encoded.append((ext, _coord_bytes(ext)))
    headers: dict[int, bytes] = {}  # length prefix per path length
    setattr_ = object.__setattr__
    out = []
    for key in keys:
        seed, path = key.seed, key.path
        coords = key.path_bytes[len(_frame(len(path), b"")) :]
        for ext, ext_coords in encoded:
            length = len(path) + len(ext)
            header = headers.get(length)
            if header is None:
                header = headers[length] = _frame(length, b"")
            # the fields are final and validated, so __init__ is bypassed
            sub = object.__new__(IndexKey)
            setattr_(sub, "seed", seed)
            setattr_(sub, "path", path + ext)
            setattr_(sub, "path_bytes", header + coords + ext_coords)
            out.append(sub)
    return out


def _coord_bytes(path: tuple[int, ...]) -> bytes:
    return b"".join(map(_varint, path))


def _frame(length: int, coords: bytes) -> bytes:
    # Length-prefixed varints make the encoding prefix-free: paths like
    # (1, 23) and (12, 3) can never collide.  The leading domain byte keeps
    # draw messages disjoint from seed-derivation messages.
    return b"W" + _varint(length) + coords


def _path_bytes(path: tuple[int, ...]) -> bytes:
    return _frame(len(path), _coord_bytes(path))


@lru_cache(maxsize=_SUFFIX_TABLES)
def _block_suffixes(blocks: int) -> tuple[bytes, ...]:
    """Block-counter suffixes of one (key, tag) stream."""
    return tuple(_varint(blk) for blk in range(blocks))


@lru_cache(maxsize=_SUFFIX_TABLES)
def _step_suffixes(steps: int, blocks: int) -> tuple[bytes, ...]:
    """(integer tag, block counter) suffixes for tags 0..steps-1, tag-major."""
    per_step = _block_suffixes(blocks)
    return tuple(_varint(k) + blk for k in range(steps) for blk in per_step)


def _hash_suffixes(
    keys: Sequence[IndexKey],
    prefix: bytes,
    suffixes: Sequence[bytes],
    counts: Optional[Sequence[int]] = None,
) -> bytearray:
    """Joined 64-byte keyed digests of ``key.path_bytes + prefix + suffix``,
    key-major, then in suffix order; key i takes the first ``counts[i]``
    suffixes, all of them when ``counts`` is None.

    Each key's hasher is copied from its seed's keyed hasher, absorbs its
    path and the shared prefix once and is copied per suffix.
    """
    if counts is None:
        counts = repeat(len(suffixes))
    seeded = {}  # per seed: its keyed hasher, nothing absorbed yet
    digests = bytearray()
    for key, count in zip(keys, counts):
        base = seeded.get(key.seed)
        if base is None:
            base = seeded[key.seed] = hashlib.blake2b(
                key=key.seed.to_bytes(8, "little"), digest_size=64
            )
        primed = base.copy()
        primed.update(key.path_bytes + prefix)
        for suffix in islice(suffixes, count):
            hasher = primed.copy()
            hasher.update(suffix)
            digests += hasher.digest()
    return digests


def _digests(key: IndexKey, tag: Tag, blocks: int) -> bytearray:
    """``blocks`` joined 64-byte digests for (key, tag), counter-based."""
    return _hash_suffixes((key,), _tag_bytes(tag), _block_suffixes(blocks))


def _words(key: IndexKey, tag: Tag, count: int) -> np.ndarray:
    """``count`` pseudo-random u64 words for (key, tag)."""
    if count < 0:
        raise ValueError(f"word count must be non-negative, got {count}")
    blocks = -(-count // _WORDS_PER_BLOCK)
    return np.frombuffer(_digests(key, tag, blocks), dtype="<u8")[:count]


def _gaussians(words: np.ndarray, variance: float) -> np.ndarray:
    if variance < 0:
        raise ValueError(f"variance must be non-negative, got {variance}")
    # Shift into the open interval (0, 1) so ndtri stays finite.
    u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * _INV_2_53
    return ndtri(u) * np.sqrt(variance)


def uniform(key: IndexKey, tag: Tag) -> float:
    """One uniform draw in [0, 1), deterministic in (key, tag)."""
    word = int.from_bytes(_digests(key, tag, 1)[:8], "little")
    return (word >> 11) * _INV_2_53


def batch_uniform(keys: Sequence[IndexKey], tag: Tag) -> np.ndarray:
    """``uniform(key, tag)`` for each key, as one array, bit for bit."""
    words = np.frombuffer(_hash_suffixes(keys, _tag_bytes(tag), _block_suffixes(1)), dtype="<u8")
    return (words[::_WORDS_PER_BLOCK] >> np.uint64(11)).astype(np.float64) * _INV_2_53


def uniforms(key: IndexKey, tag: Tag, count: int) -> np.ndarray:
    """``count`` i.i.d. uniform draws in [0, 1) for one (key, tag) stream."""
    words = _words(key, tag, count)
    return (words >> np.uint64(11)).astype(np.float64) * _INV_2_53


def normals(key: IndexKey, tag: Tag, count: int, variance: float = 1.0) -> np.ndarray:
    """``count`` i.i.d. centered normal draws with the given variance.

    Uses the inverse normal CDF on counter-based uniforms shifted into the
    open interval (0, 1), so generation is rejection-free and deterministic.
    """
    return _gaussians(_words(key, tag, count), variance)


def step_normals(key: IndexKey, steps: int, dim: int, variance: float = 1.0) -> np.ndarray:
    """Row k is ``normals(key, k, dim, variance)`` for k = 0..steps-1, bit for bit."""
    return batch_step_normals((key,), steps, dim, variance)[0]


def batch_step_normals(
    keys: Sequence[IndexKey],
    steps: int,
    dim: int,
    variance: float = 1.0,
    counts: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """``step_normals(key, steps, dim, variance)`` for each key, stacked; key
    i's rows from ``counts[i]`` on are zero and not hashed (no row is when
    ``counts`` is None).

    The result has shape (len(keys), steps, dim).  A key's rows share the
    message prefix (path and integer-tag marker), so its keyed hasher is
    primed with it once and copied for each (step, block) suffix; the
    digests of all keys are then mapped to Gaussians in one vector pass.
    """
    if steps < 0 or dim < 0:
        raise ValueError(f"steps and dim must be non-negative, got {steps}, {dim}")
    blocks = -(-dim // _WORDS_PER_BLOCK)
    filled = np.full(len(keys), steps) if counts is None else np.asarray(counts, dtype=np.intp)
    if len(filled) != len(keys) or not np.all((filled >= 0) & (filled <= steps)):
        raise ValueError(f"need one step count in [0, {steps}] per key, got {counts}")
    # the message of integer tag k is the path, _INT_TAG and _varint(k)
    # one table serves every step count up to the next power of two
    table = _step_suffixes(1 << max(steps - 1, 0).bit_length(), blocks)
    digests = _hash_suffixes(keys, _INT_TAG, table, (filled * blocks).tolist())
    words = np.frombuffer(digests, dtype="<u8")
    words = words.reshape(int(filled.sum()), blocks * _WORDS_PER_BLOCK)
    out = np.zeros((len(keys), steps, dim))
    out[np.arange(steps) < filled[:, None]] = _gaussians(words[:, :dim], variance)
    return out


def derive_seed(seed: int, *components: Tag) -> int:
    """Derive an independent 64-bit seed from a master seed and labels.

    Used to fan out repetitions of an experiment: each (seed, labels)
    combination gives a fresh master seed whose keyed streams are unrelated
    to the parent's.
    """
    skey = (int(seed) & _SEED_MASK).to_bytes(8, "little")
    msg = bytearray(b"D")
    msg += _varint(len(components))
    for comp in components:
        msg += _tag_bytes(comp)
    digest = hashlib.blake2b(bytes(msg), key=skey, digest_size=8).digest()
    return int.from_bytes(digest, "little")
