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

Caches save re-encoding and change no output: the encoded extension lists
of :func:`children` and the counter suffixes live in small bounded LRU
tables, which start empty.

Keys come in *key batches* only: :func:`pack` makes one from plain
``(seed, path)`` pairs of one depth and :func:`children` extends every key
of one, and every draw takes one and returns one row per key.  A batch is
a :class:`KeyBatch`: the master seeds, the one path length of all its keys
(in the estimator every sample below an index is that index extended by
one triple), and each key's LEB128 coordinates.  Only this module reads its
fields.  The batch's one length header is absorbed once per seed into a
keyed hasher, and each key's hasher is a copy of its seed's (a one-block
draw is one copy absorbing the rest of its message; a multi-block key
primes a copy with its coordinates and copies it per block but the last);
all digests are mapped in one vector pass, and :func:`batch_step_normals`
hashes only the steps its caller asks for.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from itertools import islice, repeat
from typing import Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np
from scipy.special import ndtri

__all__ = [
    "batch_normals",
    "batch_step_normals",
    "batch_uniforms",
    "children",
    "derive_seed",
    "pack",
]

Tag = Union[int, str]


class KeyBatch(NamedTuple):
    """Keys of one depth: master seeds and encoded coordinates, in parallel."""

    seeds: list[int]
    depth: int  # the path length of every key
    coords: list[bytes]  # LEB128 coordinates of each path, no length header


_SEED_MASK = (1 << 64) - 1
_WORDS_PER_BLOCK = 8  # 64-byte digest -> eight little-endian u64 words
_INV_2_53 = 1.0 / (1 << 53)
_INT_TAG = b"I"
_SUFFIX_TABLES = 64  # suffix and extension tables kept; a grid run uses a handful


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


def pack(pairs: Iterable[tuple[int, Sequence[int]]]) -> KeyBatch:
    """The key batch of ``(seed, path)`` pairs of one depth, in order.

    Equal pairs address bit-identical streams for the same purpose tag and
    distinct pairs statistically independent ones; extending a path with
    :func:`children` never perturbs the streams of its parent.  Seeds are
    reduced mod 2**64 and integer-valued coordinates are normalized; paths
    of mixed length or a negative coordinate raise ValueError.
    """
    pairs = list(pairs)
    depth, coords = _encode([path for _, path in pairs], "keys")
    return KeyBatch([int(seed) & _SEED_MASK for seed, _ in pairs], depth, list(coords))


def children(keys: KeyBatch, extensions: Sequence[Sequence[int]]) -> KeyBatch:
    """The key batch of every key of ``keys`` with its path extended by
    every extension, key-major; the parents are never mutated.

    The extensions must share one length, else ValueError, so the children
    share one depth too.
    """
    length, exts = _extension_coords(tuple(map(tuple, extensions)))
    coords = [c + ext for c in keys.coords for ext in exts]
    return KeyBatch([seed for seed in keys.seeds for _ in exts], keys.depth + length, coords)


@lru_cache(maxsize=_SUFFIX_TABLES)
def _extension_coords(extensions: tuple[tuple[int, ...], ...]) -> tuple[int, tuple[bytes, ...]]:
    """``_encode`` of an extension list, cached."""
    return _encode(extensions, "extensions")


def _encode(paths: Sequence[Sequence[int]], what: str) -> tuple[int, tuple[bytes, ...]]:
    """(the one length of ``paths``, the LEB128 coordinates of each); mixed
    lengths or a negative coordinate (in ``_varint``) raise ValueError."""
    paths = [tuple(map(int, path)) for path in paths]
    lengths = sorted(set(map(len, paths)))
    if len(lengths) > 1:
        raise ValueError(f"{what} must share one length, got lengths {lengths}")
    return (lengths[0] if lengths else 0), tuple(b"".join(map(_varint, p)) for p in paths)


@lru_cache(maxsize=_SUFFIX_TABLES)
def _block_suffixes(blocks: int) -> tuple[bytes, ...]:
    """Block-counter suffixes of one (key, tag) stream."""
    return tuple(_varint(blk) for blk in range(blocks))


@lru_cache(maxsize=_SUFFIX_TABLES)
def _step_suffixes(steps: int, blocks: int) -> tuple[bytes, ...]:
    """(integer tag, block counter) suffixes for tags 0..steps-1, tag-major."""
    per_step = _block_suffixes(blocks)
    return tuple(_varint(k) + blk for k in range(steps) for blk in per_step)


def _seed_hashers(keys: KeyBatch) -> dict:
    """One keyed hasher per distinct seed of ``keys``, primed with the
    batch's length header.

    Length-prefixed varints make the encoding prefix-free: paths like
    (1, 23) and (12, 3) can never collide.  The leading domain byte keeps
    draw messages disjoint from seed-derivation messages.
    """
    header = b"W" + _varint(keys.depth)
    return {seed: hashlib.blake2b(header, key=seed.to_bytes(8, "little"), digest_size=64)
            for seed in set(keys.seeds)}


def _hash_suffixes(
    keys: KeyBatch,
    prefix: bytes,
    suffixes: Sequence[bytes],
    counts: Optional[Sequence[int]] = None,
) -> bytearray:
    """Joined 64-byte keyed digests of ``path + prefix + suffix``, key-major,
    then in suffix order; key i takes the first ``counts[i]`` suffixes, all
    of them when ``counts`` is None.

    Each key with one suffix to take copies its seed's primed hasher, which
    absorbs the rest of the message in one update.  Each key with more
    copies it, absorbs its coordinates and the shared prefix once, is copied
    per suffix but the last and absorbs the last itself.
    """
    if counts is None:
        counts = repeat(len(suffixes))
    hashers = _seed_hashers(keys)
    single = prefix + suffixes[0] if suffixes else b""
    digests = bytearray()
    for seed, coords, count in zip(keys.seeds, keys.coords, counts):
        if count == 1:
            hasher = hashers[seed].copy()
            hasher.update(coords + single)
            digests += hasher.digest()
            continue
        if not count:
            continue
        primed = hashers[seed].copy()
        primed.update(coords + prefix)
        for suffix in islice(suffixes, count - 1):
            hasher = primed.copy()
            hasher.update(suffix)
            digests += hasher.digest()
        primed.update(suffixes[count - 1])
        digests += primed.digest()
    return digests


def _words(keys: KeyBatch, tag: Tag, count: int) -> np.ndarray:
    """``count`` pseudo-random u64 words for (key, tag), one row per key."""
    if count < 0:
        raise ValueError(f"word count must be non-negative, got {count}")
    blocks = -(-count // _WORDS_PER_BLOCK)
    digests = _hash_suffixes(keys, _tag_bytes(tag), _block_suffixes(blocks))
    words = np.frombuffer(digests, dtype="<u8")
    words = words.reshape(len(keys.coords), blocks * _WORDS_PER_BLOCK)
    return words[:, :count]


def _gaussians(words: np.ndarray, variance: float) -> np.ndarray:
    if variance < 0:
        raise ValueError(f"variance must be non-negative, got {variance}")
    # Shift into the open interval (0, 1) so ndtri stays finite.
    u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * _INV_2_53
    return ndtri(u) * np.sqrt(variance)


def batch_uniforms(keys: KeyBatch, tag: Tag, count: int) -> np.ndarray:
    """``count`` i.i.d. uniform draws in [0, 1) per key of the batch, for
    its (key, tag) stream, in shape (number of keys, count)."""
    return (_words(keys, tag, count) >> np.uint64(11)).astype(np.float64) * _INV_2_53


def batch_normals(keys: KeyBatch, tag: Tag, count: int, variance: float = 1.0) -> np.ndarray:
    """``count`` i.i.d. centered normal draws with the given variance per key
    of the batch, for its (key, tag) stream, in shape (number of keys, count).

    Uses the inverse normal CDF on counter-based uniforms shifted into the
    open interval (0, 1), so generation is rejection-free and deterministic.
    """
    return _gaussians(_words(keys, tag, count), variance)


def batch_step_normals(
    keys: KeyBatch,
    steps: int,
    dim: int,
    variance: float = 1.0,
    counts: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Row k of key i is the ``batch_normals`` row of key i under integer
    tag k, ``dim`` draws, bit for bit, for k = 0..steps-1; key i's rows from
    ``counts[i]`` on are zero and not hashed (no row is when ``counts`` is
    None).

    The result has shape (number of keys, steps, dim).  A key's rows share the
    message prefix (path and integer-tag marker), so its keyed hasher is
    primed with it once and copied for each (step, block) suffix; the
    digests of all keys are then mapped to Gaussians in one vector pass.
    """
    if steps < 0 or dim < 0:
        raise ValueError(f"steps and dim must be non-negative, got {steps}, {dim}")
    blocks = -(-dim // _WORDS_PER_BLOCK)
    size = len(keys.coords)
    filled = np.full(size, steps) if counts is None else np.asarray(counts, dtype=np.intp)
    if len(filled) != size or not np.all((filled >= 0) & (filled <= steps)):
        raise ValueError(f"need one step count in [0, {steps}] per key, got {counts}")
    # the message of integer tag k is the path, _INT_TAG and _varint(k)
    # one table serves every step count up to the next power of two
    table = _step_suffixes(1 << max(steps - 1, 0).bit_length(), blocks)
    digests = _hash_suffixes(keys, _INT_TAG, table, (filled * blocks).tolist())
    words = np.frombuffer(digests, dtype="<u8")
    words = words.reshape(int(filled.sum()), blocks * _WORDS_PER_BLOCK)
    out = np.zeros((size, steps, dim))
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
