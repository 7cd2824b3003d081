import hashlib
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import kstest, kstwobign

from mlpicard import brownian, hier_rng, mlp
from mlpicard.hier_rng import (
    IndexKey,
    batch_normals,
    batch_step_normals,
    batch_uniform,
    child,
    children,
    derive_seed,
    normals,
    pack,
    uniform,
    uniforms,
)

SEED = 0xC0FFEE


def step_normals(key, steps, dim, variance=1.0):
    """The step normals of one key: its rows of the batch of that key alone."""
    return batch_step_normals(pack((key,)), steps, dim, variance)[0]


def test_child_concatenation():
    assert child(IndexKey(5, (0,)), (2, 1, 1)) == IndexKey(5, (0, 2, 1, 1))
    key = IndexKey(5, (3, 4))
    assert child(key, ()) == key
    assert child(child(key, (1,)), (2,)) == child(key, (1, 2))


@given(
    st.lists(st.integers(min_value=0, max_value=1000), max_size=6),
    st.lists(st.integers(min_value=0, max_value=1000), max_size=6),
    st.lists(st.integers(min_value=0, max_value=1000), max_size=6),
)
def test_child_associativity(base, ext1, ext2):
    key = IndexKey(SEED, tuple(base))
    assert child(child(key, ext1), ext2) == child(key, tuple(ext1) + tuple(ext2))


def test_key_validation():
    with pytest.raises(ValueError):
        IndexKey(SEED, (1, -2))
    # seeds are reduced to 64 bits
    assert IndexKey(2**64 + 3).seed == 3


def test_determinism():
    key = IndexKey(SEED, (1, 2, 3))
    assert uniform(key, "u") == uniform(key, "u")
    assert np.array_equal(normals(key, 7, 5, 2.0), normals(key, 7, 5, 2.0))
    assert np.array_equal(uniforms(key, "block", 100), uniforms(key, "block", 100))


def test_uniform_range_and_batch_consistency():
    key = IndexKey(SEED, (9,))
    batch = uniforms(key, "u", 64)
    assert np.all((0.0 <= batch) & (batch < 1.0))
    assert batch[0] == uniform(key, "u")


def test_uniform_distribution_ks():
    # empirical CDF over 1e5 distinct keys vs the uniform CDF at the 1% level
    n = 10**5
    samples = np.array([uniform(IndexKey(SEED, (i,)), "ks") for i in range(n)])
    stat = kstest(samples, "uniform").statistic
    critical = kstwobign.ppf(0.99) / np.sqrt(n)
    assert stat < critical, (stat, critical)
    # CLT band for the mean: 0.5 +/- 3 / sqrt(12 n)
    assert abs(samples.mean() - 0.5) < 3.0 / np.sqrt(12.0 * n)


def test_gaussian_zero_variance_and_moments():
    assert np.all(normals(IndexKey(SEED), "g", 4, 0.0) == 0.0)
    assert normals(IndexKey(SEED), "g", 0, 1.0).shape == (0,)
    with pytest.raises(ValueError):
        normals(IndexKey(SEED), "g", -1, 1.0)
    with pytest.raises(ValueError):
        normals(IndexKey(SEED), "g", 3, -1.0)
    n = 10**5
    draws = np.array([normals(IndexKey(SEED, (i,)), "var", 2, 1.0) for i in range(n)])
    for coord in range(2):
        assert abs(draws[:, coord].var(ddof=1) - 1.0) < 0.05


def test_stream_separation():
    k1 = IndexKey(SEED, (1, 2))
    k2 = IndexKey(SEED, (1, 3))
    a = np.array([uniform(k1, t) for t in range(10**4)])
    b = np.array([uniform(k2, t) for t in range(10**4)])
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.05


def test_prefix_freeness():
    # perturbing one suffix coordinate must change the draw
    for i in range(10**4):
        base = IndexKey(SEED, (4, i))
        bumped = IndexKey(SEED, (4, i, 0))
        assert uniform(base, "p") != uniform(bumped, "p")
    assert uniform(IndexKey(SEED, (4, 0)), "p") != uniform(IndexKey(SEED, (4, 1)), "p")


def test_path_encoding_collision_free():
    assert uniform(IndexKey(SEED, (1, 23)), "t") != uniform(IndexKey(SEED, (12, 3)), "t")
    assert uniform(IndexKey(SEED, (1,)), "t") != uniform(IndexKey(SEED, (1, 0)), "t")
    assert uniform(IndexKey(SEED, ()), "t") != uniform(IndexKey(SEED, (0,)), "t")


def test_tag_namespaces():
    key = IndexKey(SEED, (2,))
    assert uniform(key, 1) != uniform(key, "1")
    with pytest.raises(TypeError):
        uniform(key, True)
    with pytest.raises(TypeError):
        uniform(key, 1.5)


def test_seed_sensitivity():
    assert uniform(IndexKey(1, (0,)), "s") != uniform(IndexKey(2, (0,)), "s")


def test_derive_seed():
    assert derive_seed(SEED, "rep", 3) == derive_seed(SEED, "rep", 3)
    assert derive_seed(SEED, "rep", 3) != derive_seed(SEED, "rep", 4)
    assert derive_seed(SEED, "rep") != derive_seed(SEED + 1, "rep")
    assert 0 <= derive_seed(SEED) < 2**64


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=64))
def test_normals_block_consistency(seed, count):
    # multi-block batches must agree with their own prefixes
    key = IndexKey(seed, (1,))
    full = normals(key, "blk", count, 1.0)
    assert np.array_equal(full[: count // 2], normals(key, "blk", count, 1.0)[: count // 2])
    assert full.shape == (count,)


@pytest.mark.parametrize("dim", [0, 1, 4, 8, 9, 17])
def test_step_normals_rows_are_per_step_normals(dim):
    # dims 8, 9 and 17 cross the 8-word digest block; paths with components
    # >= 128 take the multi-byte varint encoding
    for path in ((0, 4, 2, 1), (300, 1), ()):
        key = IndexKey(SEED, path)
        for steps in (0, 1, 130):
            got = step_normals(key, steps, dim, 0.25)
            assert got.shape == (steps, dim)
            want = np.array([normals(key, k, dim, 0.25) for k in range(steps)])
            assert got.tobytes() == want.tobytes(), (path, steps, dim)


def test_step_normals_validation():
    key = IndexKey(SEED, (1,))
    with pytest.raises(ValueError):
        step_normals(key, 4, 1, -1.0)
    with pytest.raises(ValueError):
        step_normals(key, -1, 1)
    with pytest.raises(ValueError):
        step_normals(key, 4, -1)
    assert np.all(step_normals(key, 3, 2, 0.0) == 0.0)


def leb128(n):
    out = bytearray()
    while True:
        byte, n = n & 0x7F, n >> 7
        out.append(byte | (0x80 if n else 0))
        if not n:
            return bytes(out)


def test_cached_path_encoding():
    # the cached encoding is the length-prefixed LEB128 one, single- and
    # multi-byte coordinates (>= 128, >= 16384) and long paths alike
    for path in ((), (0,), (0, 4, 2, 1), (127, 128), (300, 16383, 16384, 2**40),
                 tuple(range(130))):
        key = IndexKey(SEED, path)
        want = b"W" + leb128(len(path)) + b"".join(leb128(c) for c in path)
        assert hier_rng._path_bytes(path) == want
        assert key.path_bytes == want
        assert key.path_bytes is key.path_bytes  # encoded once
    # the cache is no part of the key's identity
    key = IndexKey(SEED, (300, 1))
    _ = key.path_bytes
    assert key == IndexKey(SEED, (300, 1))
    assert hash(key) == hash(IndexKey(SEED, (300, 1)))


def uncached_digests(key, tag, blocks):
    message = hier_rng._path_bytes(key.path) + hier_rng._tag_bytes(tag)
    seed = key.seed.to_bytes(8, "little")
    return b"".join(
        hashlib.blake2b(message + leb128(blk), key=seed, digest_size=64).digest()
        for blk in range(blocks)
    )


@pytest.mark.parametrize("path", [(0, 4, 2, 1), (300, 16384), ()])
def test_cached_tables_match_uncached_hashing(path):
    key = IndexKey(SEED, path)
    word = int.from_bytes(uncached_digests(key, "u", 1)[:8], "little")
    assert uniform(key, "u") == (word >> 11) * 2.0**-53
    for count in (1, 8, 9, 17):
        words = np.frombuffer(uncached_digests(key, "g", -(-count // 8)), dtype="<u8")[:count]
        u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        assert normals(key, "g", count, 2.0).tobytes() == (ndtri(u) * np.sqrt(2.0)).tobytes()
    for steps, dim in ((5, 1), (130, 9)):
        rows = []
        for k in range(steps):
            words = np.frombuffer(uncached_digests(key, k, -(-dim // 8)), dtype="<u8")[:dim]
            u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
            rows.append(ndtri(u) * np.sqrt(0.5))
        assert step_normals(key, steps, dim, 0.5).tobytes() == np.array(rows).tobytes()


def test_suffix_caches_bounded_and_empty_after_import():
    tables = (hier_rng._block_suffixes, hier_rng._step_suffixes, hier_rng._extension_coords,
              mlp._term_extensions, brownian._grid)
    for table in tables:
        assert table.cache_info().maxsize is not None
    for steps in range(1, 200):
        step_normals(IndexKey(SEED, (1,)), steps, 1)
    info = hier_rng._step_suffixes.cache_info()
    assert info.currsize <= info.maxsize
    probe = (
        "import mlpicard; from mlpicard import brownian, hier_rng, mlp; "
        "print(hier_rng._block_suffixes.cache_info().currsize, "
        "hier_rng._step_suffixes.cache_info().currsize, "
        "hier_rng._extension_coords.cache_info().currsize, "
        "mlp._term_extensions.cache_info().currsize, "
        "brownian._grid.cache_info().currsize)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.split() == ["0"] * len(tables)


def leb128_path(path):
    return b"W" + leb128(len(path)) + b"".join(leb128(c) for c in path)


def test_children_extend_the_encoded_path():
    # a packed child's encoding is one concatenation of its own length
    # header, its parent's encoded coordinates and the extension's, but must
    # equal the length-prefixed LEB128 encoding of the whole path: parents of
    # mixed depth and seed in one batch, single- and multi-byte coordinates,
    # extensions of mixed length, and length headers that cross 128 (a
    # 126-deep parent with a 3-long extension) or start beyond it
    parents = [IndexKey(SEED + i, p) for i, p in enumerate(
        ((), (0,), (127, 128), (300, 16383, 16384, 2**40), tuple(range(126)),
         tuple(range(130))))]
    extensions = [(), (0,), (2, 1, 1), (128, 16384), (2**40, 5, 127)]
    seeds, paths = children(pack(parents), extensions)
    assert len(seeds) == len(paths) == len(parents) * len(extensions)
    for i, key in enumerate(parents):
        for j, ext in enumerate(extensions):
            at = i * len(extensions) + j  # key-major
            want = hier_rng._path_bytes(key.path + ext)
            assert want == leb128_path(key.path + ext)
            assert (seeds[at], paths[at]) == (key.seed, want)
            assert pack([child(key, ext)]) == ([seeds[at]], [paths[at]])
    # grandchildren are built from the children's own encodings
    grand = children((seeds, paths), [(3, 129)])
    assert grand == (seeds, [leb128_path(key.path + ext + (3, 129))
                             for key in parents for ext in extensions])
    assert children(pack(parents), []) == ([], [])
    assert children(([], []), extensions) == ([], [])


def test_children_validate_the_extension():
    key = IndexKey(SEED, (1, 2))
    with pytest.raises(ValueError):
        child(key, (3, -1))
    with pytest.raises(ValueError):
        children(pack([key, key]), [(0,), (-5,)])
    with pytest.raises(ValueError):  # a refused list is not cached
        children(pack([key]), [(0,), (-5,)])
    # integer-valued coordinates are normalized like IndexKey's
    assert child(key, (np.int64(4),)).path == (1, 2, 4)
    assert type(child(key, (np.int64(4),)).path[-1]) is int
    assert children(pack([key]), [[np.int64(4)]]) == pack([IndexKey(SEED, (1, 2, 4))])


def test_key_pickles_with_its_encoding():
    for key in (IndexKey(SEED, (300, 1)), child(IndexKey(SEED, (0,)), (5, 2, 1))):
        again = pickle.loads(pickle.dumps(key))
        assert again == key and again.path_bytes == key.path_bytes


@pytest.mark.parametrize("dim", [1, 4, 9])
def test_batch_draws_equal_one_key_draws(dim):
    # the batched forms take a packed key batch (here of two seeds, part of
    # it made by children) and hash each key with its own hasher; every row
    # must equal the one-key function's output, bit for bit
    keys = [IndexKey(SEED, p) for p in ((0, 4, 2, 1), (300, 1), (), (0, 4, 2, 2))]
    seeds, paths = pack(keys)
    parent = IndexKey(SEED + 1, (16384,))
    subs = children(pack([parent]), [(k, 1) for k in range(3)])
    packed = (seeds + subs[0], paths + subs[1])
    keys += [child(parent, (k, 1)) for k in range(3)]
    u = batch_uniform(packed, "u")
    assert u.tobytes() == np.array([uniform(k, "u") for k in keys]).tobytes()
    for count in (0, 1, 8, 9, 17):
        got = batch_normals(packed, "g", count * dim, 2.0)
        assert got.shape == (len(keys), count * dim)
        want = np.array([normals(k, "g", count * dim, 2.0) for k in keys])
        assert got.tobytes() == want.tobytes(), count
    for steps in (1, 5, 130):
        got = batch_step_normals(packed, steps, dim, 0.25)
        assert got.shape == (len(keys), steps, dim)
        want = np.array([step_normals(k, steps, dim, 0.25) for k in keys])
        assert got.tobytes() == want.tobytes(), (steps, dim)
    assert batch_uniform(([], []), "u").shape == (0,)
    assert batch_normals(([], []), "g", 3).shape == (0, 3)
    assert batch_step_normals(([], []), 5, dim).shape == (0, 5, dim)


@pytest.mark.parametrize("dim", [1, 9])
def test_batch_step_normals_hash_only_the_counted_rows(dim, monkeypatch):
    # key i's first counts[i] rows are its step normals, the rest are zero,
    # and only the counted (step, block) digests are hashed
    keys = [IndexKey(SEED, p) for p in ((0, 4, 2, 1), (300, 1), (), (7,))]
    counts = [0, 3, 130, 1]
    hashed = []
    real = hier_rng._hash_suffixes

    def counted(*args):
        out = real(*args)
        hashed.append(len(out) // 64)
        return out

    monkeypatch.setattr(hier_rng, "_hash_suffixes", counted)
    got = batch_step_normals(pack(keys), 130, dim, 0.25, counts)
    assert hashed == [sum(counts) * -(-dim // 8)]
    assert got.shape == (len(keys), 130, dim)
    for key, count, rows in zip(keys, counts, got):
        assert rows[:count].tobytes() == step_normals(key, count, dim, 0.25).tobytes()
        assert not rows[count:].any()
    for bad in ([0, 3, 131, 1], [0, -1, 2, 1], [1, 2]):
        with pytest.raises(ValueError):
            batch_step_normals(pack(keys), 130, dim, 0.25, bad)
