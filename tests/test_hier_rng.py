import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import kstest, kstwobign

from helpers import normals, uniform
from mlpicard import brownian, hier_rng
from mlpicard.hier_rng import (
    batch_normals,
    batch_step_normals,
    batch_uniforms,
    children,
    derive_seed,
    pack,
)

SEED = 0xC0FFEE


def step_normals(key, steps, dim, variance=1.0):
    """The step normals of one key: its rows of the batch of that key alone."""
    return batch_step_normals(pack([key]), steps, dim, variance)[0]


def test_child_concatenation():
    assert children(pack([(5, (0,))]), [(2, 1, 1)]) == pack([(5, (0, 2, 1, 1))])
    key = pack([(5, (3, 4))])
    assert children(key, [()]) == key
    assert children(children(key, [(1,)]), [(2,)]) == children(key, [(1, 2)])


@given(
    st.lists(st.integers(min_value=0, max_value=1000), max_size=6),
    st.lists(st.integers(min_value=0, max_value=1000), max_size=6),
    st.lists(st.integers(min_value=0, max_value=1000), max_size=6),
)
def test_child_associativity(base, ext1, ext2):
    key = pack([(SEED, base)])
    assert children(children(key, [ext1]), [ext2]) == children(key, [ext1 + ext2])
    assert children(key, [ext1 + ext2]) == pack([(SEED, base + ext1 + ext2)])


def test_key_validation():
    with pytest.raises(ValueError):
        pack([(SEED, (1, -2))])
    # seeds are reduced to 64 bits and numpy integers are normalized
    assert pack([(2**64 + 3, ())]) == pack([(3, ())])
    assert pack([(-1, ())]) == pack([(2**64 - 1, ())])
    assert pack([(np.uint64(3), (np.int64(4), np.int32(300)))]) == pack([(3, (4, 300))])
    assert pack([]) == ([], 0, [])


def test_determinism():
    for keys in (pack([(SEED, (1, 2, 3)), (SEED + 1, (4, 5, 6))]),
                 pack([(SEED, ()), (SEED + 1, ())])):
        assert np.array_equal(batch_uniforms(keys, "u", 1), batch_uniforms(keys, "u", 1))
        assert np.array_equal(batch_normals(keys, 7, 5, 2.0), batch_normals(keys, 7, 5, 2.0))
        assert np.array_equal(batch_uniforms(keys, "block", 100),
                              batch_uniforms(keys, "block", 100))


def test_uniform_range_and_batch_consistency():
    # the one-block draw absorbs its message in one update, the 64-word draw
    # primes a hasher with the path: the first column agrees bit for bit
    keys = pack([(SEED, (9, 0)), (SEED + 1, (9, 300))])
    batch = batch_uniforms(keys, "u", 64)
    assert batch.shape == (2, 64)
    assert np.all((0.0 <= batch) & (batch < 1.0))
    assert batch[:, :1].tobytes() == batch_uniforms(keys, "u", 1).tobytes()


def test_uniform_distribution_ks():
    # empirical CDF over 1e5 distinct keys vs the uniform CDF at the 1% level
    n = 10**5
    samples = batch_uniforms(pack((SEED, (i,)) for i in range(n)), "ks", 1)[:, 0]
    stat = kstest(samples, "uniform").statistic
    critical = kstwobign.ppf(0.99) / np.sqrt(n)
    assert stat < critical, (stat, critical)
    # CLT band for the mean: 0.5 +/- 3 / sqrt(12 n)
    assert abs(samples.mean() - 0.5) < 3.0 / np.sqrt(12.0 * n)


def test_gaussian_zero_variance_and_moments():
    key = pack([(SEED, ())])
    assert np.all(batch_normals(key, "g", 4, 0.0) == 0.0)
    assert batch_normals(key, "g", 0, 1.0).shape == (1, 0)
    with pytest.raises(ValueError):
        batch_normals(key, "g", -1, 1.0)
    with pytest.raises(ValueError):
        batch_normals(key, "g", 3, -1.0)
    with pytest.raises(ValueError):
        batch_uniforms(key, "g", -1)
    n = 10**5
    draws = batch_normals(pack((SEED, (i,)) for i in range(n)), "var", 2, 1.0)
    for coord in range(2):
        assert abs(draws[:, coord].var(ddof=1) - 1.0) < 0.05


def test_stream_separation():
    k1 = (SEED, (1, 2))
    k2 = (SEED, (1, 3))
    a = np.array([uniform(k1, t) for t in range(10**4)])
    b = np.array([uniform(k2, t) for t in range(10**4)])
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.05


def test_prefix_freeness():
    # perturbing one suffix coordinate must change the draw
    bases = pack((SEED, (4, i)) for i in range(10**4))
    bumped = children(bases, [(0,)])
    assert np.all(batch_uniforms(bases, "p", 1) != batch_uniforms(bumped, "p", 1))
    assert uniform((SEED, (4, 0)), "p") != uniform((SEED, (4, 1)), "p")


def test_path_encoding_collision_free():
    assert uniform((SEED, (1, 23)), "t") != uniform((SEED, (12, 3)), "t")
    assert uniform((SEED, (1,)), "t") != uniform((SEED, (1, 0)), "t")
    assert uniform((SEED, ()), "t") != uniform((SEED, (0,)), "t")


def test_tag_namespaces():
    key = (SEED, (2,))
    assert uniform(key, 1) != uniform(key, "1")
    with pytest.raises(TypeError):
        uniform(key, True)
    with pytest.raises(TypeError):
        uniform(key, 1.5)


def test_seed_sensitivity():
    assert uniform((1, (0,)), "s") != uniform((2, (0,)), "s")


def test_derive_seed():
    assert derive_seed(SEED, "rep", 3) == derive_seed(SEED, "rep", 3)
    assert derive_seed(SEED, "rep", 3) != derive_seed(SEED, "rep", 4)
    assert derive_seed(SEED, "rep") != derive_seed(SEED + 1, "rep")
    assert 0 <= derive_seed(SEED) < 2**64


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=64))
def test_normals_block_consistency(seed, count):
    # multi-block draws must agree with the shorter draws of their prefixes
    key = (seed, (1,))
    full = normals(key, "blk", count, 1.0)
    assert np.array_equal(full[: count // 2], normals(key, "blk", count // 2, 1.0))
    assert full.shape == (count,)


@pytest.mark.parametrize("size", [1, 130])
def test_windowed_normals_are_columns_of_the_whole_draw(monkeypatch, size):
    # a draw of count words from start is columns start:start + count of the
    # draw of start + count from 0, bit for bit, and hashes only the blocks
    # holding those columns; windows start on and off block edges and cross
    # them
    keys = pack((SEED, (7, i)) for i in range(size))
    for start in (0, 3, 8, 13, 64):
        for count in (0, 1, 5, 8, 11, 24):
            whole = batch_normals(keys, "win", start + count, 0.5)
            window = batch_normals(keys, "win", count, 0.5, start=start)
            assert window.shape == (size, count)
            assert np.array_equal(window.view(np.uint64),
                                  whole[:, start:].view(np.uint64)), (start, count)
    hashed = []
    hash_suffixes = hier_rng._hash_suffixes

    def counted(keys, prefix, suffixes, counts=None):
        hashed.append(len(suffixes))
        return hash_suffixes(keys, prefix, suffixes, counts)

    monkeypatch.setattr(hier_rng, "_hash_suffixes", counted)
    for start, count in ((64, 8), (13, 3), (13, 11)):
        batch_normals(keys, "win", count, start=start)
    assert hashed == [1, 1, 2]
    with pytest.raises(ValueError):
        batch_normals(keys, "win", 1, start=-1)


def test_top_words_map_to_finite_normals():
    # (2**53 - 1) + 0.5 rounds to 2**53, so the top words would map to u = 1
    # and ndtri(1) = inf: they map to the largest double below 1 instead, and
    # the words below them keep their values
    words = np.array([[2**64 - 1, 2**64 - 2**11, 2**64 - 2**12, 0]], dtype=np.uint64)
    got = hier_rng._gaussians(words, 4.0)[0]
    top = ndtri(1.0 - 2.0**-53) * 2.0
    assert np.isfinite(top) and got[0] == got[1] == top
    assert got[2] == ndtri((2.0**53 - 2) / 2.0**53) * 2.0 < top
    assert got[3] == ndtri(2.0**-54) * 2.0


@pytest.mark.parametrize("dim", [0, 1, 4, 8, 9, 17])
def test_step_normals_rows_are_per_step_normals(dim):
    # dims 8, 9 and 17 cross the 8-word digest block; paths with components
    # >= 128 take the multi-byte varint encoding
    for path in ((0, 4, 2, 1), (300, 1), ()):
        key = (SEED, path)
        for steps in (0, 1, 130):
            got = step_normals(key, steps, dim, 0.25)
            assert got.shape == (steps, dim)
            want = np.array([normals(key, k, dim, 0.25) for k in range(steps)])
            assert got.tobytes() == want.tobytes(), (path, steps, dim)


def test_step_normals_validation():
    key = (SEED, (1,))
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


def leb128_path(path):
    return b"W" + leb128(len(path)) + b"".join(leb128(c) for c in path)


def encoded(batch):
    """Each key's hashed path: the batch's one length header, then its
    coordinates."""
    return [b"W" + leb128(batch.depth) + coords for coords in batch.coords]


def test_cached_path_encoding():
    # a packed path and a child made from a cached extension list carry the
    # length-prefixed LEB128 encoding, single- and multi-byte coordinates
    # (>= 128, >= 16384) and long paths alike
    for path in ((), (0,), (0, 4, 2, 1), (127, 128), (300, 16383, 16384, 2**40),
                 tuple(range(130))):
        for batch in (pack([(SEED, path)]), children(pack([(SEED, ())]), [path])):
            assert (batch.seeds, batch.depth) == ([SEED], len(path))
            assert encoded(batch) == [leb128_path(path)]
    # the encoded extension list is cached and is no part of the output
    first = hier_rng._extension_coords(((300, 1),))
    assert hier_rng._extension_coords(((300, 1),)) is first
    assert children(pack([(SEED, (7,))]), [(300, 1)]) == pack([(SEED, (7, 300, 1))])


def tag_bytes(tag):
    if isinstance(tag, int):
        return b"I" + leb128(tag)
    return b"S" + leb128(len(tag.encode())) + tag.encode()


def uncached_digests(key, tag, blocks):
    """The digests of one ``(seed, path)`` key, hashed one block at a time
    from the whole message, with no cached table or hasher copy."""
    seed, path = key
    message = leb128_path(path) + tag_bytes(tag)
    return b"".join(
        hashlib.blake2b(message + leb128(blk), key=seed.to_bytes(8, "little"),
                        digest_size=64).digest()
        for blk in range(blocks)
    )


def uncached_words(key, tag, count):
    return np.frombuffer(uncached_digests(key, tag, -(-count // 8)), dtype="<u8")[:count]


def uncached_uniforms(key, tag, count):
    return (uncached_words(key, tag, count) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def uncached_normals(key, tag, count, variance):
    words = uncached_words(key, tag, count)
    u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return ndtri(u) * np.sqrt(variance)


@pytest.mark.parametrize("path", [(0, 4, 2, 1), (300, 16384), ()])
def test_cached_tables_match_uncached_hashing(path):
    key = (SEED, path)
    word = int.from_bytes(uncached_digests(key, "u", 1)[:8], "little")
    assert uniform(key, "u") == (word >> 11) * 2.0**-53
    for count in (1, 8, 9, 17):
        want = uncached_normals(key, "g", count, 2.0)
        assert normals(key, "g", count, 2.0).tobytes() == want.tobytes()
    for steps, dim in ((5, 1), (130, 9)):
        rows = [uncached_normals(key, k, dim, 0.5) for k in range(steps)]
        assert step_normals(key, steps, dim, 0.5).tobytes() == np.array(rows).tobytes()


def test_suffix_caches_bounded_and_empty_after_import():
    tables = (hier_rng._block_suffixes, hier_rng._step_suffixes, hier_rng._extension_coords,
              brownian._grid)
    for table in tables:
        assert table.cache_info().maxsize is not None
    for steps in range(1, 200):
        step_normals((SEED, (1,)), steps, 1)
    info = hier_rng._step_suffixes.cache_info()
    assert info.currsize <= info.maxsize
    probe = (
        "import mlpicard; from mlpicard import brownian, hier_rng; "
        "print(hier_rng._block_suffixes.cache_info().currsize, "
        "hier_rng._step_suffixes.cache_info().currsize, "
        "hier_rng._extension_coords.cache_info().currsize, "
        "brownian._grid.cache_info().currsize)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.split() == ["0"] * len(tables)


def test_children_extend_the_encoded_path():
    # a child's coordinates are its parent's followed by the extension's,
    # under the batch's one length header, and must give the length-prefixed
    # LEB128 encoding of the whole path: parents of one depth and mixed
    # seeds, single- and multi-byte coordinates, and length headers that
    # cross 128 (a 126-deep parent with a 3-long extension) or start beyond it
    groups = (
        [(), ()],
        [(0,), (127,), (16384,)],
        [(127, 128), (300, 16383), (2**40, 0)],
        [tuple(range(126)), tuple(range(1, 127))],
        [tuple(range(130)), tuple(range(200, 330))],
    )
    for length in (0, 1, 3):
        extensions = [tuple(range(k * 128, k * 128 + length)) for k in range(4)]
        extensions[-1] = (2**40,) * length
        for group in groups:
            parents = [(SEED + i, p) for i, p in enumerate(group)]
            batch = children(pack(parents), extensions)
            seeds, paths = batch.seeds, encoded(batch)
            assert len(seeds) == len(paths) == len(parents) * len(extensions)
            assert batch.depth == len(group[0]) + length
            for i, (seed, path) in enumerate(parents):
                for j, ext in enumerate(extensions):
                    at = i * len(extensions) + j  # key-major
                    assert (seeds[at], paths[at]) == (seed, leb128_path(path + ext))
                    assert pack([(seed, path + ext)]) == (
                        [seeds[at]], batch.depth, [batch.coords[at]])
            # grandchildren are built from the children's own encodings
            grand = children(batch, [(3, 129)])
            assert (grand.seeds, encoded(grand)) == (
                seeds, [leb128_path(path + ext + (3, 129))
                        for _, path in parents for ext in extensions])
    assert children(pack([(SEED, (1,))]), []) == ([], 1, [])
    assert children(pack([]), [(0,)]) == ([], 1, [])


def test_children_refuse_mixed_depths_and_lengths():
    # a key batch has one depth, so one length header: pack refuses paths of
    # mixed depth, whichever key differs, and children extensions of mixed
    # length
    for depths in [((), (0,)), ((0,), (1, 2)), ((1, 2), (1, 2), (3,)),
                   (tuple(range(127)), tuple(range(128)))]:
        with pytest.raises(ValueError, match="one length"):
            pack((SEED, p) for p in depths)
    with pytest.raises(ValueError, match="one length"):
        children(pack([(SEED, (1,))]), [(0,), (1, 2)])
    with pytest.raises(ValueError, match="one length"):
        children(pack([(SEED, (1,))]), [(), (0,)])


def test_children_validate_the_extension():
    key = pack([(SEED, (1, 2))])
    with pytest.raises(ValueError):
        children(key, [(3, -1)])
    with pytest.raises(ValueError):
        children(pack([(SEED, (1, 2)), (SEED + 1, (3, 4))]), [(0,), (-5,)])
    with pytest.raises(ValueError):  # a refused list is not cached
        children(key, [(0,), (-5,)])
    # integer-valued coordinates are normalized like pack's
    assert children(key, [[np.int64(4)]]) == pack([(SEED, (1, 2, 4))])
    assert children(key, [(np.uint16(300),)]) == pack([(SEED, (1, 2, 300))])


@pytest.mark.parametrize("dim", [1, 4, 9])
def test_batch_draws_equal_one_key_draws(dim):
    # every row of every batched draw equals the uncached hashlib reference
    # of its key alone, bit for bit, over batches packed from pairs of mixed
    # seeds, one batch per depth 0 to 4, with coordinates >= 128 and
    # >= 16384, and keys that children makes alike
    parent = (SEED + 1, (16384, 128))
    extensions = [(k, 1) for k in range(3)]
    made = [(parent[0], parent[1] + ext) for ext in extensions]
    assert children(pack([parent]), extensions) == pack(made)
    for keys in ([(SEED, ()), (SEED + 1, ())],
                 [(SEED + 1, (300,)), (SEED, (16384,))],
                 [(SEED, (0, 16384)), (SEED + 1, (128, 2))],
                 [(SEED + 1, (129, 2, 7))],
                 [(SEED, (0, 4, 2, 1))] + made):
        check_batch_draws(keys, dim)
    assert batch_uniforms(pack([]), "u", 3).shape == (0, 3)
    assert batch_normals(pack([]), "g", 3).shape == (0, 3)
    assert batch_step_normals(pack([]), 5, dim).shape == (0, 5, dim)


def check_batch_draws(keys, dim):
    packed = pack(keys)
    u = batch_uniforms(packed, "u", 1)
    assert u.tobytes() == np.concatenate([uncached_uniforms(k, "u", 1) for k in keys]).tobytes()
    for count in (0, 1, 8, 9, 17):
        size = count * dim
        got = batch_uniforms(packed, "v", size)
        assert got.shape == (len(keys), size)
        want = np.array([uncached_uniforms(k, "v", size) for k in keys])
        assert got.tobytes() == want.tobytes(), count
        got = batch_normals(packed, "g", size, 2.0)
        assert got.shape == (len(keys), size)
        want = np.array([uncached_normals(k, "g", size, 2.0) for k in keys])
        assert got.tobytes() == want.tobytes(), count
    for steps in (1, 5, 130):
        got = batch_step_normals(packed, steps, dim, 0.25)
        assert got.shape == (len(keys), steps, dim)
        want = np.array([[uncached_normals(k, step, dim, 0.25) for step in range(steps)]
                         for k in keys])
        assert got.tobytes() == want.tobytes(), (steps, dim)


@pytest.mark.parametrize("dim", [1, 9])
def test_batch_step_normals_hash_only_the_counted_rows(dim, monkeypatch):
    # key i's first counts[i] rows are its step normals, the rest are zero,
    # and only the counted (step, block) digests are hashed
    keys = [(SEED, p) for p in ((0, 4, 2, 1), (300, 1, 0, 0), (7, 7, 7, 7), (16384, 2, 1, 0))]
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
