import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import generate, normals, snap
from mlpicard.brownian import generate_batch
from mlpicard.hier_rng import children, pack

SEED = 1234


def loop_snap_index(t, level, branching, horizon):
    """Independent snapping rule: float floor, then nudged onto the float grid."""
    steps = branching**level
    k = min(int(t * steps / horizon), steps)
    while k + 1 <= steps and (k + 1) * horizon / steps <= t:
        k += 1
    while k > 0 and k * horizon / steps > t:
        k -= 1
    return k


def test_snap_examples():
    assert snap(1.0, 3, 2, 1.0) == (8, 1.0)  # t = T hits the last grid point
    assert snap(0.35, 2, 2, 1.0) == (1, 0.25)
    assert snap(0.0, 2, 2, 1.0) == (0, 0.0)


def test_snap_rejects_out_of_range():
    with pytest.raises(ValueError):
        snap(-0.1, 1, 2, 1.0)
    with pytest.raises(ValueError):
        snap(1.5, 1, 2, 1.0)
    with pytest.raises(ValueError):
        snap(0.5, 0, 2, 1.0)


@settings(max_examples=200)
@given(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=2, max_value=4),
    st.floats(min_value=0.25, max_value=4.0),
)
def test_snap_properties(frac, level, branching, horizon):
    t = frac * horizon
    idx, time = snap(t, level, branching, horizon)
    steps = branching**level
    assert 0 <= idx <= steps
    assert time == idx * horizon / steps
    assert time <= t
    # grid points are fixed points
    assert snap(time, level, branching, horizon) == (idx, time)
    # the next grid point (if any) lies strictly beyond t
    if idx < steps:
        assert (idx + 1) * horizon / steps > t


@pytest.mark.parametrize("branching", [1, 2, 3, 5, 7])
def test_snap_rule_matches_loop_oracle(branching):
    # grid points, their float neighbours, the ends and random times; the
    # horizons include ones whose grid times k*T/steps are not exact
    rng = np.random.default_rng(branching)
    for horizon in (1.0, 1.5, 0.1, 3.7):
        for level in range(1, 6):
            steps = branching**level
            grid = np.arange(steps + 1) * horizon / steps
            times = np.concatenate([
                [0.0, horizon],
                grid,
                np.nextafter(grid, -np.inf),
                np.nextafter(grid, np.inf),
                rng.uniform(0.0, horizon, 2000),
            ])
            times = times[(times >= 0.0) & (times <= horizon)]
            want = [loop_snap_index(t, level, branching, horizon) for t in times]
            assert [snap(t, level, branching, horizon)[0] for t in times] == want
            path = generate((SEED, (30, level)), level, branching, horizon, 2)
            got = path.value_at(times, level)
            assert got.shape == (len(times), 2)
            assert got.tobytes() == path.values[want].tobytes(), (horizon, level)


def test_value_at_time_array():
    path = generate((SEED, (31,)), 3, 2, 1.0, 3)
    times = np.array([0.0, 0.3, 0.5, 0.99, 1.0])
    for level in (1, 2, 3):
        batched = path.value_at(times, level)
        single = np.array([path.value_at(t, level) for t in times])
        assert batched.tobytes() == single.tobytes()
    assert path.value_at(np.array([]), 2).shape == (0, 3)
    for bad in ([0.5, 1.5], [-0.1], [0.2, np.nan]):
        with pytest.raises(ValueError):
            path.value_at(np.array(bad), 2)


def test_generate_counts_and_start():
    path = generate((SEED, (0,)), 1, 4, 1.0, 1)
    assert path.values.shape == (5, 1)
    assert np.all(path.values[0] == 0.0)


@pytest.mark.parametrize("dim", [1, 4, 8, 9, 17])
def test_generate_matches_per_step_reference(dim):
    # step k's increment is normals(key, k, dim, T/m**l); dims past 8 cross
    # the 8-word digest block
    horizon = 1.5
    for level in (1, 2, 3):
        for m in (2, 3, 5):
            key = (SEED, (5, level, m))
            var = horizon / m**level
            increments = np.array([normals(key, k, dim, var) for k in range(m**level)])
            want = np.vstack([np.zeros((1, dim)), np.cumsum(increments, axis=0)])
            got = generate(key, level, m, horizon, dim).values
            assert got.tobytes() == want.tobytes(), (level, m, dim)


def test_generate_reproducible():
    a = generate((SEED, (3,)), 2, 3, 2.0, 4)
    b = generate((SEED, (3,)), 2, 3, 2.0, 4)
    assert np.array_equal(a.values, b.values)
    c = generate((SEED, (4,)), 2, 3, 2.0, 4)
    assert not np.array_equal(a.values, c.values)


def test_generate_validation():
    key = (SEED, ())
    with pytest.raises(ValueError):
        generate(key, 0, 2, 1.0, 1)
    with pytest.raises(ValueError):
        generate(key, 1, 2, 0.0, 1)
    with pytest.raises(ValueError):
        generate(key, 1, 2, 1.0, 0)
    with pytest.raises(OverflowError):
        generate(key, 32, 2, 1.0, 1)


def test_value_at_lookup():
    path = generate((SEED, (7,)), 2, 2, 1.0, 1)
    assert np.all(path.value_at(0.0, 1) == 0.0)
    assert np.array_equal(path.value_at(1.0, 2), path.values[4])
    # level-1 query at t=0.6 snaps to 0.5, stored at nested index 2
    assert np.array_equal(path.value_at(0.6, 1), path.values[2])
    with pytest.raises(ValueError):
        path.value_at(0.5, 3)


def test_values_read_only():
    path = generate((SEED, (8,)), 1, 2, 1.0, 2)
    with pytest.raises(ValueError):
        path.values[0, 0] = 1.0


@settings(max_examples=50)
@given(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.integers(min_value=1, max_value=3),
)
def test_nested_lookup_consistency(frac, query_level):
    # a coarse query answered by a fine path equals the same query on a path
    # regenerated at the coarse level from the same key
    key = (SEED, (11,))
    fine = generate(key, 3, 2, 1.0, 2)
    t = frac * 1.0
    idx, time = snap(t, query_level, 2, 1.0)
    assert np.array_equal(fine.value_at(t, query_level), fine.value_at(time, query_level))
    assert np.array_equal(fine.value_at(t, query_level), fine.values[idx * 2 ** (3 - query_level)])


def test_query_order_independence():
    path = generate((SEED, (12,)), 3, 2, 1.0, 2)
    queries = [(0.9, 1), (0.1, 3), (0.5, 2), (1.0, 1), (0.1, 3), (0.9, 3)]
    forward = [path.value_at(t, j).copy() for t, j in queries]
    backward = [path.value_at(t, j).copy() for t, j in reversed(queries)]
    for got, want in zip(forward, reversed(backward)):
        assert np.array_equal(got, want)


def test_increment_variance():
    # n=1, m=2, T=1: increments have variance 1/2
    rows = []
    for i in range(10**4):
        path = generate((SEED, (20, i)), 1, 2, 1.0, 1)
        rows.append(np.diff(path.values, axis=0)[:, 0])
    increments = np.concatenate(rows)
    assert abs(increments.var(ddof=1) - 0.5) < 0.03


def test_terminal_distribution():
    reps = 10**4
    finals = np.array(
        [generate((SEED, (21, i)), 2, 2, 1.0, 1).values[-1, 0] for i in range(reps)]
    )
    assert abs(finals.mean()) < 3.0 / np.sqrt(reps)
    assert abs(finals.var(ddof=1) - 1.0) < 0.1


def test_generate_batch_matches_generate():
    # every path of a batch equals its key's path generated alone, whether
    # pack or children builds the batch
    parents = [(SEED, (30, 1)), (SEED + 1, (300, 16384))]
    keys = [(seed, path + (k,)) for seed, path in parents for k in range(3)]
    packed = pack(keys)
    assert children(pack(parents), [(k,) for k in range(3)]) == packed
    for level, m, dim in ((1, 5, 1), (2, 3, 4), (3, 2, 9)):
        batch = generate_batch(packed, np.full(len(keys), 1.5), level, m, 1.5, dim)
        assert batch.values.shape == (len(keys), m**level + 1, dim)
        assert batch.keys == pack(keys)
        for key, values in zip(keys, batch.values):
            assert values.tobytes() == generate(key, level, m, 1.5, dim).values.tobytes()
        with pytest.raises(ValueError):
            batch.values[0, 0, 0] = 1.0


def test_path_batch_value_at_matches_each_path():
    keys = [(SEED, (31, k)) for k in range(4)]
    batch = generate_batch(pack(keys), np.ones(len(keys)), 3, 2, 1.0, 2)
    paths = [generate(key, 3, 2, 1.0, 2) for key in keys]
    rng = np.random.default_rng(SEED)
    grid = np.arange(9) / 8.0
    times = np.concatenate([grid, rng.uniform(0.0, 1.0, 40), [0.0, 1.0]])
    owner = rng.integers(0, len(keys), len(times))
    for level in (1, 2, 3):
        got = batch.value_at(times, owner, level)
        want = np.array([paths[o].value_at(t, level) for t, o in zip(times, owner)])
        assert got.shape == (len(times), 2)
        assert got.tobytes() == want.tobytes(), level
    assert batch.value_at(np.array([]), np.array([], dtype=np.intp), 2).shape == (0, 2)
    for bad in ([0.5, -0.1], [1.0 + 1e-12], [np.nan, 0.2]):
        with pytest.raises(ValueError):
            batch.value_at(np.array(bad), np.zeros(len(bad), dtype=np.intp), 2)
    with pytest.raises(ValueError):
        batch.value_at(np.array([0.5]), np.zeros(1, dtype=np.intp), 4)


def reach_oracle(until, level, branching, horizon):
    """Last creation-level index any level-q read (q <= level) up to ``until``
    touches, by the loop snapping rule."""
    return max(loop_snap_index(until, q, branching, horizon) * branching ** (level - q)
               for q in range(1, level + 1))


@pytest.mark.parametrize("dim", [1, 4, 9])
@pytest.mark.parametrize("horizon", [0.05, 0.7, 1.0, 3.0])
def test_truncated_generation_equals_full_on_every_filled_prefix(dim, horizon):
    # a batch generated up to each key's largest query time holds exactly the
    # prefix that its reads can touch, byte-equal to the whole path; dim 9 is
    # two digest blocks
    rng = np.random.default_rng(dim)
    keys = [(seed, path + (k,)) for seed, path in ((SEED, (40, 1)), (SEED + 1, (400, 16384)))
            for k in range(4)]
    for m in (1, 2, 3, 5):
        for level in (1, 2, 3):
            steps = m**level
            grid = np.arange(steps + 1) * horizon / steps
            until = np.concatenate([[0.0, horizon], rng.choice(grid, 2),
                                    np.nextafter(rng.choice(grid[1:], 2), 0.0),
                                    rng.uniform(0.0, horizon, 2)])
            batch = generate_batch(pack(keys), until, level, m, horizon, dim)
            want = [reach_oracle(t, level, m, horizon) for t in until]
            assert batch.filled.tolist() == want, (m, level)
            assert batch.values.shape == (len(keys), max(want) + 1, dim)
            for key, t, filled, values in zip(keys, until, batch.filled, batch.values):
                full = generate(key, level, m, horizon, dim).values
                assert values[: filled + 1].tobytes() == full[: filled + 1].tobytes()
                # every read at a time up to ``until`` is served from the prefix
                times = np.append(rng.uniform(0.0, t, 3), t)
                for q in range(1, level + 1):
                    owner = np.full(len(times), keys.index(key))
                    got = batch.value_at(times, owner, q)
                    assert got.tobytes() == full[:: m ** (level - q)][
                        [loop_snap_index(s, q, m, horizon) for s in times]].tobytes()


def test_reach_covers_a_coarser_grid_one_ulp_ahead():
    # at T = 0.05 and m = 3 the level-1 point 0.05/3 lies one ulp below the
    # level-2 point 3*0.05/9, so a level-1 read at that time takes creation
    # index 3 while the level-2 snap is only 2
    t = 1 * 0.05 / 3
    assert t == 0.016666666666666666 < 3 * 0.05 / 9 == 0.01666666666666667
    assert snap(t, 2, 3, 0.05)[0] == 2 and snap(t, 1, 3, 0.05)[0] == 1
    key = (SEED, (41,))
    batch = generate_batch(pack([key]), [t], 2, 3, 0.05, 1)
    assert batch.filled.tolist() == [3]
    full = generate(key, 2, 3, 0.05, 1).values
    owner = np.zeros(1, dtype=np.intp)
    assert batch.value_at(np.array([t]), owner, 1).tobytes() == full[3:4].tobytes()
    assert batch.value_at(np.array([t]), owner, 2).tobytes() == full[2:3].tobytes()


def test_read_past_the_filled_prefix_raises():
    # generated up to 0.3 at level 3, m = 2: the prefix ends at index 2
    # (t = 0.25); later reads at any level are refused, not served stale
    keys = children(pack([(SEED, (42,))]), [(0,), (1,)])
    batch = generate_batch(keys, [0.3, 1.0], 3, 2, 1.0, 1)
    assert batch.filled.tolist() == [2, 8]
    first = np.zeros(1, dtype=np.intp)
    batch.value_at(np.array([0.3]), first, 3)
    batch.value_at(np.array([0.9]), first + 1, 3)
    for t, level in ((0.4, 3), (0.5, 2), (0.5, 1), (1.0, 3)):
        with pytest.raises(ValueError, match="past the generated prefix"):
            batch.value_at(np.array([0.1, t]), np.array([1, 0]), level)
    with pytest.raises(ValueError):
        generate_batch(keys, [0.3], 3, 2, 1.0, 1)  # one time per key
    with pytest.raises(ValueError):
        generate_batch(keys, [0.3, 1.5], 3, 2, 1.0, 1)  # past the horizon
