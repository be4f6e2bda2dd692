import numpy as np
import pytest

from crowdbp import segments
from crowdbp.segments import (build_grouping, edge_blocks, gather, segment_add, segment_count,
                              segment_sum)
from tests.sweep_reference import reference_segment_loo_log1p


def reference_reduce(keys, values, n_segments, op, empty):
    out = [empty] * n_segments
    for k, v in zip(keys, values):
        out[k] = op(out[k], v)
    return np.array(out)


def test_sum_and_grouping_match_loop_reference():
    rng = np.random.default_rng(1)
    for case in range(50):
        # Case 0 has no edges; most others leave some segment empty.
        n_seg = int(rng.integers(1, 8))
        m = int(rng.integers(0, 30)) if case else 0
        keys = rng.integers(0, n_seg, size=m)
        values = rng.uniform(0.1, 2.0, size=m)
        g = build_grouping(keys, n_seg)
        np.testing.assert_allclose(
            segment_sum(values, g),
            reference_reduce(keys, values, n_seg, lambda a, b: a + b, 0.0))
        np.testing.assert_array_equal(g.lengths, np.bincount(keys, minlength=n_seg))
        for s in range(n_seg):
            listed = g.order[g.offsets[s]:g.offsets[s + 1]]
            np.testing.assert_array_equal(listed, np.flatnonzero(keys == s))
        node_values = rng.uniform(size=n_seg)
        for per_node in (node_values, node_values > 0.5):
            expected = np.array([per_node[k] for k in keys], dtype=per_node.dtype)
            np.testing.assert_array_equal(gather(per_node, g), expected)
            out = np.empty(m, dtype=per_node.dtype)
            assert gather(per_node, g, out=out) is out
            np.testing.assert_array_equal(out, expected)


@pytest.mark.parametrize("step", [1, 3, None])
def test_count_matches_the_weighted_sum_in_every_step(monkeypatch, step):
    # Steps span at least twice the segment count: with 1 and 3 a mask is
    # cut at many offsets, with the shipped step at none.
    if step is not None:
        monkeypatch.setattr(segments, "_COUNT_STEP", step)
    rng = np.random.default_rng(4)
    for case in range(40):
        n_seg = int(rng.integers(1, 8))
        m = int(rng.integers(0, 60)) if case else 0
        keys = rng.integers(0, n_seg, size=m)
        mask = rng.random(m) < rng.uniform()
        counts = segment_count(mask, build_grouping(keys, n_seg))
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, np.bincount(keys, weights=mask, minlength=n_seg))


def test_block_sums_are_bitwise_bincount():
    # Blocks of 0 to 40 edges, added in edge order into float zeros, with
    # every block's first edge on one hub node.  Weights span seven orders
    # of magnitude, so a sum in any other order would differ in its last
    # bits, and some are ±0.0, ±inf or NaN, so that inf - inf and NaN reach
    # the sums: their bytes match too, and neither sum warns.
    rng = np.random.default_rng(11)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    for case in range(60):
        n_seg = int(rng.integers(1, 10))
        lengths = rng.integers(0, 41, size=int(rng.integers(0, 12)))
        lengths[rng.random(lengths.size) < 0.2] = 0
        m = int(lengths.sum())
        keys = rng.integers(0, n_seg, size=m)
        starts = np.cumsum(lengths) - lengths
        keys[starts[lengths > 0]] = 0
        weights = rng.standard_normal(m) * 10.0 ** rng.integers(-3, 4, size=m)
        special = rng.random(m) < [0.0, 0.05, 0.3][case % 3]
        weights[special] = rng.choice(specials, size=int(special.sum()))
        totals = np.zeros(n_seg)
        for lo, n in zip(starts, lengths):
            segment_add(totals, keys[lo:lo + n], weights[lo:lo + n])
        expected = np.bincount(keys, weights=weights, minlength=n_seg)
        assert totals.tobytes() == expected.astype(np.float64).tobytes()
        # Over a grouping's keys in edge_blocks, the sums are segment_sum's.
        g, totals = build_grouping(keys, n_seg), np.zeros(n_seg)
        for at in edge_blocks(m, int(rng.integers(1, 50))):
            segment_add(totals, g.keys[at], weights[at])
        assert totals.tobytes() == segment_sum(weights, g).tobytes()


def test_edge_blocks_cover_the_edges_in_order():
    for n_edges, size in ((0, 4), (1, 4), (8, 4), (9, 4), (5, 1)):
        blocks = edge_blocks(n_edges, size)
        assert np.concatenate([np.arange(n_edges)[at] for at in blocks] + [[]]).tolist() == \
            list(range(n_edges))
        assert all(0 < at.stop - at.start <= size for at in blocks)


def test_empty_segments_get_identity_elements():
    g = build_grouping(np.array([2, 2]), 4)
    np.testing.assert_array_equal(segment_sum(np.array([3.0, 4.0]), g), [0, 0, 7, 0])


def test_sum_over_no_edges_is_float_zeros():
    out = segment_sum(np.array([], dtype=np.int64), build_grouping(np.array([], dtype=int), 3))
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, [0.0, 0.0, 0.0])


# The sweep references' leave-one-out log products, which bp's worker-half
# fold takes a block of edges at a time and must match bitwise.
def test_loo_prod_is_exact_with_zero_factors():
    keys = np.array([0, 0, 0, 1, 1])
    factors = np.array([0.0, 5.0, 2.0, 0.0, 0.0])
    with np.errstate(invalid="raise"):
        out = np.exp(reference_segment_loo_log1p(factors - 1.0, build_grouping(keys, 2)))
    np.testing.assert_allclose(out[0], 10.0, rtol=1e-15)
    np.testing.assert_array_equal(out[1:], [0.0, 0.0, 0.0, 0.0])


def test_loo_prod_matches_reference_in_natural_edge_order():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n_seg = int(rng.integers(1, 6))
        m = int(rng.integers(1, 20))
        keys = rng.integers(0, n_seg, size=m)
        values = rng.uniform(0.5, 1.5, size=m)
        out = np.exp(reference_segment_loo_log1p(values - 1.0, build_grouping(keys, n_seg)))
        for e in range(m):
            others = values[(keys == keys[e]) & (np.arange(m) != e)]
            np.testing.assert_allclose(out[e], np.prod(others) if others.size else 1.0,
                                       rtol=1e-12)

