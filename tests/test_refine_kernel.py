"""The radius-bounded refine kernel (``Metric.one_to_rows_within``).

An index node refines its candidate rows by true distance and keeps those
``<= radius``.  ``MinkowskiMetric`` may skip the full distance of a row whose
leading coordinates already put it past the radius; the contract is that
filtering by ``<= radius`` keeps exactly the rows, with exactly the (``==``)
distances, that ``one_to_many`` followed by the same filter keeps.  The
property below is the proof obligation; ``fuzz-nightly`` runs it with the
thorough Hypothesis profile.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.platform import IndexPlatform, LandmarkIndex
from repro.dht.ring import ChordRing
from repro.metric.base import Metric
from repro.metric.vector import _LEAD, _LEAD_MIN_ROWS, MinkowskiMetric
from repro.sim.network import ConstantLatency

SPECIALS = (math.nan, math.inf, -math.inf)


def _assert_contract(metric, x, data, rows, radius):
    with np.errstate(invalid="ignore"):  # inf - inf is NaN on both sides
        got = metric.one_to_rows_within(x, data, rows, radius)
        want = metric.one_to_many(x, data[rows])
    assert got.shape == want.shape == (len(rows),)
    kept_got, kept_want = got <= radius, want <= radius
    np.testing.assert_array_equal(kept_got, kept_want)
    assert (got[kept_got] == want[kept_want]).all()
    # every other row is exact too, or +inf where the full distance is not <= radius
    exact = (got == want) | (np.isnan(got) & np.isnan(want))
    assert (exact | (np.isposinf(got) & ~kept_want)).all()
    return got, want


@st.composite
def cases(draw):
    p = draw(st.sampled_from([1.0, 2.0, 3.0, math.inf]))
    dim = draw(st.sampled_from([1, _LEAD - 1, _LEAD, _LEAD + 1, 40, 64]))
    n_data = draw(st.integers(1, 12))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    # rows near the origin and rows ~100 away, so radii between them prune
    data = draw(hnp.arrays(np.float64, (n_data, dim), elements=st.floats(-2, 2)))
    data *= draw(hnp.arrays(np.float64, (n_data, 1), elements=st.sampled_from([1.0, 50.0])))
    for i, j, v in draw(st.lists(st.tuples(
            st.integers(0, n_data - 1), st.integers(0, dim - 1), st.sampled_from(SPECIALS)),
            max_size=3)):
        data[i, j] = v
    data = data.astype(dtype)
    # few rows, or enough to take the leading-coordinate pass; rows repeat
    n_rows = draw(st.sampled_from([0, 1, 4, _LEAD_MIN_ROWS, _LEAD_MIN_ROWS + 1, 2 * _LEAD_MIN_ROWS]))
    rows = np.asarray(draw(st.lists(st.integers(0, n_data - 1), min_size=n_rows, max_size=n_rows)),
                      dtype=np.int64)
    base = draw(st.integers(0, n_data - 1))
    if n_rows:
        rows[draw(st.integers(0, n_rows - 1))] = base
    x = np.asarray(data[base], dtype=np.float64)
    noise = draw(hnp.arrays(np.float64, dim, elements=st.floats(-3, 3)))
    if draw(st.booleans()):
        # off its row in the leading coordinates only: that row's leading sum
        # is its full sum, the case the margin on radius**p is there for
        noise[_LEAD:] = 0.0
    x = x + noise
    if draw(st.integers(0, 3)) == 0:
        x[draw(st.integers(0, dim - 1))] = draw(st.sampled_from(SPECIALS))
    return MinkowskiMetric(p), x, data, rows


@given(cases(), st.data())
def test_keeps_what_one_to_many_keeps_with_equal_distances(case, data):
    metric, x, dataset, rows = case
    with np.errstate(invalid="ignore"):
        dists = metric.one_to_many(x, dataset[rows])
    finite = dists[np.isfinite(dists)]
    choices = [0.0, math.inf, data.draw(st.floats(0, 500))]
    if len(finite):
        # radii exactly on a candidate's distance (the nearest, usually the
        # query's own row, or any) and on its float neighbours
        for r in (float(finite.min()), float(data.draw(st.sampled_from(sorted(finite))))):
            choices += [r, np.nextafter(r, 0.0), np.nextafter(r, math.inf)]
    radius = data.draw(st.sampled_from(choices))
    _assert_contract(metric, x, dataset, rows, radius)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_prunes_far_rows_on_clustered_data(p):
    # two tight clusters 100 apart in the leading coordinates: with the query
    # in one, every row of the other is proved too far from 16 coordinates
    rng = np.random.default_rng(1)
    data = rng.normal(0, 1, size=(400, 60))
    data[200:, :_LEAD] += 100.0
    rows = rng.permutation(400)
    metric = MinkowskiMetric(p)
    x = data[0] + rng.normal(0, 0.1, 60)
    radius = float(np.sort(metric.one_to_many(x, data))[20])
    got, want = _assert_contract(metric, x, data, rows, radius)
    far = rows >= 200
    assert np.isposinf(got[far]).all() and (want[far] > radius).all()


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_rows_whose_leading_sum_is_their_full_sum_are_kept_at_their_distance(p):
    # rows off the query in the leading coordinates only: with the radius
    # set to a row's distance, the computed leading sum of that row is its
    # full sum, often an ulp above radius**p — the margin keeps it
    rng = np.random.default_rng(5)
    x = rng.uniform(-2, 2, 40)
    data = np.repeat(x[None, :], 120, axis=0)
    data[:, :_LEAD] += rng.uniform(-3, 3, (120, _LEAD))
    rows = np.arange(120)
    metric = MinkowskiMetric(p)
    for radius in metric.one_to_many(x, data)[:60]:
        _assert_contract(metric, x, data, rows, float(radius))


@pytest.mark.parametrize("radius", [0.0, math.inf])
def test_radius_zero_and_inf_are_exact(radius):
    rng = np.random.default_rng(2)
    data = rng.normal(0, 1, size=(300, 30))
    rows = np.arange(300)
    for p in (1.0, 2.0, 3.0, math.inf):
        metric = MinkowskiMetric(p)
        got, want = _assert_contract(metric, data[7], data, rows, radius)
        assert (got == want).all()  # nothing proved too far: every row exact


def test_zero_rows():
    data = np.ones((5, 40))
    out = MinkowskiMetric(2.0).one_to_rows_within(np.zeros(40), data, np.empty(0, np.int64), 1.0)
    assert out.shape == (0,) and out.dtype == np.float64


def test_the_base_default_prunes_nothing():
    class L1(Metric):
        def distance(self, x, y):
            return float(np.abs(np.asarray(x) - np.asarray(y)).sum())

    data = np.random.default_rng(3).normal(0, 10, size=(100, 20))
    rows = np.arange(100)
    got = L1().one_to_rows_within(data[0], data, rows, 0.5)
    assert (got == L1().one_to_many(data[0], data[rows])).all()


def test_range_filter_answers_are_the_unfiltered_answers_cut_at_the_radius(monkeypatch):
    """Sim level: an index node that drops rows by the bounded kernel answers
    exactly what one that refines every row by ``one_to_many`` answers."""
    pruned = []
    refine = LandmarkIndex.refine_distances

    def spy(self, q, points, object_ids, radius=None):
        out = refine(self, q, points, object_ids, radius=radius)
        pruned.append(int(np.isposinf(out).sum()))
        return out

    monkeypatch.setattr(LandmarkIndex, "refine_distances", spy)
    rng = np.random.default_rng(4)
    centres = rng.uniform(0, 100, size=(4, 40))
    data = np.clip(centres[rng.integers(0, 4, 3000)] + rng.normal(0, 4, (3000, 40)), 0, 100)
    ring = ChordRing.build(16, m=32, seed=4, latency=ConstantLatency(16, 0.01))
    platform = IndexPlatform(ring)
    metric = MinkowskiMetric(2.0, box=(0, 100), dim=40)
    platform.create_index("v", data, metric, k=4, sample_size=300, seed=4)
    for qi in rng.integers(0, 3000, 12):
        obj = data[qi] + rng.normal(0, 0.1, 40)
        radius = float(np.sort(metric.one_to_many(obj, data))[25])
        filtered = platform.query("v", obj, radius, top_k=10**6, range_filter=True)
        every = platform.query("v", obj, radius, top_k=10**6, range_filter=False)
        cut = [(e.object_id, e.distance) for e in every if e.distance <= radius]
        assert [(e.object_id, e.distance) for e in filtered] == cut
        assert len(cut) >= 26
    assert sum(pruned) > 0  # the leading-coordinate pass did drop rows
