"""Properties of the lazy coordinate latency model.

CoordinateLatency replaces the O(n²) King matrix with synthetic coordinates
and hashed per-pair jitter, so its contract is behavioural rather than
tabular: delays are *one-way* values (directionally independent draws, not
forced-symmetric), fully determined by the seed, zero on self-loops, and —
for the King-calibrated constructor — the sampled mean RTT must sit within
10% of the measured King mean (0.180 s).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.king import KING_MEAN_RTT, king_coordinate_model
from repro.sim.network import CoordinateLatency


def _model(n_hosts: int, seed: int, jitter: float = 0.35) -> CoordinateLatency:
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, 1.0, size=(n_hosts, 2))
    return CoordinateLatency(
        coords, seconds_per_unit=0.1, jitter_sigma=jitter, floor=0.002, seed=seed
    )


class TestCoordinateLatencyProperties:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_hosts=st.integers(2, 64),
        data=st.data(),
    )
    @settings(max_examples=50)
    def test_deterministic_per_seed(self, seed, n_hosts, data):
        a = data.draw(st.integers(0, n_hosts - 1))
        b = data.draw(st.integers(0, n_hosts - 1))
        m1, m2 = _model(n_hosts, seed), _model(n_hosts, seed)
        assert m1.latency(a, b) == m2.latency(a, b)
        hosts = np.arange(n_hosts)
        np.testing.assert_array_equal(m1.latency_row(a, hosts), m2.latency_row(a, hosts))

    @given(seed=st.integers(0, 2**32 - 1), n_hosts=st.integers(2, 64))
    @settings(max_examples=50)
    def test_one_way_values_positive_and_zero_on_self(self, seed, n_hosts):
        m = _model(n_hosts, seed)
        for a in range(min(n_hosts, 8)):
            row = m.latency_row(a, np.arange(n_hosts))
            assert row[a] == 0.0
            others = np.delete(row, a)
            assert np.all(others > 0)

    @given(n_hosts=st.integers(3, 48), seed=st.integers(0, 1000))
    @settings(max_examples=30)
    def test_directions_are_independent_draws(self, n_hosts, seed):
        """Jitter is per ordered pair: across all pairs the two directions
        must not be systematically equal (symmetric-free one-way delays)."""
        m = _model(n_hosts, seed, jitter=0.5)
        hosts = np.arange(n_hosts)
        fwd = np.concatenate([m.latency_row(a, hosts)[a + 1 :] for a in hosts[:-1]])
        rev = np.concatenate(
            [np.array([m.latency(b, a) for b in hosts[a + 1 :]]) for a in hosts[:-1]]
        )
        assert not np.allclose(fwd, rev)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_latency_row_matches_pairs(self, seed):
        m = _model(16, seed)
        for a in (0, 7, 15):
            row = m.latency_row(a, np.arange(16))
            pairs = m.latency_pairs(
                np.full(16, a, dtype=np.int64), np.arange(16, dtype=np.int64)
            )
            np.testing.assert_array_equal(row, pairs)

    @given(s1=st.integers(0, 2**31), s2=st.integers(0, 2**31))
    @settings(max_examples=25)
    def test_different_seeds_differ(self, s1, s2):
        if s1 == s2:
            return
        m1, m2 = _model(8, s1), _model(8, s2)
        hosts = np.arange(8)
        assert not np.array_equal(m1.latency_row(0, hosts), m2.latency_row(0, hosts))


class TestKingCalibration:
    @given(seed=st.integers(0, 100))
    @settings(max_examples=10)
    def test_sampled_mean_rtt_within_10pct(self, seed):
        m = king_coordinate_model(n_hosts=512, seed=seed)
        rng = np.random.default_rng(seed + 1)
        a = rng.integers(0, 512, size=4096)
        b = rng.integers(0, 512, size=4096)
        ok = a != b
        rtt = m.latency_pairs(a[ok], b[ok]) + m.latency_pairs(b[ok], a[ok])
        assert abs(float(rtt.mean()) - KING_MEAN_RTT) <= 0.1 * KING_MEAN_RTT

    def test_mean_rtt_method_agrees(self):
        m = king_coordinate_model(n_hosts=256, seed=3)
        assert abs(m.mean_rtt(sample=4096, seed=9) - KING_MEAN_RTT) < 0.1 * KING_MEAN_RTT

    def test_scales_to_100k_hosts(self):
        m = king_coordinate_model(n_hosts=100_000, seed=0)
        assert m.n_hosts == 100_000
        # memory is O(n): coordinates only, no pairwise matrix
        assert m.coords.nbytes < 4_000_000
        assert m.latency(3, 70_000) > 0


# -- the in-place kernel against the formula it replaced ---------------------------


def _mix64_reference(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, one fresh array per step."""
    x = x ^ (x >> np.uint64(30))
    x = x * np.uint64(0xBF58476D1CE4E5B9)
    x = x ^ (x >> np.uint64(27))
    x = x * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _reference_pairs(m: CoordinateLatency, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``floor + spu · norm(coords[b] - coords[a]) · exp(sigma · ndtri(u))``."""
    from scipy.special import ndtri

    d = np.linalg.norm(m.coords[b] - m.coords[a], axis=1)
    if m.jitter_sigma > 0.0:
        seed = _mix64_reference(np.asarray([m.seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64))
        x = _mix64_reference(a.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15) + seed)
        x = _mix64_reference(x ^ (b.astype(np.uint64) * np.uint64(0xD1B54A32D192ED03)))
        u = ((x >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        d = d * np.exp(m.jitter_sigma * ndtri(u))
    out = m.floor + m.seconds_per_unit * d
    out[a == b] = 0.0
    return out


# dims 1-3 sum squared columns in place; 8 is where norm starts summing
# pairwise, so the kernel must fall back to it there
@pytest.mark.parametrize("dim", [1, 2, 3, 8])
@pytest.mark.parametrize("sigma", [0.0, 0.35])
def test_pair_kernel_is_bit_identical_to_the_reference_formula(dim, sigma):
    rng = np.random.default_rng(dim * 10 + int(sigma > 0))
    n_hosts, n_pairs = 5_000, 20_000
    coords = rng.uniform(-50.0, 50.0, size=(n_hosts, dim)) * rng.uniform(
        0.0, 10.0, size=(n_hosts, 1))
    m = CoordinateLatency(coords, seconds_per_unit=0.0137, jitter_sigma=sigma,
                          floor=0.002, seed=int(rng.integers(0, 2**63)))
    a = rng.integers(0, n_hosts, size=n_pairs)
    b = rng.integers(0, n_hosts, size=n_pairs)
    b[::5] = a[::5]  # self-pairs
    got = m.latency_pairs(a, b)
    assert got.tobytes() == _reference_pairs(m, a, b).tobytes()
    assert np.all(got[::5] == 0.0)
    # the row and the scalar lookups run the same kernel
    for src in (0, int(a[1]), n_hosts - 1):
        row = m.latency_row(src, b[:300])
        want = _reference_pairs(m, np.full(300, src), b[:300])
        assert row.tobytes() == want.tobytes()
        assert [m.latency(src, int(h)) for h in b[:20]] == row[:20].tolist()


@pytest.mark.parametrize("dim", range(1, 9))
def test_without_jitter_it_is_the_plain_euclidean_model(dim):
    """With no jitter the delay is ``base + spu · norm(coords[b] - coords[a])``
    bit for bit (0 to itself), for pairs, rows and scalar lookups alike."""
    rng = np.random.default_rng(100 + dim)
    n_hosts, n_pairs = 300, 2_000
    coords = rng.uniform(-50.0, 50.0, size=(n_hosts, dim))
    a = rng.integers(0, n_hosts, size=n_pairs)
    b = rng.integers(0, n_hosts, size=n_pairs)
    b[::7] = a[::7]  # self-pairs
    for spu in (1e-3, 0.0137, 1.0, 250.0):
        for base in (0.0, 0.001, 0.02):
            m = CoordinateLatency(coords, spu, floor=base)
            want = base + spu * np.linalg.norm(coords[b] - coords[a], axis=1)
            want[a == b] = 0.0
            assert m.latency_pairs(a, b).tobytes() == want.tobytes()
            src = int(a[0])
            row = base + spu * np.linalg.norm(coords[b] - coords[src], axis=1)
            row[b == src] = 0.0
            assert m.latency_row(src, b).tobytes() == row.tobytes()
            assert [m.latency(int(x), int(y)) for x, y in zip(a[:30], b[:30])] == (
                want[:30].tolist())
