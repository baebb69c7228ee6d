"""Synthetic King-like latency matrix (substitution for the King dataset).

The paper's network model "is derived from the King dataset, which includes
the pairwise latencies of 1740 DNS servers in the Internet measured by King
method; the average round-trip time of the simulated network is 180
milliseconds" (§4.1).  The measured dataset is not redistributable here, so
we synthesise a matrix with the same gross statistics:

* 1740 hosts embedded uniformly in a 2-D plane (geography);
* one-way delay = propagation (Euclidean distance) x lognormal jitter
  (access-network variance, which gives King its heavy right tail)
  + a small fixed processing floor;
* symmetrised, then globally scaled so the mean RTT is exactly the paper's
  180 ms.

Experiments consume only the latency *distribution* — mean and spread set the
absolute scale of response times; relative comparisons between landmark
schemes are unaffected (see DESIGN.md).
"""

from __future__ import annotations

import numpy as np

from repro.sim.network import CoordinateLatency, MatrixLatency
from repro.util.rng import as_rng

__all__ = [
    "synthetic_king_matrix",
    "king_latency_model",
    "king_coordinate_model",
    "KING_N_HOSTS",
    "KING_MEAN_RTT",
]

#: Host count of the real King dataset.
KING_N_HOSTS = 1740
#: The paper's mean simulated round-trip time, seconds.
KING_MEAN_RTT = 0.180
#: Seeded ordered host pairs :func:`king_coordinate_model` calibrates on.
CALIBRATION_PAIRS = 8192


def synthetic_king_matrix(
    n_hosts: int = KING_N_HOSTS,
    mean_rtt: float = KING_MEAN_RTT,
    seed: int | np.random.Generator | None = 0,
    jitter_sigma: float = 0.35,
    floor: float = 0.002,
) -> np.ndarray:
    """Build an ``(n, n)`` one-way delay matrix (seconds), zero diagonal.

    ``jitter_sigma`` controls the lognormal multiplicative spread;
    ``floor`` is a minimum one-way processing delay.
    """
    rng = as_rng(seed)
    coords = rng.uniform(0.0, 1.0, size=(n_hosts, 2))
    # Pairwise Euclidean distances via the expansion trick.
    sq = (
        np.einsum("ij,ij->i", coords, coords)[:, None]
        + np.einsum("ij,ij->i", coords, coords)[None, :]
        - 2.0 * (coords @ coords.T)
    )
    np.maximum(sq, 0.0, out=sq)
    dist = np.sqrt(sq)
    jitter = rng.lognormal(0.0, jitter_sigma, size=dist.shape)
    one_way = dist * jitter + floor
    # Symmetrise (King measures RTT/2 both ways; we keep a symmetric model).
    one_way = 0.5 * (one_way + one_way.T)
    np.fill_diagonal(one_way, 0.0)
    # Scale the off-diagonal mean one-way delay to mean_rtt / 2.
    n = n_hosts
    off_mean = one_way.sum() / (n * (n - 1))
    one_way *= (mean_rtt / 2.0) / off_mean
    return one_way


def king_latency_model(
    n_hosts: int = KING_N_HOSTS,
    mean_rtt: float = KING_MEAN_RTT,
    seed: int | np.random.Generator | None = 0,
) -> MatrixLatency:
    """A :class:`MatrixLatency` over a synthetic King-like matrix."""
    return MatrixLatency(synthetic_king_matrix(n_hosts, mean_rtt, seed))


def king_coordinate_model(
    n_hosts: int = KING_N_HOSTS,
    mean_rtt: float = KING_MEAN_RTT,
    seed: int | np.random.Generator | None = 0,
    jitter_sigma: float = 0.35,
    floor: float = 0.002,
) -> CoordinateLatency:
    """A lazy :class:`CoordinateLatency` fitted to the King RTT distribution.

    Same generative model as :func:`synthetic_king_matrix` — uniform 2-D
    geography, lognormal access-network jitter, a processing floor — but with
    O(n) state: pairwise delays are derived on demand from the coordinates
    and a counter-based per-pair jitter hash, so host counts far beyond the
    1740 of the measured dataset stay cheap (100k hosts ≈ 1.6 MB).

    Two deliberate departures from the matrix model, both documented in
    ``docs/scaling.md``:

    * delays are **directional** (the matrix symmetrises them) — the RTT
      ``latency(a,b) + latency(b,a)`` is what the calibration targets;
    * the global scale is **calibrated on a seeded sample** of
      ``CALIBRATION_PAIRS`` ordered pairs rather than the exact off-diagonal
      mean (which would require the full matrix): the sample mean RTT is
      exactly ``mean_rtt``, the population mean lands well inside ±1%.
    """
    rng = as_rng(seed)
    coords = rng.uniform(0.0, 1.0, size=(n_hosts, 2))
    jitter_seed = int(rng.integers(0, np.iinfo(np.int64).max))
    model = CoordinateLatency(
        coords, 1.0, jitter_sigma=jitter_sigma, floor=0.0, seed=jitter_seed
    )
    a = rng.integers(0, n_hosts, size=CALIBRATION_PAIRS)
    b = rng.integers(0, n_hosts, size=CALIBRATION_PAIRS)
    ok = a != b
    if np.any(ok):
        # spu=1, floor=0: the sampled values are dist·jitter both ways
        base_rtt = model.latency_pairs(a[ok], b[ok]) + model.latency_pairs(b[ok], a[ok])
        mean_base = float(np.mean(base_rtt))
        model.seconds_per_unit = (mean_rtt - 2.0 * floor) / mean_base
    model.floor = floor
    return model
