"""Network latency models for the packet-level simulation.

The paper derives its network model from the King dataset: pairwise
latencies of 1740 DNS servers with an average simulated RTT of 180 ms
(§4.1).  :mod:`repro.sim.king` synthesises an equivalent matrix; this module
defines the latency-model interface and simpler models used in tests.

Latencies are *one-way* delays in seconds between host indices (a host index
is an endpoint slot in the underlying network, assigned to overlay nodes at
join time).
"""

from __future__ import annotations

import numpy as np

from repro.util.rng import as_rng

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "MatrixLatency",
    "CoordinateLatency",
]


class LatencyModel:
    """One-way delay between two host endpoints."""

    #: number of addressable hosts
    n_hosts: int = 0

    def latency(self, a: int, b: int) -> float:
        """One-way delay (seconds) from host ``a`` to host ``b``."""
        raise NotImplementedError

    def latency_row(self, a: int, hosts: np.ndarray) -> np.ndarray:
        """Vectorised delays from ``a`` to each host in ``hosts``.

        Every shipped model overrides this with direct array slicing; the
        base version is the black-box fallback — one scalar lookup per host,
        streamed through ``fromiter`` into a preallocated array (used by PNS
        finger selection, which evaluates many candidates per finger).
        """
        hosts = np.asarray(hosts)
        return np.fromiter(
            (self.latency(a, int(b)) for b in hosts),
            dtype=np.float64,
            count=len(hosts),
        )

    def latency_pairs(self, a_hosts: np.ndarray, b_hosts: np.ndarray) -> np.ndarray:
        """Vectorised delays for aligned host pairs ``(a_hosts[i], b_hosts[i])``.

        The batched-routing hot path: one call prices a whole hop of a bulk
        lookup (``repro.dht.compact``).  Shipped models override this with
        elementwise array math that reproduces the scalar path bit for bit;
        the base version is the black-box ``fromiter`` fallback.
        """
        a_hosts = np.asarray(a_hosts)
        b_hosts = np.asarray(b_hosts)
        return np.fromiter(
            (self.latency(int(x), int(y)) for x, y in zip(a_hosts, b_hosts)),
            dtype=np.float64,
            count=len(a_hosts),
        )

    def mean_rtt(self, sample: int = 2000, seed: int = 0) -> float:
        """Estimate the mean round-trip time over random distinct host pairs.

        Vectorised through :meth:`latency_pairs` — the forward and reverse
        delays of the sampled pairs are batched and summed elementwise, which
        is the same float64 addition order as the scalar loop it replaced.
        """
        rng = as_rng(seed)
        n = self.n_hosts
        a = rng.integers(0, n, size=sample)
        b = rng.integers(0, n, size=sample)
        ok = a != b
        fwd = self.latency_pairs(a[ok], b[ok])
        rev = self.latency_pairs(b[ok], a[ok])
        return float(np.mean(fwd + rev))


class ConstantLatency(LatencyModel):
    """Every distinct pair of hosts is ``delay`` seconds apart (tests, analytics)."""

    def __init__(self, n_hosts: int, delay: float = 0.045) -> None:
        self.n_hosts = n_hosts
        self.delay = float(delay)

    def latency(self, a: int, b: int) -> float:
        return 0.0 if a == b else self.delay

    def latency_row(self, a: int, hosts: np.ndarray) -> np.ndarray:
        hosts = np.asarray(hosts, dtype=np.intp)
        out = np.full(len(hosts), self.delay, dtype=np.float64)
        out[hosts == a] = 0.0
        return out

    def latency_pairs(self, a_hosts: np.ndarray, b_hosts: np.ndarray) -> np.ndarray:
        a_hosts = np.asarray(a_hosts, dtype=np.intp)
        b_hosts = np.asarray(b_hosts, dtype=np.intp)
        out = np.full(len(a_hosts), self.delay, dtype=np.float64)
        out[a_hosts == b_hosts] = 0.0
        return out


class MatrixLatency(LatencyModel):
    """Latency looked up in an explicit ``(n, n)`` one-way delay matrix."""

    def __init__(self, matrix: np.ndarray) -> None:
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("latency matrix must be square")
        if np.any(matrix < 0):
            raise ValueError("latencies must be non-negative")
        self.matrix = matrix
        self.n_hosts = matrix.shape[0]

    def latency(self, a: int, b: int) -> float:
        return float(self.matrix[a, b])

    def latency_row(self, a: int, hosts: np.ndarray) -> np.ndarray:
        return self.matrix[a, np.asarray(hosts, dtype=np.intp)]

    def latency_pairs(self, a_hosts: np.ndarray, b_hosts: np.ndarray) -> np.ndarray:
        return self.matrix[
            np.asarray(a_hosts, dtype=np.intp), np.asarray(b_hosts, dtype=np.intp)
        ]


#: up to this many coordinate dimensions the squared differences are summed
#: column by column, in the order ``np.linalg.norm(axis=1)`` adds them (it
#: reduces short rows left to right; from eight columns on it sums pairwise)
_COLUMN_SUM_MAX_DIM = 3


def _mix64(x: np.ndarray, scratch: np.ndarray) -> None:
    """splitmix64 finalizer over a uint64 array, in place (wrapping arithmetic).

    ``scratch`` is a uint64 buffer of ``x``'s shape that receives the shifts,
    so a whole batch is mixed with no temporary of its own.  Everything stays
    an *array* operation: NumPy integer ufuncs wrap silently, whereas the
    scalar path would raise overflow warnings under the suite's
    ``filterwarnings = error``.
    """
    np.right_shift(x, np.uint64(30), out=scratch)
    x ^= scratch
    x *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(x, np.uint64(27), out=scratch)
    x ^= scratch
    x *= np.uint64(0x94D049BB133111EB)
    np.right_shift(x, np.uint64(31), out=scratch)
    x ^= scratch


class CoordinateLatency(LatencyModel):
    """Lazy synthetic-coordinate latency: O(n·dim) state instead of O(n²).

    Hosts are points in a low-dimensional space; the one-way delay from
    ``a`` to ``b`` is ``floor + seconds_per_unit · dist(a, b) · jitter(a, b)``
    where ``jitter`` is a *directional* lognormal factor computed lazily and
    deterministically from the ordered pair ``(a, b)`` and the model seed —
    no pairwise matrix is ever materialised, so a 100k-host network costs
    ~1.6 MB of coordinates rather than the 80 GB dense matrix.

    The directional jitter makes delays one-way (``latency(a, b) ≠
    latency(b, a)`` in general), mirroring the access-network asymmetry the
    symmetrised King matrix averages out.  Two models with the same seed and
    coordinates agree on every pair; a different seed redraws every jitter.

    See :func:`repro.sim.king.king_coordinate_model` for the constructor
    fitted to the King RTT distribution.
    """

    def __init__(
        self,
        coords: np.ndarray,
        seconds_per_unit: float = 1.0,
        *,
        jitter_sigma: float = 0.0,
        floor: float = 0.0,
        seed: int = 0,
    ) -> None:
        self.coords = np.asarray(coords, dtype=np.float64)
        if self.coords.ndim != 2:
            raise ValueError("coords must be (n_hosts, dim)")
        if jitter_sigma < 0 or floor < 0:
            raise ValueError("jitter_sigma and floor must be non-negative")
        self.n_hosts = self.coords.shape[0]
        self.seconds_per_unit = float(seconds_per_unit)
        self.jitter_sigma = float(jitter_sigma)
        self.floor = float(floor)
        self.seed = int(seed)
        # fold the seed once; per-pair hashing then only mixes indices
        self._seed64 = np.asarray([self.seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        _mix64(self._seed64, np.empty_like(self._seed64))

    def latency(self, a: int, b: int) -> float:
        # Delegate to the pair kernel so scalar and batched lookups share one
        # floating-point path (1-D ``np.linalg.norm`` uses a scaled nrm2 that
        # differs from the axis reduction at the last ulp).
        return float(
            self.latency_pairs(
                np.array([a], dtype=np.intp), np.array([b], dtype=np.intp)
            )[0]
        )

    def latency_row(self, a: int, hosts: np.ndarray) -> np.ndarray:
        hosts = np.asarray(hosts, dtype=np.intp)
        return self.latency_pairs(np.full(len(hosts), a, dtype=np.intp), hosts)

    def latency_pairs(self, a_hosts: np.ndarray, b_hosts: np.ndarray) -> np.ndarray:
        """One pass per step over the batch, in place after the two row gathers.

        Bit for bit ``floor + seconds_per_unit * norm(coords[b] - coords[a]) *
        exp(jitter_sigma * ndtri(u))``: the distance is summed column by
        column up to :data:`_COLUMN_SUM_MAX_DIM` dimensions (``norm`` beyond),
        and the directional jitter hashes each ordered pair with splitmix64
        into ``u``, the top 53 bits of the hash as a float strictly inside
        ``(0, 1)``, so ``ndtri`` stays finite.
        """
        a_hosts = np.asarray(a_hosts, dtype=np.intp)
        b_hosts = np.asarray(b_hosts, dtype=np.intp)
        diff = self.coords.take(b_hosts, axis=0)
        diff -= self.coords.take(a_hosts, axis=0)
        dim = diff.shape[1]
        if not 0 < dim <= _COLUMN_SUM_MAX_DIM:
            d = np.linalg.norm(diff, axis=1)
        else:
            diff *= diff
            d = diff[:, 0].copy()
            for j in range(1, dim):
                d += diff[:, j]
            np.sqrt(d, out=d)
        if self.jitter_sigma > 0.0:
            from scipy.special import ndtri  # local: keep the sim layer import-light

            x = np.multiply(a_hosts.view(np.uint64), np.uint64(0x9E3779B97F4A7C15))
            x += self._seed64
            scratch = np.empty_like(x)
            _mix64(x, scratch)
            np.multiply(b_hosts.view(np.uint64), np.uint64(0xD1B54A32D192ED03), out=scratch)
            x ^= scratch
            _mix64(x, scratch)
            x >>= np.uint64(11)
            u = scratch.view(np.float64)
            np.add(x, 0.5, out=u)
            u *= 2.0**-53
            ndtri(u, out=u)
            u *= self.jitter_sigma
            np.exp(u, out=u)
            d *= u
        d *= self.seconds_per_unit
        d += self.floor
        d[a_hosts == b_hosts] = 0.0
        return d
