"""Packet-level discrete-event simulation substrate (p2psim substitute).

Provides the event engine, network latency models (including the synthetic
King-like matrix standing in for the King dataset), message size accounting
per the paper's byte model, and per-query cost statistics.
"""

from repro.sim.engine import EventHandle, Simulator
from repro.sim.king import (
    KING_MEAN_RTT,
    KING_N_HOSTS,
    king_latency_model,
    synthetic_king_matrix,
)
from repro.sim.messages import (
    ResultEntry,
    ResultMessage,
    query_message_size,
    result_message_size,
)
from repro.sim.network import ConstantLatency, EuclideanLatency, LatencyModel, MatrixLatency
from repro.sim.stats import QueryStats, StatsCollector
from repro.sim.transport import (
    FaultConfig,
    MessageAccounting,
    Protocol,
    TimerHandle,
    Transport,
    TransportStats,
    traffic_class,
)

__all__ = [
    "Simulator",
    "EventHandle",
    "LatencyModel",
    "ConstantLatency",
    "MatrixLatency",
    "EuclideanLatency",
    "synthetic_king_matrix",
    "king_latency_model",
    "KING_N_HOSTS",
    "KING_MEAN_RTT",
    "ResultMessage",
    "ResultEntry",
    "query_message_size",
    "result_message_size",
    "QueryStats",
    "StatsCollector",
    "Transport",
    "TransportStats",
    "traffic_class",
    "Protocol",
    "FaultConfig",
    "MessageAccounting",
    "TimerHandle",
]
