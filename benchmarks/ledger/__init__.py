"""The repo benchmark: a five-workload query ledger (see README.md here)."""
