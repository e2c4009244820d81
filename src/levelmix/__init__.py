"""Mixture-prior VAEs over tile-grid game level chunks: unsupervised
clustering of level design patterns, per-cluster generation, and the
evaluation suite (clustering accuracy, disentanglement, tile densities,
playability)."""

__version__ = "0.1.0"
