"""Exact-arithmetic certification of k-very ampleness on blown-up bielliptic surfaces."""

__version__ = "0.1.0"
