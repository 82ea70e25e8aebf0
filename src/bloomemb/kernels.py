"""Holds no kernel: those live in hashing and codec. Kept only because the
benchmark's run record imports this module and records NUMBA_ENABLED."""

NUMBA_ENABLED = False
