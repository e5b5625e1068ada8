"""Dispersion scoring and the error taxonomy."""
