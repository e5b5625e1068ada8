"""Logic-invariant linguistic diversification."""
