"""Exact-arithmetic twins of protocol formulas, for identity checks.

The protocols compute in floats; these compute the same formulas in
`Fraction`s, so a test can check an identity (a column sums to exactly 1)
without rounding in the way.
"""

from fractions import Fraction


def sink_adjacent_split_exact(n_neighbors: int):
    """Rational-arithmetic twin of `ieeabr.sink_adjacent_split`."""
    if n_neighbors == 1:
        return Fraction(1), Fraction(0)
    n = Fraction(n_neighbors)
    return (9 * n - 5) / (4 * n * n), (4 * n - 5) / (4 * n * n)
