"""Frozen inputs and expected values shared across the test suite.

Every derived constant below was computed by hand from the construction
rules (depth lengths d_n, gap endpoints, closed-form series sums) and fixed
here first; the tests compare library output against these numbers, never
the other way around. gap_refs turns a gap-family level back into the
(code tuple, side) pairs that gap_bounds takes.
"""

from fractions import Fraction as F

from cantorval import DoublingPattern, RatioSequence

# the three bundled example families: purely periodic, Cantorval verdict
EX1 = RatioSequence(prefix=(), period=(F(7, 15), F(5, 21)))
EX2 = RatioSequence(prefix=(), period=(F(8, 21), F(11, 24), F(7, 33)))
EX3 = RatioSequence(prefix=(), period=(F(25, 51), F(23, 75), F(17, 69)))

EX1_MEASURE = F(8, 5)
EX2_MEASURE = F(13, 7)
EX3_MEASURE = F(26, 17)

# doubling patterns whose induced ratio sequences are exactly the examples:
# positions 2n / 3n / {3n-1, 3n} doubled
EX1_PATTERN = DoublingPattern(prefix_bits=(), period_bits=(0, 1))
EX2_PATTERN = DoublingPattern(prefix_bits=(), period_bits=(0, 0, 1))
EX3_PATTERN = DoublingPattern(prefix_bits=(), period_bits=(0, 1, 1))

# d_n = lambda_1 * ... * lambda_n for EX1; d_{2n} = 1/9^n
EX1_LENGTHS = {
    0: F(1),
    1: F(7, 15),
    2: F(1, 9),
    3: F(7, 135),
    4: F(1, 81),
    5: F(7, 1215),
    6: F(1, 729),
}

# small-ratio depths of EX1 (every even depth) and its cover offsets
# delta_n = (3 d_{k_n} + d_{k_n - 1}) / 2
EX1_K = {1: 2, 2: 4, 3: 6, 4: 8, 5: 10}
EX1_DELTAS = {1: F(2, 5), 2: F(2, 45), 3: F(2, 405)}

# total measure removed by the persistent gaps, and what remains
EX1_GAP_UNION = F(2, 5)

# measure of the difference-set approximation at depth k_N:
# 2 - sum_{l<=N} 2*3^(l-1) * (d_{k_l - 1} - 3 d_{k_l})
EX1_PARTIAL_MEASURES = {
    1: F(26, 15),
    2: F(74, 45),
    3: F(218, 135),
    4: F(130, 81),
    5: F(1946, 1215),
}

# persistent family of EX1: level sizes, extreme codes, extreme gap ends
EX1_LEVEL_SIZES = {1: 2, 2: 6, 3: 18, 4: 54}
EX1_P2 = (0, 1, 0)
EX1_Q2 = (2, 1, 2)
# right end of the leftmost level-n gap / left end of the rightmost one:
# -1 + sum_{l<=n} (d_{k_l - 1} - d_{k_l}) and its mirror image
EX1_EXTREME_RIGHT = {1: F(-29, 45), 2: F(-49, 81)}
EX1_EXTREME_LEFT = {1: F(29, 45), 2: F(49, 81)}
# the limits as n grows: the persistent gaps stay outside (-3/5, 3/5)
EX1_LIMITS = (F(-3, 5), F(3, 5))

# leftmost level-1 gap of EX1, from the gap formula under code (0):
# (lo(J_0) + 2 d_2, lo(J_0) + d_1 - d_2)
EX1_LEVEL1_GAP0 = (F(-7, 9), F(-29, 45))

# a finite-union specimen: one small prefix ratio, large period ratio;
# stabilizes at depth 1 to three separated depth-1 blocks
FINITE = RatioSequence(prefix=(F(1, 4),), period=(F(2, 5),))
FINITE_UNION = [
    (F(-1), F(-1, 2)),
    (F(-1, 4), F(1, 4)),
    (F(1, 2), F(1)),
]
FINITE_MEASURE = F(3, 2)

# full-interval constants and an all-small Cantor specimen
FULL_THIRD = RatioSequence.constant(F(1, 3))
FULL_TWO_FIFTHS = RatioSequence.constant(F(2, 5))
FULL_ALMOST_HALF = RatioSequence.constant(F(49, 100))
CANTOR_SMALL = RatioSequence.constant(F(1, 4))

# EX1 with its second ratio nudged by 1/1000: residuals stop vanishing
EX1_PERTURBED = RatioSequence(
    prefix=(), period=(F(7, 15), F(5, 21) + F(1, 1000))
)

# series whose subsum set the Kakeya-style comparison cannot settle:
# terms 1, 1, 1/9, 1/9, 1/81, ... alternate between excess and shortfall
INCONCLUSIVE_SERIES_JSON = {"prefix": [], "block": ["1", "1"], "ratio": "1/9"}


def gap_refs(gaps):
    """The (code tuple, side) pair of each row of a family level, in its order."""
    return [(tuple(map(int, code)), side) for code, side in zip(gaps.codes, gaps.sides)]
