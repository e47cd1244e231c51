"""Seeded benchmark inputs and the exact reference values they imply.

Every generator draws from a `random.Random` that the caller seeds and uses
small denominators. The reference math here is written from the definitions
with `Fraction` and plain ints only; it never calls the library under test,
so a wrong answer from the program cannot also be the expected answer.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction as F
from math import lcm

THIRD = F(1, 3)
HALF = F(1, 2)


@dataclass(frozen=True)
class Seq:
    """Eventually periodic ratio sequence: prefix, then a repeating period."""

    prefix: tuple[F, ...]
    period: tuple[F, ...]

    def ratio(self, n: int) -> F:
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        return self.period[(n - len(self.prefix) - 1) % len(self.period)]

    def lengths(self, depth: int) -> list[F]:
        """d_0 .. d_depth, the common piece length at each depth."""
        out = [F(1)]
        for n in range(1, depth + 1):
            out.append(out[-1] * self.ratio(n))
        return out

    def to_json(self) -> dict:
        return {"prefix": [str(r) for r in self.prefix], "period": [str(r) for r in self.period]}

    def spec(self) -> str:
        return json.dumps({"lambda": self.to_json()}, separators=(",", ":"))


EX1 = Seq((), (F(7, 15), F(5, 21)))
EX2 = Seq((), (F(8, 21), F(11, 24), F(7, 33)))
EX3 = Seq((), (F(25, 51), F(23, 75), F(17, 69)))
EXAMPLES = ((EX1, "01", F(8, 5)), (EX2, "001", F(13, 7)), (EX3, "011", F(26, 17)))
FULL_TWO_FIFTHS = Seq((), (F(2, 5),))
CANTOR_QUARTER = Seq((), (F(1, 4),))


def _ratios(lo: F, hi: F, max_den: int) -> list[F]:
    """Every p/q with lo <= p/q < hi and q <= max_den, ascending."""
    return sorted({F(p, q) for q in range(2, max_den + 1) for p in range(1, q) if lo <= F(p, q) < hi})


_LARGE = _ratios(THIRD, HALF, 15)
_SMALL = _ratios(F(1, 4), THIRD, 15)
_SMALL_CANTOR = [r for r in _ratios(F(1, 5), THIRD, 7) if r.denominator >= 4]


def mixed_period(rng) -> Seq:
    """Cantorval regime whose coded intervals merge into few parts: the
    ratios induced by a doubling pattern with at most half its positions
    doubled."""
    while True:
        bits = doubling_bits(rng, rng.choice((2, 3, 4, 5)))
        if 2 * bits.count("1") <= len(bits):
            return pattern_lambda(bits)


def full_constant(rng) -> Seq:
    """FullInterval regime: one constant ratio at least 1/3."""
    return Seq((), (rng.choice(_LARGE),))


def finite_union(rng) -> Seq:
    """FiniteIntervalUnion regime: small ratios only in the prefix."""
    prefix = [rng.choice(_SMALL)]
    if rng.random() < 0.5:
        prefix.append(rng.choice(_LARGE + _SMALL))
    rng.shuffle(prefix)
    return Seq(tuple(prefix), tuple(rng.choice(_LARGE) for _ in range(rng.choice((1, 2)))))


def cantor_period(rng) -> Seq:
    """CantorSet regime: every ratio below 1/3."""
    return Seq((), tuple(rng.choice(_SMALL_CANTOR) for _ in range(rng.choice((1, 2, 3)))))


def doubling_bits(rng, size: int) -> str:
    """Period bits of a doubling pattern: position 1 plain, both kinds present."""
    while True:
        bits = "0" + "".join(rng.choice("01") for _ in range(size - 1))
        if "1" in bits:
            return bits


def perturbed(rng) -> Seq:
    """One of the examples with one ratio nudged off its cover equation,
    keeping it on the same side of 1/3."""
    seq = rng.choice((EX1, EX2, EX3))
    period = list(seq.period)
    i = rng.randrange(len(period))
    nudge = F(rng.choice((-1, 1)) * rng.randint(1, 9), 1000)
    if (period[i] + nudge >= THIRD) != (period[i] >= THIRD):
        nudge = -nudge
    period[i] += nudge
    return Seq((), tuple(period))


# --- reference values -------------------------------------------------------


def cantor_pieces(seq: Seq, depth: int) -> tuple[list[int], int, int]:
    """Left ends of the 2^depth kept intervals as ints over a common
    denominator, with the piece length and that denominator."""
    lengths = seq.lengths(depth)
    denom = lcm(*(d.denominator for d in lengths))
    ints = [d.numerator * (denom // d.denominator) for d in lengths]
    lefts = [0]
    for n in range(1, depth + 1):
        step = ints[n - 1] - ints[n]
        lefts = [x + t for x in lefts for t in (0, step)]
    return lefts, ints[depth], denom


def oracle_union(seq: Seq, depth: int) -> list[tuple[F, F]]:
    """C_n - C_n by the pairwise Minkowski difference of the depth-n pieces."""
    lefts, size, denom = cantor_pieces(seq, depth)
    pairs = sorted((a - b - size, a - b + size) for a in lefts for b in lefts)
    merged: list[list[int]] = []
    for lo, hi in pairs:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(F(lo, denom), F(hi, denom)) for lo, hi in merged]


def complement(parts: list[tuple[F, F]]) -> list[tuple[F, F]]:
    """Open gaps of [-1, 1] minus a normalized union inside it."""
    ends = [F(-1)] + [x for p in parts for x in p] + [F(1)]
    return [(a, b) for a, b in zip(ends[::2], ends[1::2]) if a < b]


def covered(parts: list[tuple[F, F]], lo: F, hi: F) -> bool:
    """True when [lo, hi] lies inside one part of a normalized union."""
    i = bisect_right(parts, (lo, F(2))) - 1
    return i >= 0 and parts[i][0] <= lo and hi <= parts[i][1]


def stable_depth(seq: Seq) -> int:
    """Last prefix depth with a ratio below 1/3 (period all at least 1/3)."""
    return max((n for n, r in enumerate(seq.prefix, 1) if r < THIRD), default=0)


def small_indices(seq: Seq, upto: int) -> list[int]:
    return [n for n in range(1, upto + 1) if seq.ratio(n) < THIRD]


def partial_measure(seq: Seq, depth: int) -> F:
    """Measure of the depth-n approximation of a Cantorval whose cover
    equations hold with base 0: 2 minus the family gaps opened so far,
    2*3^(l-1) gaps of length d(k_l - 1) - 3 d(k_l) at level l."""
    d = seq.lengths(depth)
    return 2 - sum(
        2 * 3 ** (level - 1) * (d[k - 1] - 3 * d[k])
        for level, k in enumerate(small_indices(seq, depth), 1)
    )


def residuals(seq: Seq, base: int = 0) -> list[dict]:
    """Cover-equation residuals for each consecutive ratio pair past the base."""
    out = []
    for r in range(base + 1, max(len(seq.prefix), base) + len(seq.period) + 1):
        a, b = seq.ratio(r), seq.ratio(r + 1)
        if (a >= THIRD) == (b >= THIRD):
            case, value = (">=,>=" if a >= THIRD else "<,<"), 3 * a * b - 4 * a + 1
        elif a >= THIRD:
            case, value = ">=,<", 3 * a * b - 5 * a + 2
        else:
            case, value = "<,>=", 6 * a * b - 7 * a + 1
        out.append({"case": case, "index": r, "value": str(value)})
    return out


def pattern_terms(bits: str) -> list[F]:
    """First period of the series: position j carries (1 or 2) / 3^(j-1)."""
    return [F(2 if b == "1" else 1, 3 ** (j - 1)) for j, b in enumerate(bits, 1)]


def pattern_total(bits: str) -> F:
    return sum(pattern_terms(bits)) / (1 - F(1, 3 ** len(bits)))


def pattern_lambda(bits: str) -> Seq:
    """Ratios d_j / d_(j-1) where d_j is the series remainder after term j."""
    remainder = [pattern_total(bits)]
    for t in pattern_terms(bits):
        remainder.append(remainder[-1] - t)
    return Seq((), tuple(remainder[j] / remainder[j - 1] for j in range(1, len(bits) + 1)))


def pattern_measure(bits: str) -> F:
    """Closed-form measure (3^m - 1) / 3^(m-1) / first block of a purely
    periodic pattern; times the series total it is 3."""
    m = len(bits)
    return F(3**m - 1, 3 ** (m - 1)) / sum(pattern_terms(bits))


def cantorval_certificate(seq: Seq, measure: F) -> dict:
    return {
        "input": {"lambda": seq.to_json()},
        "verdict": "Cantorval",
        "rule": "cover-equation-system",
        "measure": str(measure),
        "k0": 0,
        "residuals": residuals(seq),
        "stable_depth": None,
        "union": None,
        "report": None,
    }


def cantor_certificate(seq: Seq) -> dict:
    return {
        "input": {"lambda": seq.to_json()},
        "verdict": "CantorSet",
        "rule": "Kraft-generalized",
        "measure": "0",
        "k0": None,
        "residuals": None,
        "stable_depth": None,
        "union": None,
        "report": None,
    }
