"""Achievement sets of fast convergent series and the doubling-pattern bridge.

The set of all subsums of a positive nonincreasing convergent series is, up
to scale, a central Cantor set exactly when the series is fast convergent:
every term strictly exceeds the sum of all later terms. Conversely every
ratio sequence induces such a series via the lengths removed at each depth.

A doubling pattern marks the positions of a base-1/3 geometric series whose
term is doubled. Doubling position j by j+1 closes the gap that a plain
term would leave, and the resulting subsum sets realize the Cantorval
regime: the induced ratio sequence satisfies the cover equations exactly,
and the difference set of the subsum set always has measure 3.
"""

from __future__ import annotations

from fractions import Fraction

from . import lattice
from .budget import charge_power
from .construction import RatioSequence, length_drop
from .errors import AssumptionError, SpecValidationError, VerificationError
from .rationals import to_lattice
from .records import Record, check_fields, fields_from_json


def _positive_entries(label: str, entries) -> tuple[Fraction, ...]:
    out = []
    for i, value in enumerate(entries, 1):
        frac = value if isinstance(value, Fraction) else Fraction(value)
        if frac <= 0:
            raise SpecValidationError(f"{label} term {i} must be positive, got {frac}")
        out.append(frac)
    return tuple(out)


class MultigeometricSeries(Record, json=True):
    """Eventually multigeometric positive series: finite prefix terms, then a
    block repeated with a fixed ratio in (0, 1)."""

    prefix: tuple[Fraction, ...] = ()
    block: tuple[Fraction, ...] = ()
    ratio: Fraction = Fraction(1, 3)

    def __post_init__(self):
        object.__setattr__(self, "prefix", _positive_entries("prefix", self.prefix))
        object.__setattr__(self, "block", _positive_entries("block", self.block))
        ratio = self.ratio if isinstance(self.ratio, Fraction) else Fraction(self.ratio)
        object.__setattr__(self, "ratio", ratio)
        if not self.block:
            raise SpecValidationError("block must contain at least one term")
        if not 0 < ratio < 1:
            raise SpecValidationError(f"ratio must lie strictly between 0 and 1, got {ratio}")
        # nonincreasing over the prefix and two block copies pins all later
        # comparisons, which repeat scaled by the ratio
        span = len(self.prefix) + 2 * len(self.block)
        for j in range(1, span):
            if self.term(j) < self.term(j + 1):
                raise SpecValidationError(
                    f"terms must be nonincreasing; term {j + 1} exceeds term {j}"
                )

    def term(self, j: int) -> Fraction:
        if j < 1:
            raise ValueError("term index must be >= 1")
        if j <= len(self.prefix):
            return self.prefix[j - 1]
        offset = j - len(self.prefix) - 1
        cycle, pos = divmod(offset, len(self.block))
        return self.block[pos] * self.ratio**cycle

    @property
    def total(self) -> Fraction:
        return sum(self.prefix, Fraction(0)) + sum(self.block, Fraction(0)) / (1 - self.ratio)

    def remainder(self, n: int) -> Fraction:
        """Sum of all terms past index n."""
        if n < 0:
            raise ValueError("remainder index must be >= 0")
        return _remainders(self, n)[n]

    @classmethod
    def from_json(cls, data) -> "MultigeometricSeries":
        if isinstance(data, dict) and data.keys() <= {"prefix", "block"}:
            raise SpecValidationError("series needs a ratio")
        return fields_from_json(cls, data, "series")


def series_from_ratios(seq: RatioSequence) -> MultigeometricSeries:
    """Lengths removed at each depth: term j is d(j-1) - d(j). Sums to 1."""
    span = len(seq.prefix) + len(seq.period)
    drops = [length_drop(seq, j) for j in range(1, span + 1)]
    return MultigeometricSeries(
        prefix=tuple(drops[: len(seq.prefix)]),
        block=tuple(drops[len(seq.prefix) :]),
        ratio=seq.period_product,
    )


def _remainders(series: MultigeometricSeries, n: int) -> list[Fraction]:
    """remainder(0), ..., remainder(n), by running subtraction of the terms."""
    out = [series.total]
    for j in range(1, n + 1):
        out.append(out[-1] - series.term(j))
    return out


def is_fast_convergent(series: MultigeometricSeries) -> bool:
    """True when every term strictly exceeds the sum of all later terms.

    Checking the prefix plus one block suffices: past the prefix both sides
    of the comparison scale by the ratio from one block to the next.
    """
    span = len(series.prefix) + len(series.block)
    remainders = _remainders(series, span)
    return all(series.term(j) > remainders[j] for j in range(1, span + 1))


def ratios_from_series(series: MultigeometricSeries) -> RatioSequence:
    """Ratio sequence whose scaled Cantor set is the series' subsum set."""
    if not is_fast_convergent(series):
        raise AssumptionError(
            "ratios are defined only for fast convergent series "
            "(every term strictly exceeding the sum of all later terms)"
        )
    span = len(series.prefix) + len(series.block)
    remainders = _remainders(series, span)
    ratios = [remainders[j] / remainders[j - 1] for j in range(1, span + 1)]
    return RatioSequence(
        prefix=tuple(ratios[: len(series.prefix)]),
        period=tuple(ratios[len(series.prefix) :]),
    )


def kakeya_classify(series: MultigeometricSeries) -> str:
    """Classify the subsum set by Kakeya's term-versus-remainder comparisons.

    Past the prefix both sides of each comparison scale by the ratio from one
    block to the next, so one block of positions decides them all. A term
    strictly exceeding its remainder at every such position gives a Cantor
    set, at none a finite union of intervals; a mix is inconclusive at this
    level of analysis.
    """
    lo = len(series.prefix) + 1
    hi = len(series.prefix) + len(series.block)
    remainders = _remainders(series, hi)
    excess = [series.term(j) > remainders[j] for j in range(lo, hi + 1)]
    if all(excess):
        return "CantorSet"
    return "Inconclusive" if any(excess) else "FiniteIntervalUnion"


def subsum_cover(series: MultigeometricSeries, depth: int, budget: int | None = None) -> lattice.IntervalUnion:
    """Union over all subsets of the first `depth` terms of
    [subset sum, subset sum + remainder(depth)], normalized."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    charge_power(2, depth, budget)
    terms = [series.term(j) for j in range(1, depth + 1)]
    (*ints, tail), denom = to_lattice([*terms, series.remainder(depth)])
    # [0, tail] + sum over j of {0, t_j}, the smallest terms folded in first
    return lattice.fold_copies(reversed(ints), 1, 0, tail, denom)


def _bits(label: str, entries) -> tuple[int, ...]:
    out = []
    for i, bit in enumerate(entries, 1):
        if bit not in (0, 1):
            raise SpecValidationError(f"{label} position {i} must be 0 or 1, got {bit!r}")
        out.append(int(bit))
    return tuple(out)


class DoublingPattern(Record):
    """Eventually periodic 0/1 marking of which base-1/3 terms are doubled.

    Position j contributes 2/3**(j-1) when marked, 1/3**(j-1) otherwise.
    The marking must leave position 1 plain and the period must mix marked
    and plain positions, so that both kinds recur forever.
    """

    prefix_bits: tuple[int, ...] = ()
    period_bits: tuple[int, ...] = (0, 1)

    def __post_init__(self):
        object.__setattr__(self, "prefix_bits", _bits("prefix_bits", self.prefix_bits))
        object.__setattr__(self, "period_bits", _bits("period_bits", self.period_bits))
        if not self.period_bits:
            raise SpecValidationError("period_bits must be nonempty")
        if self.bit(1) == 1:
            raise AssumptionError(
                "position 1 must stay undoubled: the first doubled position has to "
                "come after it"
            )
        if 1 not in self.period_bits:
            raise AssumptionError("the period must double at least one position")
        if 0 not in self.period_bits:
            raise AssumptionError("the period must leave at least one position undoubled")

    def bit(self, j: int) -> int:
        if j < 1:
            raise ValueError("position must be >= 1")
        if j <= len(self.prefix_bits):
            return self.prefix_bits[j - 1]
        offset = (j - len(self.prefix_bits) - 1) % len(self.period_bits)
        return self.period_bits[offset]

    def to_json(self) -> dict:
        return {
            "prefix_bits": "".join(map(str, self.prefix_bits)),
            "period_bits": "".join(map(str, self.period_bits)),
        }

    @classmethod
    def from_json(cls, data) -> "DoublingPattern":
        check_fields(cls, data, "pattern")
        if "period_bits" not in data:
            raise SpecValidationError("pattern needs period_bits")

        def decode(label: str, text) -> tuple[int, ...]:
            if not isinstance(text, str) or set(text) - {"0", "1"}:
                raise SpecValidationError(f"{label} must be a string of 0s and 1s, got {text!r}")
            return tuple(int(c) for c in text)

        return cls(
            prefix_bits=decode("prefix_bits", data.get("prefix_bits", "")),
            period_bits=decode("period_bits", data["period_bits"]),
        )


def series_from_pattern(
    pattern: DoublingPattern,
) -> tuple[MultigeometricSeries, RatioSequence, Record]:
    """Series, induced ratio sequence, and Cantorval certificate of a pattern.

    Doubling closes the gap a plain term would leave, so the induced ratio
    sequence always lands in the Cantorval regime with vanishing cover
    residuals, and series total times measure is 3; both are verified, not
    assumed. Only this function imports classify: converting ratios or a series runs none of it.
    """
    from .classify import VERDICT_CANTORVAL, classify

    span = len(pattern.prefix_bits) + len(pattern.period_bits)

    def term(j: int) -> Fraction:
        return Fraction(2 if pattern.bit(j) else 1, 3 ** (j - 1))

    series = MultigeometricSeries(
        prefix=tuple(term(j) for j in range(1, len(pattern.prefix_bits) + 1)),
        block=tuple(term(j) for j in range(len(pattern.prefix_bits) + 1, span + 1)),
        ratio=Fraction(1, 3 ** len(pattern.period_bits)),
    )
    seq = ratios_from_series(series)
    cert = classify(seq)
    if cert.verdict != VERDICT_CANTORVAL or cert.measure is None:
        raise VerificationError(
            "internal error: a doubling pattern must induce a Cantorval with "
            f"vanishing cover residuals, got {cert.verdict}"
        )
    if series.total * cert.measure != 3:
        raise VerificationError(
            "difference-set measure of a doubling pattern must be 3, "
            f"got {series.total * cert.measure}"
        )
    return series, seq, cert


class MultigeometricForm(Record, json=True):
    """Purely periodic series written as (eps_1, ..., eps_m; 3**-m), with the
    exact measure of the subsum set's difference set divided by its span."""

    epsilons: tuple[int, ...]
    ratio: Fraction
    measure: Fraction


def multigeometric_form(pattern: DoublingPattern) -> MultigeometricForm:
    """Closed form for patterns with no prefix: the doubled positions are a
    union of arithmetic progressions with difference equal to the period."""
    if pattern.prefix_bits:
        raise AssumptionError(
            "the closed multigeometric form needs a purely periodic pattern "
            "(no prefix positions)"
        )
    m = len(pattern.period_bits)
    epsilons = tuple(2 if b else 1 for b in pattern.period_bits)
    first_block = sum(Fraction(e, 3 ** (j - 1)) for j, e in enumerate(epsilons, 1))
    measure = Fraction(3**m - 1, 3 ** (m - 1)) / first_block
    return MultigeometricForm(
        epsilons=epsilons, ratio=Fraction(1, 3**m), measure=measure
    )


def difference_measure(pattern: DoublingPattern) -> Fraction:
    """Measure of the difference set of the pattern's subsum set: always 3."""
    series, _, cert = series_from_pattern(pattern)
    return series.total * cert.measure
