"""Interval budget guarding the exponential enumerations."""

from .errors import DepthBudgetError

DEFAULT_BUDGET = 1 << 20


def resolve_budget(budget: int | None) -> int:
    if budget is None:
        return DEFAULT_BUDGET
    if budget < 1:
        raise ValueError("budget must be positive")
    return budget


def charge(needed: int, budget: int | None = None) -> None:
    """Raise DepthBudgetError if an enumeration of `needed` intervals is over budget."""
    limit = resolve_budget(budget)
    if needed > limit:
        raise DepthBudgetError(needed, limit)


def charge_power(base: int, exponent: int, budget: int | None = None, less: int = 0) -> None:
    """charge(base**exponent - less, budget) for base >= 2 and less in {0, 1}. Past
    exponent 64 a count over budget is refused as its formula; past the budget's
    bit length, where 2**exponent - 1 is already over it, the power is never built."""
    limit = resolve_budget(budget)
    if exponent > 64 and (exponent > limit.bit_length() or base**exponent - less > limit):
        raise DepthBudgetError(f"{base}**{exponent}" + (f" - {less}" if less else ""), limit)
    charge(base**exponent - less, budget)
