"""Exception hierarchy mapped onto the CLI exit codes."""


class CantorvalError(Exception):
    """Base class for all library errors."""


class SpecValidationError(CantorvalError):
    """Input could not be parsed or violates a structural invariant (exit 2)."""


class AssumptionError(CantorvalError):
    """A hypothesis required by the requested computation does not hold (exit 3)."""


class DepthBudgetError(CantorvalError):
    """An enumeration would exceed the configured interval budget (exit 4). `needed`
    is the count, or a formula such as "3**100" for one too large to build."""

    def __init__(self, needed: int | str, budget: int):
        super().__init__(f"enumeration needs {needed} intervals, budget is {budget}")
        self.needed = needed
        self.budget = budget


class VerificationError(CantorvalError):
    """A certificate failed re-verification (exit 1)."""
