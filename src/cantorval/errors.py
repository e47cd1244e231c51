"""Exception hierarchy; each class carries the CLI exit code it maps onto."""


class CantorvalError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class SpecValidationError(CantorvalError):
    """Input could not be parsed or violates a structural invariant."""

    exit_code = 2


class AssumptionError(CantorvalError):
    """A hypothesis required by the requested computation does not hold."""

    exit_code = 3


class DepthBudgetError(CantorvalError):
    """An enumeration would exceed the configured interval budget. `needed`
    is the count, or a formula such as "3**100" for one too large to build."""

    exit_code = 4

    def __init__(self, needed: int | str, budget: int):
        super().__init__(f"enumeration needs {needed} intervals, budget is {budget}")
        self.needed = needed
        self.budget = budget


class VerificationError(CantorvalError):
    """A certificate failed re-verification."""

    exit_code = 1
