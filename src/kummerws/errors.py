"""Exception types shared across the library."""


class KummerError(Exception):
    """Base class for all library errors."""


class IndexNotDistinguished(KummerError):
    """A place index beyond the distinguished range was used where a
    distinguished place is required."""


class ResidueOutOfRange(KummerError):
    """A residue index i was outside {1, ..., m-1}."""


class BadPreset(KummerError):
    """Preset parameters violate the family's constraints."""


class InconsistentProfile(KummerError):
    """The ramification data does not describe a curve (non-integral or
    negative genus)."""


DEFAULT_BUDGET = 10**7  # work units a computation may spend by default


class BudgetExceeded(KummerError):
    """A computation would examine more candidate points, or build a
    larger table, than the configured budget allows."""


def check_budget(size: int, what: str, budget: int = DEFAULT_BUDGET) -> None:
    """Refuse work of the given size, described by what, beyond the budget."""
    if size > budget:
        raise BudgetExceeded(f"{what}: {size} (budget {budget})")
