"""Exception types shared across the package."""


class NumericalCheckError(ValueError):
    """A numerical invariant failed: non-hermitian input, broken unitarity,
    eigensolver breakdown, rank deficiency and the like."""


class ConfigError(ValueError):
    """A run configuration (CLI flags or JSON config file) is invalid."""
