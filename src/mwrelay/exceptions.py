"""Exception types shared across the package."""


class InvalidConfigError(ValueError):
    """A system, geometry, or experiment parameter is out of its valid range."""


class SingularSystemError(RuntimeError):
    """The zero-forcing Gram matrix is numerically singular.

    Carries ``condition``, a rough estimate of the Gram condition number at
    the point of failure (may be ``inf`` when factorization failed outright).
    """

    def __init__(self, message, condition=float("inf")):
        super().__init__(message)
        self.condition = condition
