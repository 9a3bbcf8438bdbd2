"""Exception types shared across the package."""


class TopologyError(ValueError):
    """Edge not present in the graph."""


class ConstraintError(ValueError):
    """Constraint references a missing node or violates its own invariants."""


class InfeasibleInitError(ValueError):
    """Requested grid initialization cannot satisfy the separation distance."""


class DivergenceError(RuntimeError):
    """A projection or update-map probe met a non-finite energy or step.

    Carries the partial trace accumulated before the blow-up in ``trace``.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
