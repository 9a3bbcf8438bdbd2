"""Exception types shared across the package."""


class TopologyError(ValueError):
    """Edge not present in the graph."""


class ConstraintError(ValueError):
    """Constraint references a missing node or violates its own invariants."""


class InfeasibleInitError(ValueError):
    """Requested grid initialization cannot satisfy the separation distance."""


class DivergenceError(RuntimeError):
    """An update-map probe met a non-finite line-search step, so the map
    has no Jacobian there (solver.update_map_jacobian)."""
