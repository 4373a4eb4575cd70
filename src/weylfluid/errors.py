"""Exception hierarchy for chart, metric, solver and harness failures."""


class WeylFluidError(Exception):
    """Base class for all library errors."""


class DomainExitError(WeylFluidError):
    """A finite-difference stencil or integration step left the chart box."""

    def __init__(self, coordinate: str, value: float, interval: tuple):
        self.coordinate = coordinate
        self.value = value
        self.interval = interval
        super().__init__(
            f"coordinate {coordinate!r} = {value:.6g} exits the chart interval "
            f"[{interval[0]:.6g}, {interval[1]:.6g}]"
        )


class SingularMetricError(WeylFluidError):
    """|det g| fell below the conditioning floor at a sample point."""


class NotTimelikeError(WeylFluidError):
    """A vector field claimed timelike has g(u,u) >= -eps at a sample point."""


class SignatureError(WeylFluidError):
    """Metric eigenvalue signature is not (-,+,...,+) at a sample point."""


class CapabilityError(WeylFluidError):
    """Requested an operation outside the supported tensor ranks."""


class TransversalityError(WeylFluidError):
    """Flow component normal to the seed slice is non-positive."""


class ReachabilityError(WeylFluidError):
    """A characteristic left the chart before reaching the seed slice."""


class StiffnessError(WeylFluidError):
    """The adaptive stepper gave up: its step size fell below the floor, or
    it ran out of its step budget before the rays ended.  Either way the ODE
    is too stiff (or its coefficients too rough) for an explicit stepper."""


class ComparisonError(WeylFluidError):
    """Two paths cannot be compared (disjoint arc ranges or mismatched starts)."""


class ConstructionError(WeylFluidError):
    """A catalog preset failed validation (unknown name, bad parameters,
    or signature violated after perturbation)."""


class ConfigError(WeylFluidError):
    """Suite configuration failed to parse or validate."""
