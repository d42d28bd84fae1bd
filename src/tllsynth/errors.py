"""Exception types raised by the synthesis pipeline."""


class TllSynthError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveEta(TllSynthError, ValueError):
    """Grid spacing must be strictly positive."""


class DimensionTooLarge(TllSynthError, ValueError):
    """Requested dimension exceeds the factorial-growth safety cap."""


class OutsideDomain(TllSynthError, ValueError):
    """Query point lies outside the covered hypercube union."""


class OracleFailure(TllSynthError):
    """Controller oracle raised or returned non-finite values."""


class BudgetExceeded(TllSynthError):
    """A measured quantity violates its declared budget."""


class DiscontinuityDetected(TllSynthError):
    """Interpolant pieces disagree across a shared face beyond tolerance."""


class EmptySelector(TllSynthError):
    """A lattice selector set came out empty; indicates corrupted pieces."""


class DimensionMismatch(TllSynthError, ValueError):
    """Operands disagree on input or state dimension."""


class BoundViolated(TllSynthError):
    """A compiled size exceeds the constructive bound it must satisfy."""


class SchemaError(TllSynthError, ValueError):
    """Serialized artifact does not match its documented schema."""


class InvariantViolation(TllSynthError):
    """Imported artifact fails internal consistency revalidation."""


class NonPositiveBudget(TllSynthError, ValueError):
    """A budget field that must be strictly positive is not."""


class NonFiniteState(TllSynthError):
    """Trajectory integration produced NaN or infinity."""


class StepInvalid(TllSynthError, ValueError):
    """Integrator horizon or step is not a positive finite number, or the
    step leaves no finite step count over the horizon."""


class ConfigError(TllSynthError, ValueError):
    """Run configuration is missing fields or holds malformed values."""
