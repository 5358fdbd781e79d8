"""Exception types shared across the solver modules."""


class NonPositiveDensity(ValueError):
    """Mesh density would be non-positive for the requested targets."""


class DegenerateProfile(RuntimeError):
    """Solution profile lacks the structure needed to derive mesh targets."""


class OutOfDomain(ValueError):
    """A requested sample point falls outside the physical domain."""


class AssemblyFailure(RuntimeError):
    """Galerkin operator is not SPD: the eta pencil or a rho mode system."""


class SolveFailure(RuntimeError):
    """Linear solve of the Galerkin system failed."""


class NonFinite(FloatingPointError):
    """A field produced by the time stepper contains NaN or Inf."""


class DegenerateFit(RuntimeError):
    """Fitted trend has the wrong sign for an inverse power law."""


class NonConvergent(RuntimeError):
    """Fit re-centering failed to settle within the iteration cap."""


class MissingExponent(KeyError):
    """A scaling relation references an exponent that was not supplied."""


class ZeroField(ValueError):
    """An operation that normalizes by a field norm received a zero field."""


class ConfigError(ValueError):
    """Malformed run configuration file."""
