"""Exception types shared across the library."""


class AmpPathError(Exception):
    """Base class for all library errors."""


class ConfigError(AmpPathError):
    """Invalid configuration or arguments (caller mistake)."""


class SolverError(AmpPathError):
    """A numerical solver failed to produce a result."""


class NonConvergence(SolverError):
    """An iterative solver exceeded its iteration cap."""


class NegativeLambda(ConfigError):
    """The false-alarm ratio beta is below the lambda = 0 crossing."""


class BracketFailure(SolverError):
    """A root could not be bracketed inside the search interval."""


class Divergence(SolverError):
    """Iterates blew up (for AMP: unstable above the phase transition)."""


class RangeError(ConfigError):
    """Argument outside its admissible range: a scalar, an order statistic or
    an array shape."""
