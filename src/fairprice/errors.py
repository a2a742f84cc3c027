"""Semantic exception hierarchy.

Every error raised on a contract violation derives from FairpriceError so
callers (and the CLI) can map failures to exit codes without string matching.
"""


class FairpriceError(Exception):
    """Base class for all library errors."""


class ValidationError(FairpriceError, ValueError):
    """Malformed inputs: bad distribution parameters, configs, grids."""


class DegenerateSlice(FairpriceError):
    """The two group distributions coincide (total variation below 1e-12)."""


class OutOfRange(FairpriceError, ValueError):
    """Argument outside the mathematically admissible range."""


class WrongRegion(FairpriceError):
    """Operation called on a slice whose cost region does not support it."""


class NoConvergence(FairpriceError):
    """A bracketed solve failed; carries diagnostics about the bracket."""

    def __init__(self, message, **diagnostics):
        super().__init__(message)
        self.diagnostics = dict(diagnostics)


class UnsupportedConfiguration(FairpriceError):
    """Parameterization outside the solved special case."""


class InfeasibleCertificate(FairpriceError):
    """Dual pair violates pointwise feasibility; carries a witness pair."""

    def __init__(self, message, witness=None, slack=None):
        super().__init__(message)
        self.witness = witness
        self.slack = slack


class SlacknessViolation(FairpriceError):
    """Complementary slackness fails on a coupling atom; carries the atom."""

    def __init__(self, message, witness=None, violation=None):
        super().__init__(message)
        self.witness = witness
        self.violation = violation


class ZeroGains(FairpriceError):
    """Gains from trade of the low group vanish; ratio bound undefined."""


class RegionViolation(FairpriceError):
    """Figure/report requested on slices outside its admissible regions."""

    def __init__(self, message, offending=()):
        super().__init__(message)
        self.offending = list(offending)


class ConsistencyError(FairpriceError):
    """Two independent evaluation routes disagree beyond tolerance."""
