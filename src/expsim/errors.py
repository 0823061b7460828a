"""Exception taxonomy shared across the package.

Two families matter to callers: input problems (NetlistError: bad
netlist text) and numerical failures (NumericalError: singular
factorizations, a propagator action that is not finite). The command
line maps the first family to exit code 1 and the second to exit code
2. NoConvergence, a NumericalError, is the one numerical failure a
caller can act on: it carries the basis dimension m the Arnoldi build
stopped at and the estimate it reached there.
"""


class CircuitError(Exception):
    """Base class for everything raised deliberately by this package."""


class NetlistError(CircuitError):
    """Malformed netlist input. Carries the 1-based source line."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class NumericalError(CircuitError):
    """A runtime numerical failure."""


class NoConvergence(NumericalError):
    """Arnoldi reached the dimension cap without meeting the tolerance."""

    def __init__(self, message, m=None, estimate=None):
        super().__init__(message)
        self.m = m
        self.estimate = estimate
