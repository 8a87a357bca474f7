"""Exception taxonomy shared across the library.

The split mirrors how callers need to react: validity failures are
user-input problems (exit code 2 in the CLI), numerical failures are
computation problems (exit code 3).
"""


class HyperLapError(Exception):
    """Base class for all library-specific errors."""


class PoleError(HyperLapError):
    """Gamma evaluated at (or within tolerance of) a nonpositive integer."""


class IndeterminateError(HyperLapError):
    """Simultaneous numerator and denominator gamma poles in a ratio.

    The ratio may have a finite limit, but taking it silently would hide
    transcription bugs; the caller must restructure the expression instead.
    """


class ValidityError(HyperLapError):
    """A stated validity clause of an identity or transform is violated."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class DegenerateParameterError(ValidityError):
    """A parameter hits an explicit exclusion (e.g. a vanishing
    denominator factor in a closed form)."""


class SeriesPoleError(ValidityError, ValueError):
    """A nonpositive-integer denominator parameter that a pFq series
    reaches; a ValueError too, as a bad argument of the series."""


class InvalidBinding(HyperLapError):
    """Parameter binding does not match the symbols an identity requires."""


class DivergentSeriesError(HyperLapError):
    """Series evaluation requested outside the convergence domain."""


class SlowDecayError(HyperLapError):
    """Integrand tail decays too slowly for reliable numerical quadrature."""


class SamplerExhausted(HyperLapError):
    """Rejection sampler hit its reject budget before producing n draws."""


class NotSpecializable(HyperLapError):
    """Requested a specialization target for an identity that has none."""
