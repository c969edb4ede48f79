"""Exception hierarchy shared across the toolkit."""


class PitchkitError(Exception):
    """Base class for all toolkit errors."""


class FormatError(PitchkitError):
    """File contents do not match the expected on-disk format, or are valid
    but outside what we deliberately support (e.g. multichannel)."""


class ArgumentError(PitchkitError):
    """Invalid argument: a value, shape or domain the operation cannot take,
    or a call its inputs do not allow (e.g. a stale cache)."""


class RangeError(ArgumentError):
    """A synthesis spec whose clip or pitch trajectory cannot be rendered."""


class InputTooShort(PitchkitError):
    """Signal shorter than one analysis window."""


class SkipExample(PitchkitError):
    """An example training cannot use, for a `reason` training counts by:
    "short" (shorter than one segment), "unvoiced" (no voiced frame with a
    finite, positive F0 that a segment can hold) or "silent"."""

    def __init__(self, message, reason):
        super().__init__(message)
        self.reason = reason


class AlignmentError(PitchkitError):
    """Prediction and ground truth cannot be frame-aligned."""


class UndefinedMetric(PitchkitError):
    """Metric denominator is empty; the value is undefined, not zero."""


class DivergenceError(PitchkitError):
    """Training loss became non-finite."""
