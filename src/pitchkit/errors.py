"""Exception hierarchy shared across the toolkit."""


class PitchkitError(Exception):
    """Base class for all toolkit errors."""


class FormatError(PitchkitError):
    """File contents do not match the expected on-disk format."""


class UnsupportedError(FormatError):
    """Input is valid but outside what we deliberately support (e.g. multichannel)."""


class ArgumentError(PitchkitError):
    """Invalid argument value."""


class RangeError(ArgumentError):
    """A synthesis spec whose clip or pitch trajectory cannot be rendered."""


class InputTooShort(PitchkitError):
    """Signal shorter than one analysis window."""


class ShapeError(PitchkitError):
    """Array has the wrong shape for this operation."""


class DomainError(PitchkitError):
    """Value outside the mathematical domain of the operation."""


class StateError(PitchkitError):
    """Operation called with inconsistent internal state (e.g. stale cache)."""


class EmptyBatchError(PitchkitError):
    """Loss requested on a batch with no voiced frames."""


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
