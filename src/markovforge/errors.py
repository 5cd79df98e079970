"""Exception types shared across the package."""


class CertifiedNumericsError(Exception):
    """Base class for failures of the certified-arithmetic layer."""


class NotGreaterThanOne(CertifiedNumericsError):
    """The growth base must certifiably exceed 1."""


class FloorUndecidable(CertifiedNumericsError):
    """An enclosure straddles an integer at the maximum allowed precision."""


class DivergentTail(CertifiedNumericsError):
    """A geometric tail was requested for a ratio not certifiably below 1."""


class PrecisionExhausted(CertifiedNumericsError):
    """A required separation could not be certified at the precision ceiling."""


class NoDeletableLoop(Exception):
    """No loop of length >= 2 is available for deletion."""


class Unrealizable(ValueError):
    """The explicit graph exceeds the vertex budget or needs parallel arrows."""


class InsufficientData(Exception):
    """Not enough nonzero counts to form the requested estimate."""


class TailUnavailable(Exception):
    """No certified tail bound exists for this spectrum/evaluation point."""


class SpectrumFileError(Exception):
    """Malformed or unsupported spectrum file."""
