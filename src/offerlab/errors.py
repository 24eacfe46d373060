"""Exception types shared across the package."""


class OfferLabError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(OfferLabError, ValueError):
    """An argument violates a documented precondition."""


class ConfigurationError(OfferLabError, ValueError):
    """A configuration object violates its own invariants."""


class DataIntegrityError(OfferLabError, ValueError):
    """A dataset is internally inconsistent (missing labels, ids, ...)."""


class DegenerateInputError(OfferLabError, ValueError):
    """The requested quantity is undefined for these inputs."""


class EstimationError(OfferLabError, RuntimeError):
    """The sampler failed mid-run; the message carries the draw index and
    ``block`` the index of the failing block of a stacked chain."""

    def __init__(self, message: str, block: int | None = None):
        super().__init__(message)
        self.block = block


class UnknownCustomerError(OfferLabError, KeyError):
    """A per-customer lookup asked for a customer absent from the fit."""


class EmptySelectionError(OfferLabError, ValueError):
    """A filter matched nothing."""


class MissingArtifactError(OfferLabError, FileNotFoundError):
    """A pipeline stage needs an artifact that has not been produced yet."""


class ParseError(OfferLabError, ValueError):
    """A data file could not be parsed; the message names the line."""
