"""Exception types shared across the package."""

from __future__ import annotations


class MedalError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(MedalError):
    """A configuration value or file failed validation."""


class PositionNotMasked(MedalError):
    """An unmask action targeted a position that is not masked."""


class TokenIsMask(MedalError):
    """An unmask action tried to write the mask token itself."""


class NoMaskedPositions(MedalError):
    """An operation requiring masked positions got a fully revealed state."""


class EmptyCorpus(MedalError):
    """n-gram fitting received no usable sequences."""


class NonFiniteLogits(MedalError):
    """A logit vector contained NaN or infinity."""


class MissingPosition(MedalError):
    """Denoiser output does not cover exactly the masked positions."""


class LogitWidthMismatch(MedalError):
    """Denoiser logits do not hold one entry per content token of the vocab."""


class RemoteError(MedalError):
    """A remote denoiser could not be reached or sent an unreadable reply."""


class ZeroBaselineEntropy(MedalError):
    """Information-gain baseline entropy is negative or non-finite."""


class NoChildren(MedalError):
    """UCB selection was asked to choose among zero children."""


class AlreadyExpanded(MedalError):
    """A search node was expanded twice."""


class EmptyPool(MedalError):
    """Candidate selection ran on an empty pool."""


class SubsetNotMasked(MedalError):
    """A schedule step referenced positions outside the masked set."""


class ZeroMassContext(MedalError):
    """Exact conditionals were requested at a context with zero joint mass."""


class InstanceTooLarge(MedalError):
    """Exhaustive schedule enumeration would exceed the hard cap."""


class BoundViolated(MedalError):
    """A verified inequality failed; carries the offending witness."""
