"""Exception hierarchy shared across the package."""


class PromptRegError(Exception):
    """Base class for all package errors."""


class ConfigError(PromptRegError):
    """Invalid run or engine configuration."""


class DegenerateTransitionError(PromptRegError):
    """Capacity growth requested against a zero-length previous prompt."""


class LogDecompositionError(PromptRegError):
    """Log decomposition requested with a nonpositive input."""


class BackendUnavailableError(PromptRegError):
    """Backend unreachable after retries, or a credential is missing."""


class RequestRejectedError(PromptRegError):
    """Backend rejected the request with a non-retryable 3xx or 4xx status."""


class FixtureMissError(PromptRegError):
    """Scripted backend has no fixture for the request."""


class MalformedOutputError(PromptRegError):
    """Model output could not be parsed into the expected structure."""


class MissingFieldError(MalformedOutputError):
    """Parsed structured output lacks a required key."""


class TagsAbsentError(PromptRegError):
    """Expected variable tags were not found in model output."""


class UpdateExtractionError(PromptRegError):
    """Optimizer output yielded no tagged variable even after a re-ask."""


class DatasetError(PromptRegError):
    """Dataset file missing, empty, or malformed."""


class RuleBankError(PromptRegError):
    """Rule bank persistence file unreadable."""


class RunStateError(PromptRegError):
    """Persisted run state is corrupt or inconsistent."""
