"""Exception types raised across the pipeline.

Everything derives from SentinelError so callers can catch pipeline failures
with a single except clause while tests can pin the precise condition.
"""


class SentinelError(Exception):
    """Base class for all pipeline errors."""


class TrackParseError(SentinelError):
    """A track file line could not be parsed (fields, joint count, span)."""


class SchemaError(SentinelError):
    """Record structure violates the configured schema (joint count, empty list, ...)."""


class DuplicateRecordError(SentinelError):
    """Same (video_id, person_id, frame_index) appeared twice."""


class DegenerateVectorError(SentinelError):
    """Vector norm too small for a meaningful similarity."""


class FileFormatError(SentinelError):
    """Binary container is corrupt: bad magic, version, or payload length."""


class NonFiniteError(SentinelError):
    """NaN or infinity encountered where finite values are required."""


class MissingEmbeddingError(SentinelError):
    """A class label referenced by the typicality spec has no text embedding."""


class LabelConflictError(SentinelError):
    """A label appears in both the normal and abnormal typicality lists."""


class DimensionError(SentinelError):
    """Vector or model dimensionality violates a structural requirement."""


class EmptyBatchError(SentinelError):
    """The normal-feature batch is empty; the loss is undefined."""


class TrainingDivergedError(SentinelError):
    """Loss became non-finite during training; carries the offending epoch."""

    def __init__(self, epoch: int, message: str = ""):
        detail = message or "loss is non-finite"
        super().__init__(f"epoch {epoch}: {detail}")
        self.epoch = epoch


class ContractError(SentinelError):
    """Caller passed inconsistent arguments (mismatched lengths or sizes)."""


class UndefinedMetricError(SentinelError):
    """Metric has no value for the given inputs (single-class labels)."""


class StageError(SentinelError):
    """Wraps a failure with the pipeline stage it occurred in."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage
        self.cause = cause


def stage(name: str, fn, *args):
    """Run one stage; an error the CLI reports is re-raised as a StageError naming it."""
    try:
        return fn(*args)
    except (SentinelError, OSError, ValueError) as exc:
        raise StageError(name, exc) from exc
