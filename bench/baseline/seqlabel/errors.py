"""Exception types shared across the pipeline."""


class SeqLabelError(Exception):
    """Base class for all seqlabel errors."""


class DegenerateProjection(SeqLabelError):
    """Projection denominator is (numerically) zero, or the intrinsics block is singular."""


class BehindCamera(SeqLabelError):
    """Every corner of the box lies at non-positive depth; nothing to project."""


class ZeroArea(SeqLabelError):
    """Both boxes in an IoU computation have zero area."""


class NonPositiveDepth(SeqLabelError):
    """A detection reported depth <= 0 and cannot be lifted to 3D."""


class ParseError(SeqLabelError):
    """A text input failed to parse. Carries the 1-based line number."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class OrthonormalityError(ParseError):
    """A parsed rotation block deviates too far from an orthonormal matrix."""


class SchemaError(ParseError):
    """A JSONL detection record violates the input schema."""


class MissingCamera(SeqLabelError):
    """The requested camera key is absent from the calibration file."""


class MissingCameraPose(SeqLabelError):
    """The trajectory has no pose for a frame referenced by the detections."""

    def __init__(self, frame_id: int):
        self.frame_id = frame_id
        super().__init__(f"no camera pose for frame {frame_id}")


class MissingSigma(SeqLabelError):
    """Inverse-variance weighting was requested but the detection has no sigma."""


class EmptyInput(SeqLabelError):
    """An aggregate operation received no data."""


class ZeroWeightSum(SeqLabelError):
    """All weights are zero; a weighted average is undefined."""


class DegenerateMean(SeqLabelError):
    """The weighted rotation mean collapsed; its direction is undefined."""


class FrameMismatch(SeqLabelError):
    """Predicted and ground-truth annotations refer to different frames."""


class InfeasibleScene(SeqLabelError):
    """A simulated object is never visible from the configured trajectory."""


class ConfigError(SeqLabelError):
    """The pipeline configuration is invalid or references missing files."""
