"""Exception types shared across the package."""


class IdsAugError(Exception):
    """Base class for all errors raised by idsaug."""


class ConfigError(IdsAugError):
    """Invalid configuration value or combination."""


class ShapeError(IdsAugError):
    """Array dimensions do not match what an operation requires."""


class InputDataError(IdsAugError):
    """Input values are unusable (NaN/Inf, out of domain, malformed)."""


class StateError(IdsAugError):
    """Operation called in the wrong state (a spent tape, an untrained model)."""


class SchemaError(IdsAugError):
    """A file is missing required columns or structure."""


class DataError(IdsAugError):
    """Data is empty or degenerate where content is required."""


class MappingError(IdsAugError):
    """A label string has no entry in the label mapping."""


class PolicyError(IdsAugError):
    """Leveling policy cannot be applied (for example no ample class exists)."""


class TrainingDivergedError(IdsAugError):
    """Training produced a non-finite loss."""

    def __init__(self, message: str, epoch: int | None = None):
        super().__init__(message)
        self.epoch = epoch


class YieldError(IdsAugError):
    """Generation could not reach the requested sample count within budget."""

    def __init__(self, message: str, acceptance_rate: float | None = None):
        super().__init__(message)
        self.acceptance_rate = acceptance_rate


class FormatError(IdsAugError):
    """A serialized artifact has the wrong magic, version, or layout."""


class ReportError(IdsAugError):
    """Reports being combined do not refer to the same classes or test split."""


class DegenerateDataError(IdsAugError):
    """Numerical routine received data with no usable variance."""


class PipelineError(IdsAugError):
    """A pipeline stage failed; carries the stage and class it failed on."""

    def __init__(self, message: str, stage: str | None = None, class_name: str | None = None):
        super().__init__(message)
        self.stage = stage
        self.class_name = class_name
