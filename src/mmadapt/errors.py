"""Shared exception types."""


class ContractViolation(ValueError):
    """An operation was called outside its stated preconditions."""


class ShapeError(ValueError):
    """Operand shapes are inconsistent."""


class LengthError(ValueError):
    """A sequence exceeds the model's maximum length."""


class ConfigError(ValueError):
    """A configuration value or combination is invalid."""


class VocabularyError(KeyError):
    """A token id falls outside the known vocabulary."""


class CheckpointError(RuntimeError):
    """Base class for checkpoint load failures."""


class CorruptCheckpointError(CheckpointError):
    """Stored digest does not match payload."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint format version is not supported."""


class ComponentKindError(CheckpointError):
    """Checkpoint holds a different component than the load slot expects."""


class TrainingDivergenceError(RuntimeError):
    """Loss or gradients became non-finite during training."""


class UndefinedWerError(ValueError):
    """WER is undefined for an empty reference."""
