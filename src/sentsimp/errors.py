"""Exception types shared across the package.

The CLI maps these onto exit codes: data problems (corpus, KB, config) exit 2,
model problems (shapes, checkpoints, constraints, training) exit 3.
"""


class SentsimpError(Exception):
    """Base class for all package errors."""


class DimensionError(SentsimpError, ValueError):
    """Tensor shapes do not satisfy an operation's contract."""


class NumericError(SentsimpError, ArithmeticError):
    """Non-finite or out-of-domain values where finite ones are required."""


class ContractError(SentsimpError, ValueError):
    """A precondition other than a shape constraint was violated."""


class IngestionError(SentsimpError, ValueError):
    """Corpus or knowledge-base files could not be read as specified."""


class ConfigError(SentsimpError, ValueError):
    """Bad key, value, or type in a configuration file."""


class ConstraintError(SentsimpError, ValueError):
    """A decoding constraint is unusable (e.g. out-of-vocabulary token)."""


class TrainingError(SentsimpError, RuntimeError):
    """Training cannot proceed (e.g. non-finite gradient)."""


class CheckpointError(SentsimpError, ValueError):
    """A model checkpoint is missing, truncated, or malformed."""


DATA_ERRORS = (IngestionError, ConfigError)
