"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: config/data problems exit 2,
numeric/runtime problems exit 3.
"""

import math
import numbers


class MmasrError(Exception):
    pass


class ShapeError(MmasrError):
    """Operand shapes do not conform."""


class NumericError(MmasrError):
    """Non-finite values where finite ones are required."""


class ContractError(MmasrError):
    """A caller violated an operation's contract."""


class ConfigError(MmasrError):
    """Invalid configuration value or unknown config key."""


class VocabError(MmasrError):
    """Token id outside the configured vocabulary."""


class FeasibilityError(MmasrError):
    """CTC target cannot be aligned to the given number of frames."""


class OracleSizeError(MmasrError):
    """Brute-force oracle invoked beyond its enumeration bounds."""


class CorpusFormatError(MmasrError):
    """Malformed corpus, vocabulary or hypothesis file."""


class CheckpointError(MmasrError):
    """Base class for checkpoint load failures."""


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointTruncatedError(CheckpointError):
    pass


class CheckpointShapeError(CheckpointError):
    pass


class RecipeError(MmasrError):
    """Training-recipe misuse (e.g. fusion stage without a stage-1 checkpoint)."""


def check_int(what, value, minimum):
    """Raise ConfigError unless ``value`` is an integer (not a bool) of at
    least ``minimum``; configs arrive from JSON files."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ConfigError(f"{what} must be an integer >= {minimum}, got {value!r}")


def check_real(what, value, low, high, open_low=False, open_high=False):
    """Raise ConfigError unless ``value`` is a finite real number (not a
    bool) between ``low`` and ``high``, each end included unless marked
    open."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)
            or not (low < value if open_low else low <= value)
            or not (value < high if open_high else value <= high)):
        interval = f"{'(' if open_low else '['}{low}, {high}{')' if open_high else ']'}"
        raise ConfigError(f"{what} must be a finite real in {interval}, got {value!r}")
