"""Exception types, warning categories and value checks shared across the
package, the one reader of text input files and the one rule by which
JSON text is read."""

import json
import math


class BootparseError(Exception):
    """Base class for errors raised by this package."""


class DataError(BootparseError):
    """Input data the pipeline cannot use, which the CLI exits 2 on; every
    data fault of the package derives from it."""


class TreeSyntaxError(DataError):
    """Malformed bracketed-tree input."""


class UnbalancedBrackets(TreeSyntaxError):
    pass


class EmptyTree(TreeSyntaxError):
    pass


class EmptyLabel(TreeSyntaxError):
    pass


class AllTokensRemoved(BootparseError):
    """Normalization removed every token of a sentence."""


class EmptyCorpus(DataError):
    """No usable sentences were found in an input file."""


class SingleClassInput(DataError):
    """A training set is empty or contains only one class."""


class TooLarge(BootparseError):
    """Exhaustive tree enumeration requested beyond the size guard."""


class YieldMismatch(DataError):
    """Predicted and gold trees disagree on the token sequence."""


class LengthMismatch(DataError):
    """Two aligned collections differ in length."""


class NonterminatingGrammar(DataError):
    """Grammar sampling kept exceeding the derivation depth guard."""


class ExternalScorerError(BootparseError):
    """An external scorer process timed out, died, or wrote garbage."""


class MalformedFile(DataError, ValueError):
    """An input file is not UTF-8, or a seed set, saved model or
    prediction file is not in its format.

    The message names the file, and the line where there is one.
    """


class ConfigError(BootparseError):
    """Invalid run configuration: bad file, unknown key, or bad value."""


def read_text(path, error=MalformedFile) -> str:
    """The UTF-8 text of the file at path, without a leading byte order
    mark; error names the path when it does not decode."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from exc


def json_value(text: str, what: str, error=ValueError):
    """The value of the JSON text: a ValueError when text is not JSON, and
    error naming what when it nests deeper than the parser can follow
    (which raises RecursionError)."""
    try:
        return json.loads(text)
    except RecursionError:
        raise error(f"{what} nests too deeply to read") from None


def check_int(name: str, value, low: int, high: int | None = None) -> None:
    """Raise ValueError unless value is an int, not a bool, in [low, high]."""
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or value < low
        or (high is not None and value > high)
    ):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")


def check_number(
    name: str, value, low: float = -math.inf, inclusive: bool = True, high: float | None = None
) -> None:
    """Raise ValueError unless value is a finite int or float, not a bool,
    of at least low (above low when not inclusive) and at most high."""
    try:
        ok = (
            not isinstance(value, bool)
            and isinstance(value, (int, float))
            and math.isfinite(value)
            and (value >= low if inclusive else value > low)
            and (high is None or value <= high)
        )
    except OverflowError:  # an int too large for a float
        ok = False
    if not ok:
        bound = "" if low == -math.inf else f" {'>=' if inclusive else '>'} {low}"
        if high is not None:
            bound += f" and <= {high}"
        raise ValueError(f"{name} must be a finite number{bound}, got {value!r}")


def check_bool(name: str, value) -> None:
    """Raise ValueError unless value is True or False."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")


class PoolExhaustedWarning(UserWarning):
    """A confidence pool held fewer spans than were requested from it."""
