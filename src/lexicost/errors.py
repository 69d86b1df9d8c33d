"""Exception hierarchy shared across the package."""


class LexicostError(Exception):
    """Base class for all package errors.  One raised at a place in an input
    text carries that place's 1-based line and column, and its message starts
    with them."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        super().__init__(message if line is None else f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class ParseError(LexicostError):
    """Malformed input text."""


class ArityMismatchError(LexicostError):
    """A predicate is used with two different arities."""


class NoPositiveExamplesError(LexicostError):
    """The examples file contains no pos(...) line."""


class UnknownBiasDirectiveError(LexicostError):
    """The bias file contains a directive this dialect does not define."""


class InvalidBiasValueError(LexicostError):
    """A bias directive carries an out-of-range value."""


class UnknownPredicateError(LexicostError):
    """An example atom uses a predicate that is not a declared head predicate."""


class BackgroundHeadPredicateError(LexicostError):
    """A background fact uses a declared head predicate; the learner assumes
    head predicates are defined by the hypothesis alone."""


class ResourceLimitError(LexicostError):
    """Evaluation derived more atoms than the configured cap allows."""


class LengthMismatchError(LexicostError):
    """Two sequences that must be index-aligned have different lengths."""


class EmptyConfusionError(LexicostError):
    """All four confusion counts are zero; no metric is defined."""


class EmptyInputError(LexicostError):
    """An aggregate was requested over an empty collection."""


class DegenerateInputError(LexicostError):
    """A statistic is undefined for this input (e.g. zero variance)."""


class TooFewPairsError(LexicostError):
    """Fewer than the minimum number of informative pairs survive filtering."""


class IncompleteMatrixError(LexicostError):
    """A ranking matrix has missing or ragged entries."""


class SchemaError(LexicostError):
    """A results file does not match the expected CSV schema."""
