"""Exception hierarchy.

Each class carries, as ``exit_code``, the status ``pdmg`` exits with
when a command raises it: 2, bad input, unless the class says otherwise.
A sequence that no rule can build (ArityError, RuleError) is bad input.
"""

from __future__ import annotations


class PdmgError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class LexiconError(PdmgError):
    """Malformed lexicon text. Carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class FeatureOrderError(LexiconError):
    """Feature sequence violates selectors-licensors-category-licensees order."""


class UnknownCategoryError(PdmgError):
    """A category name that the lexicon does not define."""


class UnderivableCategory(PdmgError):
    """A start category that no well-formed sequence can derive."""


class InvalidModel(PdmgError):
    """Probability or pseudo-count vectors with wrong shape or invalid values."""


class RuleError(PdmgError):
    """A structure-building rule was applied outside its precondition."""


class FeatureMismatch(RuleError):
    """Leading features of the operands do not license the attempted rule."""


class SmcViolation(RuleError):
    """Two movers share a leading licensee (shortest-move constraint)."""


class ArityError(PdmgError):
    """An item sequence is too short or too long for its selector structure."""


class EvalError(PdmgError):
    """A sequence builds a tree but does not evaluate to a complete expression."""

    exit_code = 3


class CapExceeded(PdmgError):
    """A configured search or sampling cap was hit; results would be partial."""

    exit_code = 4


class UnparsedSentence(PdmgError):
    """A corpus sentence with no derivations where one is required."""

    exit_code = 3

    def __init__(self, index: int, sentence: str):
        self.index = index
        self.sentence = sentence
        super().__init__(f"sentence {index} has no derivations: {sentence!r}")
