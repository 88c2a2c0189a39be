"""Exception hierarchy.

The CLI maps these onto exit codes.  Input problems exit 2: bad lexicon
files, malformed references, invalid model vectors, and item sequences
that no rule can build (ArityError, and the RuleErrors FeatureMismatch and
SmcViolation).  EvalError, a sequence that builds but does not evaluate to
a complete expression, and UnparsedSentence exit 3.  Exceeded caps exit
4.  Any other exception is a bug; the CLI reports it on one ``error:``
line naming its type and exits 5.
"""

from __future__ import annotations


class PdmgError(Exception):
    """Base class for all package errors."""


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


class CapExceeded(PdmgError):
    """A configured search or sampling cap was hit; results would be partial."""


class UnparsedSentence(PdmgError):
    """A corpus sentence with no derivations where one is required."""

    def __init__(self, index: int, sentence: str):
        self.index = index
        self.sentence = sentence
        super().__init__(f"sentence {index} has no derivations: {sentence!r}")
