"""Exception hierarchy shared across asmlab modules.

Every error carries a machine-parsable ``code`` used by the CLI for exit
diagnostics.
"""


class AsmlabError(ValueError):
    code = "error"


# -- matrix validation ------------------------------------------------------

class NonSquareError(AsmlabError):
    code = "non-square"


class EntryOutOfRangeError(AsmlabError):
    code = "entry-out-of-range"


class RowSumError(AsmlabError):
    code = "row-sum-violation"


class ColSumError(AsmlabError):
    code = "col-sum-violation"


class AlternationError(AsmlabError):
    code = "alternation-violation"


# -- generic operation errors ------------------------------------------------

class SizeMismatchError(AsmlabError):
    code = "size-mismatch"


class SizeBoundExceededError(AsmlabError):
    code = "size-bound-exceeded"


class IndexOutOfRangeError(AsmlabError):
    code = "index-out-of-range"


class InvalidWitnessError(AsmlabError):
    code = "invalid-witness"


# -- ideal engine ------------------------------------------------------------

class SupportViolationError(AsmlabError):
    code = "support-violation"


class NonReducedWordError(AsmlabError):
    code = "non-reduced-word"


class NotBadblockError(AsmlabError):
    code = "not-badblock"


# -- complexes / homology ----------------------------------------------------

class NotAFaceError(AsmlabError):
    code = "not-a-face"


class FaceBudgetExceededError(AsmlabError):
    code = "face-budget-exceeded"


# -- enumeration / CLI -------------------------------------------------------

class UnknownStatementError(AsmlabError):
    code = "unknown-statement"


class InvalidFieldError(AsmlabError):
    code = "invalid-field"


class MalformedInputError(AsmlabError):
    code = "malformed-input"


class UnknownCheckError(AsmlabError):
    code = "unknown-check"


class UsageError(AsmlabError):
    code = "usage"
