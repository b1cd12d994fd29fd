"""Exception types shared across the package."""


class AlgebroidError(Exception):
    """Base class for all errors raised by this package."""


class GradeError(AlgebroidError):
    """An operand has the wrong grade (or the wrong variance) for an operation."""


class ArityError(AlgebroidError):
    """A cochain was applied to the wrong number of sections."""


class NotInvertible(AlgebroidError):
    """A musical isomorphism was requested where the 2-form is not invertible."""


class TruncationTooLarge(AlgebroidError):
    """A truncated computation would enumerate more basis elements than allowed."""


class ResultTooLarge(AlgebroidError):
    """A result has a number too long for Python to convert to decimal."""


class DslError(AlgebroidError):
    """A model document failed to lex, parse, or validate.

    Carries 1-based ``line`` and ``column`` positions when they are known.
    """

    def __init__(self, message, line=None, column=None):
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)
