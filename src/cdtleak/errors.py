"""Exception types shared across the package.

An argument that the operation cannot take raises DomainError; shapes or
counts that disagree with each other, with a file header or with the
trace layout raise LayoutMismatch. A file that cannot be read as its
kind raises that kind's format error. checked_index is the one check
that an integer argument is an integer.
"""

import operator


class CdtLeakError(Exception):
    """Base class for every error this package raises on purpose."""


class DomainError(CdtLeakError, ValueError):
    """A value the operation cannot take: empty, too few, constant, missing, out of range."""


class LayoutMismatch(CdtLeakError, ValueError):
    """Shapes or counts disagree with each other, a file header or the trace layout."""


class TableFormatError(CdtLeakError, ValueError):
    """A CDT table file is malformed or violates table invariants."""


class TemplateFormatError(CdtLeakError, ValueError):
    """A template file is malformed or violates template invariants."""


class ReportFormatError(CdtLeakError, ValueError):
    """A recovery report file is malformed."""


class TraceFormatError(CdtLeakError, ValueError):
    """A trace or label file is malformed."""


def checked_index(value, what: str) -> int:
    """value as a Python int if operator.index takes it; DomainError otherwise, not a truncation.

    Python and numpy integers are taken; floats, strings and bools are not.
    """
    if isinstance(value, bool):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None
