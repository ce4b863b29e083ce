"""Exception types shared across the package."""


class CdtLeakError(Exception):
    """Base class for every error this package raises on purpose."""


class DomainError(CdtLeakError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class DegenerateInput(CdtLeakError, ValueError):
    """Input has no usable variation (constant vector, too few points)."""


class LengthMismatch(CdtLeakError, ValueError):
    """Paired sequences differ in length."""


class LayoutMismatch(CdtLeakError, ValueError):
    """Leak records or traces do not fit the declared trace layout."""


class TableFormatError(CdtLeakError, ValueError):
    """A CDT table file is malformed or violates table invariants."""


class InsufficientClassData(CdtLeakError, ValueError):
    """A template class has too few traces to estimate statistics."""


class EmptyPoi(CdtLeakError, ValueError):
    """A template was requested with no points of interest."""


class MissingTemplate(CdtLeakError, ValueError):
    """Key recovery was invoked without a required template."""


class TemplateFormatError(CdtLeakError, ValueError):
    """A template file is malformed or violates template invariants."""


class ReportFormatError(CdtLeakError, ValueError):
    """A recovery report file is malformed."""


class TraceFormatError(CdtLeakError, ValueError):
    """A trace or label file is malformed."""


class DimensionError(CdtLeakError, ValueError):
    """A matrix has the wrong shape, dtype, or inconsistent dimensions."""
