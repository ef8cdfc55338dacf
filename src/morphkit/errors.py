"""Exception types raised across the package.

Every class derives from ValueError, so callers that only know the
stdlib hierarchy still catch the right category.
"""


class MeshFormatError(ValueError):
    """A JSON input file (mesh, config, law table, selection) is malformed.

    Carries ``line`` and ``offset`` (1-based, when known) pointing at the
    first offending location in the input.
    """

    def __init__(self, message, line=None, offset=None):
        if line is not None:
            message = f"{message} (line {line}, column {offset})"
        super().__init__(message)
        self.line = line
        self.offset = offset


class DegenerateElementError(ValueError):
    """An element has a zero-length edge, so its quality ratio is undefined."""


class DegenerateSampleError(ValueError):
    """A sample of errors has zero spread, so normalized deviations are undefined."""


class DegenerateSnapshotsError(ValueError):
    """All snapshot columns are zero; no basis can be extracted."""


class IllPosedOnlineError(ValueError):
    """The projected online system is rank deficient.

    ``smallest_singular_value`` records how close to singular the
    reduced operator was.
    """

    def __init__(self, message, smallest_singular_value):
        super().__init__(f"{message} (smallest singular value {smallest_singular_value:.3e})")
        self.smallest_singular_value = smallest_singular_value


class DomainError(ValueError):
    """A parameter value lies outside the law's declared domain."""


class TableEntryError(ValueError):
    """A tabulated law's entry does not fit the mesh (its width or cover)."""


class ZeroReferenceError(ValueError):
    """The reference field of a relative error is identically zero."""
