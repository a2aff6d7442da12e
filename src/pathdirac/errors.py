"""Exception types shared across the package.

Each class maps to a CLI exit code: parse failures exit 2, resource caps
exit 3, violated structural/numerical identities exit 4.
"""


class PathDiracError(Exception):
    """Base class for all package errors."""

    exit_code = 4


class ParseError(PathDiracError):
    """Malformed input file (graph, manifest, molecule)."""

    exit_code = 2

    def __init__(self, message, path=None, line=None):
        if path is None:
            loc = "" if line is None else f"line {line}: "
        else:
            loc = f"{path}: " if line is None else f"{path}:{line}: "
        super().__init__(f"{loc}{message}")


class ResourceLimitError(PathDiracError):
    """A configured size cap (path count, dense matrix size) was exceeded."""

    exit_code = 3


class StructuralError(PathDiracError):
    """Internal inconsistency: an exact identity the construction guarantees failed."""

    exit_code = 4


class NumericalInconsistencyError(PathDiracError):
    """Floating-point result cannot be reconciled with the exact rational computation."""

    exit_code = 4
