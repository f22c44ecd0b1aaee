"""Exception hierarchy.

Every error carries a stable ``code`` string so batch tooling (and the CLI)
can match on error classes without parsing messages.
"""

from __future__ import annotations


class GeorddError(Exception):
    """Base class for all library errors; ``index`` is the offending row's
    position when a whole stack of payloads was validated at once."""

    code = "error"
    index: int | None = None

    def __reduce__(self):
        # rebuilt from its message and attributes, not through a subclass's
        # __init__, so every error crosses a process boundary intact
        return _rebuild, (type(self), self.args), self.__dict__


def _rebuild(cls, args):
    return cls.__new__(cls, *args)


# --- data / geometry validation -------------------------------------------

class SpaceMismatch(GeorddError):
    code = "space_mismatch"


class ShapeMismatch(GeorddError):
    code = "shape_mismatch"


class NonFinitePayload(GeorddError):
    code = "non_finite_payload"


class InvariantViolation(GeorddError):
    code = "invariant_violation"


class MixedSpaces(GeorddError):
    code = "mixed_spaces"


class NotAPoint(GeorddError, TypeError):
    """A value given where points were expected (also a ``TypeError``)."""

    code = "not_a_point"


class AntipodalPoints(GeorddError):
    code = "antipodal_points"


class TransportOutOfSpace(GeorddError):
    code = "transport_out_of_space"


class EmbeddingUnavailable(GeorddError):
    code = "embedding_unavailable"


class InverseInfeasible(GeorddError):
    code = "inverse_infeasible"


class LogExpUnavailable(GeorddError):
    code = "logexp_unavailable"


class ExpOutOfDomain(GeorddError):
    code = "exp_out_of_domain"


# --- estimation -------------------------------------------------------------

class DegenerateWindow(GeorddError):
    code = "degenerate_window"


class SolverDiverged(GeorddError):
    code = "solver_diverged"


class EmptyInput(GeorddError):
    code = "empty_input"


class MissingTreatment(GeorddError):
    code = "missing_treatment"


class MissingAssignment(GeorddError):
    code = "missing_assignment"


class WeakCompliance(GeorddError):
    code = "weak_compliance"


class EmptyStratum(GeorddError):
    code = "empty_stratum"


# --- bandwidth selection -----------------------------------------------------

class InsufficientData(GeorddError):
    code = "insufficient_data"


class InvertedBounds(GeorddError):
    code = "inverted_bounds"

    def __init__(self, b_min: float, b_max: float):
        self.b_min = float(b_min)
        self.b_max = float(b_max)
        super().__init__(
            f"bandwidth bounds are inverted: b_min={b_min:.6g} >= b_max={b_max:.6g}"
        )


class AllWindowsDegenerate(GeorddError):
    code = "all_windows_degenerate"


# --- simulation --------------------------------------------------------------

class ExcessiveFailures(GeorddError):
    code = "excessive_failures"


# --- ingestion ---------------------------------------------------------------

class ParseError(GeorddError):
    code = "parse_error"

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        self.row = row
        self.column = column
        loc = ""
        if row is not None:
            loc += f" (row {row}"
            loc += f", column {column})" if column is not None else ")"
        super().__init__(message + loc)


#: Errors that mean "the estimate was refused on this data", as opposed to
#: bad inputs or bugs.  The CLI maps these to exit code 2.
REFUSAL_ERRORS = (
    DegenerateWindow,
    WeakCompliance,
    EmptyStratum,
    InsufficientData,
    InvertedBounds,
    AllWindowsDegenerate,
    SolverDiverged,
    ExpOutOfDomain,
)
