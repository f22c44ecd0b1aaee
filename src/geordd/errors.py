"""Exception hierarchy.

Every error carries a stable ``code`` string so batch tooling (and the CLI)
can match on error classes without parsing messages.  Every class states its
kind in its class line, ``refusal=True`` for "the estimate was refused on this
data" and ``refusal=False`` for bad input, misuse or a bug; a class that
states none is a ``TypeError`` when defined.
"""

from __future__ import annotations


class GeorddError(Exception):
    """Base class for all library errors; ``index`` is the offending row's
    position when a whole stack of payloads was validated at once."""

    code = "error"
    refusal = False
    index: int | None = None

    def __init_subclass__(cls, *, refusal: bool, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.refusal = refusal

    def __reduce__(self):
        # rebuilt from its message and attributes, not through a subclass's
        # __init__, so every error crosses a process boundary intact
        return _rebuild, (type(self), self.args), self.__dict__


def _rebuild(cls, args):
    return cls.__new__(cls, *args)


# --- data / geometry validation -------------------------------------------

class SpaceMismatch(GeorddError, refusal=False):
    code = "space_mismatch"


class ShapeMismatch(GeorddError, refusal=False):
    code = "shape_mismatch"


class NonFinitePayload(GeorddError, refusal=False):
    code = "non_finite_payload"


class InvariantViolation(GeorddError, refusal=False):
    code = "invariant_violation"


class MixedSpaces(GeorddError, refusal=False):
    code = "mixed_spaces"


class NotAPoint(GeorddError, TypeError, refusal=False):
    """A value given where points were expected (also a ``TypeError``)."""

    code = "not_a_point"


class AntipodalPoints(GeorddError, refusal=False):
    code = "antipodal_points"


class TransportOutOfSpace(GeorddError, refusal=False):
    code = "transport_out_of_space"


class EmbeddingUnavailable(GeorddError, refusal=False):
    code = "embedding_unavailable"


class InverseInfeasible(GeorddError, refusal=False):
    code = "inverse_infeasible"


class LogExpUnavailable(GeorddError, refusal=False):
    code = "logexp_unavailable"


class ExpOutOfDomain(GeorddError, refusal=True):
    code = "exp_out_of_domain"


# --- estimation -------------------------------------------------------------

class DegenerateWindow(GeorddError, refusal=True):
    code = "degenerate_window"


class SolverDiverged(GeorddError, refusal=True):
    code = "solver_diverged"


class EmptyInput(GeorddError, refusal=False):
    code = "empty_input"


class MissingTreatment(GeorddError, refusal=False):
    code = "missing_treatment"


class MissingAssignment(GeorddError, refusal=False):
    code = "missing_assignment"


class WeakCompliance(GeorddError, refusal=True):
    code = "weak_compliance"


class EmptyStratum(GeorddError, refusal=True):
    code = "empty_stratum"


# --- bandwidth selection -----------------------------------------------------

class InsufficientData(GeorddError, refusal=True):
    code = "insufficient_data"


class InvertedBounds(GeorddError, refusal=True):
    code = "inverted_bounds"

    def __init__(self, b_min: float, b_max: float):
        self.b_min = float(b_min)
        self.b_max = float(b_max)
        super().__init__(
            f"bandwidth bounds are inverted: b_min={b_min:.6g} >= b_max={b_max:.6g}"
        )


class AllWindowsDegenerate(GeorddError, refusal=True):
    code = "all_windows_degenerate"


# --- simulation --------------------------------------------------------------

class ExcessiveFailures(GeorddError, refusal=False):
    code = "excessive_failures"


# --- ingestion ---------------------------------------------------------------

class ParseError(GeorddError, refusal=False):
    code = "parse_error"

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        self.row = row
        self.column = column
        loc = ""
        if row is not None:
            loc += f" (row {row}"
            loc += f", column {column})" if column is not None else ")"
        super().__init__(message + loc)


#: The classes that state ``refusal=True``: the CLI maps these to exit code 2,
#: and a campaign records them as failed replications.
REFUSAL_ERRORS = tuple(cls for cls in GeorddError.__subclasses__() if cls.refusal)
