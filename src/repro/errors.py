"""Exception hierarchy for the repro package.

All errors raised by this library derive from :class:`ReproError`, so
callers can catch one type to handle any library failure.
"""

from __future__ import annotations

from typing import Type


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """A configuration object violates the paper's modeling assumptions.

    Raised, for example, when the cacheline size is not an integer
    multiple of the DATA packet size, or when the RDRAM page size is not
    an integer multiple of the cacheline size (Section 4.1).
    """


def require_int(
    name: str, value: object, error: Type[ReproError] = ConfigurationError
) -> int:
    """``value`` if it is an int; a bool is not one.

    Callers keep their own range check, so this checks the type only.

    Raises:
        ReproError: ``error`` (a :class:`ConfigurationError` unless
            given), saying that ``name`` must be an integer.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{name} must be an integer, got {value!r}")
    return value


class ProtocolError(ReproError):
    """A command was issued in violation of the RDRAM timing protocol.

    The device model refuses illegal commands instead of silently
    mis-timing them; the protocol auditor raises this when replaying a
    trace that breaks a datasheet constraint.
    """


class SchedulingError(ReproError):
    """The memory controller reached an inconsistent scheduling state.

    For example, an MSU asked to service a FIFO whose stream is already
    exhausted, or a simulation that can no longer make forward progress
    (deadlock watchdog).
    """


class StreamError(ReproError):
    """A stream descriptor is malformed or used inconsistently.

    Raised for non-positive lengths or strides, misaligned base
    addresses, or reading past the end of a stream.
    """


class ObservabilityError(ReproError):
    """The instrumentation layer was misused or its accounting broke.

    Raised when a trace-dependent feature is requested for a run built
    without trace recording, when an exported trace file cannot be
    parsed, or when stall attribution fails to account for every cycle
    of a run (which would indicate an instrumentation bug).
    """

    #: What parsing a malformed exported record raises: a missing
    #: field, or a value of the wrong type or shape.
    MALFORMED = (AttributeError, KeyError, TypeError, ValueError)

    @classmethod
    def malformed(
        cls, where: str, what: str, error: Exception
    ) -> "ObservabilityError":
        """The error for input at ``where`` that is not a valid ``what``.

        ``where`` names the file, and the line for JSONL; ``error`` is
        one of :attr:`MALFORMED`, raised while parsing it.
        """
        detail = (
            f"missing field {error}" if isinstance(error, KeyError)
            else str(error)
        )
        return cls(f"{where}: not a {what} ({detail})")


class ExecutionError(ReproError):
    """The sweep-execution backend could not complete a batch of runs.

    Raised when a worker process crashes repeatedly on the same sweep
    points (exhausting the retry budget), or when the process pool
    cannot be (re)started at all.
    """


class CompileError(ReproError):
    """A loop could not be compiled into stream descriptors.

    Raised by the compiler front end for syntax errors, non-linear or
    non-affine subscripts, indirect (gather/scatter) accesses, and
    references to the loop index outside a subscript.
    """
