"""Exception hierarchy for the DPX10 reproduction.

The names mirror the X10 / DPX10 concepts from the paper:
``DeadPlaceException`` is the Resilient-X10 signal that a place (an X10
process, here a simulated place) has failed; everything else is framework
level.
"""

from __future__ import annotations


class DPX10Error(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(DPX10Error):
    """An invalid :class:`~repro.core.config.DPX10Config` or argument."""


class PatternError(DPX10Error):
    """A DAG pattern violated a structural requirement (bounds, inverse)."""


class AnalysisError(DPX10Error):
    """A ``repro.analysis`` pass could not run (not a verdict about the
    analysed program — findings carry those)."""


class DependencyRaceError(DPX10Error):
    """The runtime sanitizer observed a dependency race.

    Raised by ``DPX10Config(sanitize=True)`` runs when ``compute()``
    reads a cell outside its declared dependency list (finding code
    DP301) or when a declared dependency is gathered before it finished
    (DP302 — the signature of an under-declared anti-dependency). The
    structured fields name the offending access precisely:

    ``code``
        ``"DP301"`` or ``"DP302"``.
    ``cell``
        The ``(i, j)`` cell that was read.
    ``reader``
        The cell whose ``compute()`` performed the read.
    ``offset``
        ``cell - reader`` — the undeclared offset.
    ``owner_place`` / ``exec_place``
        Where the read cell lives and where the compute ran.
    """

    def __init__(
        self,
        message: str,
        code: str = "DP301",
        cell: tuple | None = None,
        reader: tuple | None = None,
        offset: tuple | None = None,
        owner_place: int | None = None,
        exec_place: int | None = None,
    ) -> None:
        self.code = code
        self.cell = cell
        self.reader = reader
        self.offset = offset
        self.owner_place = owner_place
        self.exec_place = exec_place
        super().__init__(message)


class UnfinishedReadError(DPX10Error, KeyError):
    """A result was read off the tile plane at a cell that is not finished
    (never computed, lost with a place, or outside the matrix). A
    ``KeyError`` too, so a result mapping keeps its ``Mapping`` contract.
    ``cell`` names the ``(i, j)`` read."""

    def __init__(self, cell: tuple) -> None:
        self.cell = cell
        super().__init__(f"cell {cell} is not finished on the tile plane")

    def __str__(self) -> str:
        # KeyError would print the message repr'd
        return str(self.args[0])


class DistributionError(DPX10Error):
    """A :class:`~repro.dist.dist.Dist` does not tile its region correctly."""


class SchedulingError(DPX10Error):
    """A scheduler made an illegal placement decision."""


class RecoveryError(DPX10Error):
    """Fault recovery could not restore a consistent state."""


class SimulationError(DPX10Error):
    """The discrete-event cluster simulator hit an inconsistent state."""


class DeadPlaceException(DPX10Error):
    """Raised when code touches a place that has failed.

    Mirrors Resilient X10's ``DeadPlaceException``: any attempt to run an
    activity at, or read/write the partition of, a dead place raises this.
    The DPX10 runtime catches it and enters recovery mode (paper section
    VI-D).
    """

    def __init__(self, place_id: int, message: str | None = None) -> None:
        self.place_id = place_id
        super().__init__(message or f"place {place_id} is dead")


class RemoteComputeError(DPX10Error):
    """The user's ``compute()`` raised inside an mp place process.

    The place stays alive (it may be a pooled worker serving other
    jobs); the master aborts the run with this, carrying the place id
    and the remote traceback text, which cannot cross the pipe as an
    exception object.
    """

    def __init__(self, place_id: int, remote_traceback: str) -> None:
        self.place_id = place_id
        self.remote_traceback = remote_traceback
        super().__init__(
            f"compute() raised on place {place_id}:\n{remote_traceback}"
        )


class UnrecoverableError(RecoveryError):
    """A failure the runtime cannot recover from.

    Raised (via its subclasses) instead of hanging or retrying when no
    viable recovery exists: place 0 died, or every place is gone. Chaos
    schedules that push the runtime past its fault budget must end in
    this, never in a deadlock.
    """


class AllPlacesDeadError(UnrecoverableError):
    """No alive place remains; recovery is impossible."""


class PlaceZeroDeadError(UnrecoverableError):
    """Place 0 died.

    The paper notes a limitation of Resilient X10: execution aborts if
    Place 0 is dead. We reproduce that behaviour faithfully by refusing to
    recover from a Place-0 failure.
    """

    def __init__(self) -> None:
        super().__init__(
            "place 0 is dead; Resilient X10 (and hence DPX10) cannot recover"
        )
