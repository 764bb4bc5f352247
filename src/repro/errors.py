"""Exception types shared across the repro package."""


class ReproError(Exception):
    """Base class for all repro-specific errors."""


class FlashUsageError(ReproError):
    """The FLASH API was used in a way the model forbids (e.g. writing to a
    read-only source vertex, or running EDGEMAPSPARSE without a reduce
    function)."""


class InexpressibleError(ReproError):
    """Raised by baseline frameworks when an algorithm needs a capability
    the framework's programming model does not offer (Table I's empty
    circles) — e.g. variable-length vertex properties on Gemini, or
    beyond-neighborhood communication on GAS."""


class PartitionError(ReproError):
    """Invalid partitioning or ownership request."""


class DistributedError(ReproError):
    """Base class for errors of the multi-process distributed executor
    (:mod:`repro.runtime.distributed`)."""


class DistributedShipError(DistributedError):
    """A user function cannot be shipped to worker processes — e.g. it
    writes to a closure variable (``nonlocal``), which would mutate
    driver-local state invisibly to the driver process.  Rewrite the
    kernel to communicate through vertex properties instead."""


class StaleReadError(DistributedError):
    """A worker read a property of a vertex it does not master whose
    mirror copy may be stale (the property is not *critical*, so committed
    changes were never synchronized to this worker).  This only happens
    when the critical-property analysis missed the read (an incomplete
    kernel whose sample trace did not see it); mark the property
    critical (``engine.flashware.mark_critical``)."""


class WorkerCrashError(DistributedError):
    """A worker process died or stopped responding (this is a real
    process failure, unlike the *simulated* failures of
    :mod:`repro.runtime.faults`).

    Structured fields let the recovery layer act on the diagnosis:

    * ``worker`` — the rank of the crashed worker (``None`` when the
      crash could not be pinned to one rank);
    * ``exitcode`` — the dead process's exit code (negative = killed by
      that signal, e.g. ``-9`` for SIGKILL; ``None`` when the process
      was still alive — a hung worker — or the code is unknown);
    * ``phase`` — what the driver was doing when the crash surfaced
      (the wire op, e.g. ``"sparse_map"`` or ``"commit"``).
    """

    def __init__(self, message: str, worker=None, exitcode=None, phase=None):
        super().__init__(message)
        self.worker = worker
        self.exitcode = exitcode
        self.phase = phase


class ServingError(ReproError):
    """Base class for errors of the graph-as-a-service front end
    (:mod:`repro.serving`)."""


class UnknownAlgorithmError(ServingError):
    """A request named an algorithm the server does not serve."""


class InvalidRequestError(ServingError):
    """A request carried malformed parameters (unknown parameter name,
    out-of-range vertex id, wrong type)."""


class QueueFullError(ServingError):
    """The admission queue is at its depth limit; the request was
    rejected without being enqueued (the client should back off)."""


class DeadlineExpiredError(ServingError):
    """The request's deadline passed while it waited in the admission
    queue; it was dropped before any execution work was spent on it."""


class ServerClosedError(ServingError):
    """The server is not running (never started, or already stopped)."""


class EngineFailureError(ServingError):
    """A pooled serving engine failed while executing a batch (its
    worker processes crashed, or a chaos hook induced the failure).  The
    server handles this internally — the failed engine is replaced and
    the batch's requests are requeued once — so clients only ever see
    this error if the retry fails too."""
