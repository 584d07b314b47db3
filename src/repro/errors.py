"""Exception hierarchy for the DHQP reproduction.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class.  Sub-hierarchies mirror the
major subsystems: SQL front end, catalog/binding, optimization,
execution, providers (OLE DB layer), and distributed transactions.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SqlError(ReproError):
    """Base class for errors in the SQL front end."""


class LexerError(SqlError):
    """Raised when the lexer encounters an invalid token."""

    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        self.position = position


class ParseError(SqlError):
    """Raised when the parser cannot produce an AST."""

    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        self.position = position


class BindError(SqlError):
    """Raised when names cannot be resolved against the catalog."""


class TypeCheckError(SqlError):
    """Raised when an expression is ill-typed."""


class CatalogError(ReproError):
    """Raised for catalog inconsistencies (missing/duplicate objects)."""


class ConstraintError(ReproError):
    """Raised when a row violates a table constraint."""


class OptimizerError(ReproError):
    """Raised when optimization fails to produce a plan."""


class DecoderError(OptimizerError):
    """Raised when a logical tree cannot be decoded into remote SQL."""


class ExecutionError(ReproError):
    """Raised for runtime failures in the execution engine."""


class ProviderError(ReproError):
    """Base class for OLE DB provider-layer errors."""


class NotSupportedError(ProviderError):
    """A provider was asked for a capability it does not expose."""


class ConnectionError_(ProviderError):
    """Raised when a data source object cannot be initialized."""


class AuthenticationError(ConnectionError_):
    """Raised when the supplied credentials are rejected."""


class SchemaValidationError(ProviderError):
    """Raised by delayed schema validation when a remote schema drifted;
    ``table_name`` is the table whose version moved."""

    def __init__(self, message: str, table_name: str | None = None):
        super().__init__(message)
        self.table_name = table_name


class NetworkError(ProviderError):
    """Base class for simulated network failures (see docs/FAULT_MODEL.md).

    Every failure a :class:`~repro.resilience.faults.FaultInjector` can
    produce surfaces as one of the three subclasses below, so callers
    can distinguish "retry it" from "give up" from "the server is gone".
    """


class TransientNetworkError(NetworkError):
    """A message was lost or a connection dropped; retrying the same
    operation may succeed (the retryable class)."""


class RemoteTimeoutError(NetworkError):
    """A remote operation exceeded its per-message timeout or the
    statement exhausted its per-query timeout budget."""


class ServerUnavailableError(NetworkError):
    """The remote server is down/unreachable; retrying within the same
    statement will not help."""


class CircuitOpenError(ServerUnavailableError):
    """A linked server's circuit breaker is open: the operation was
    rejected *without* touching the network.  Subclasses
    :class:`ServerUnavailableError` so every unavailability handler
    (pruning, partial results, fail-stop DML) treats it identically."""


class TransactionError(ReproError):
    """Base class for transaction failures."""


class TransactionAborted(TransactionError):
    """Raised when a distributed transaction is rolled back."""


class TransactionInDoubtError(TransactionError):
    """A two-phase commit lost its coordinator (or a participant) after
    prepare: the outcome is unknown until ``Coordinator.recover()``
    replays the durable log and re-drives the decision.  Reads and
    writes against an in-doubt member fail fast with this error so no
    statement observes torn state.

    ``txn_id`` identifies the in-doubt distributed transaction and
    ``crash_point`` names the protocol step where the failure was
    injected (None for statements merely *blocked by* an in-doubt
    member rather than crashed themselves).
    """

    def __init__(
        self,
        message: str,
        txn_id: "int | None" = None,
        crash_point: "str | None" = None,
    ):
        super().__init__(message)
        self.txn_id = txn_id
        self.crash_point = crash_point


class UnknownSetOptionError(SqlError):
    """``SET <option>`` named an option the engine does not recognize.

    Carries the offending option and the supported set so callers (and
    error messages) can point at exactly what is available instead of
    a bare "unknown option" string.
    """

    def __init__(self, option: str, supported: "tuple[str, ...]"):
        self.option = option
        self.supported = tuple(supported)
        super().__init__(
            f"unknown SET option {option.upper()!r}; supported options "
            f"are: {', '.join(self.supported)}"
        )


class GovernorError(ReproError):
    """Base class for Resource Governor failures (admission control,
    workload classification, memory grants)."""


class AdmissionTimeoutError(GovernorError):
    """Admission control shed this statement: the pool's concurrency
    gate stayed full past the workload group's deadline, or the bounded
    wait queue had no room.  Overload degrades by fast typed rejection,
    never by unbounded queueing.
    """

    def __init__(
        self,
        message: str,
        group: "str | None" = None,
        pool: "str | None" = None,
        wait_ms: float = 0.0,
    ):
        super().__init__(message)
        self.group = group
        self.pool = pool
        self.wait_ms = wait_ms


class GrantTimeoutError(GovernorError):
    """A memory grant could not be satisfied before the workload
    group's ``request_timeout_ms`` deadline on the simulated clock.
    The statement never started executing, so no partial effects exist.
    """

    def __init__(
        self,
        message: str,
        group: "str | None" = None,
        pool: "str | None" = None,
        required_kb: float = 0.0,
        wait_ms: float = 0.0,
    ):
        super().__init__(message)
        self.group = group
        self.pool = pool
        self.required_kb = required_kb
        self.wait_ms = wait_ms


class FullTextError(ReproError):
    """Raised for full-text catalog or query-language errors."""
