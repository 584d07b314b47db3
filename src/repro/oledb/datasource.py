"""Data Source Objects (DSOs).

The DSO is "a common abstraction for connecting to the data store"
(Section 3.1.1): a consumer sets authentication/location properties via
``IDBProperties``, calls ``IDBInitialize`` to connect, then
``IDBCreateSession`` to obtain sessions.  Concrete providers subclass
:class:`DataSource` and state each fact once: the interface set as the
class attribute :attr:`~DataSource.INTERFACES`, the capabilities as the
descriptor passed to ``__init__``.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConnectionError_, NotSupportedError
from repro.network.channel import NetworkChannel, local_channel
from repro.oledb.interfaces import IDB_CREATE_SESSION
from repro.oledb.properties import ProviderCapabilities


class DataSource:
    """Base class for every OLE DB provider's data source object."""

    #: human-readable provider identifier, e.g. "SQLOLEDB", "MSIDXS"
    provider_name: str = "BASE"
    #: the OLE DB interfaces this DSO (and its sessions) implement —
    #: Table 2's row for the provider; every provider declares its own
    INTERFACES: frozenset[str]

    def __init__(
        self,
        channel: Optional[NetworkChannel],
        capabilities: ProviderCapabilities,
    ):
        #: digested capability descriptor (IDBInfo + extended props)
        self.capabilities = capabilities
        #: the IDBProperties values a consumer has set
        self.properties: dict[str, object] = {}
        # each data source gets its own local channel so stats never
        # aggregate across unrelated instances (see local_channel())
        self.channel = channel if channel is not None else local_channel()
        self._initialized = False

    # -- interface discovery ------------------------------------------------
    def interfaces(self) -> frozenset[str]:
        """The OLE DB interfaces this DSO (and its sessions) implement."""
        return self.INTERFACES

    def supports_interface(self, name: str) -> bool:
        return name in self.INTERFACES

    # -- IDBProperties --------------------------------------------------------
    def set_property(self, name: str, value: object) -> None:
        self.properties[name] = value

    def get_property(self, name: str, default: object = None) -> object:
        return self.properties.get(name, default)

    # -- IDBInitialize ---------------------------------------------------------
    def initialize(self) -> None:
        """Establish the connection; providers validate credentials and
        locate their backing store here."""
        self._check_connection()
        self._initialized = True

    @property
    def initialized(self) -> bool:
        return self._initialized

    def _check_connection(self) -> None:
        """Hook for providers to validate properties; raises
        :class:`ConnectionError_` on failure."""

    # -- IDBCreateSession --------------------------------------------------------
    def create_session(self) -> "Session":  # noqa: F821 (forward ref)
        """Create a session; requires prior initialization."""
        if not self._initialized:
            raise ConnectionError_(
                f"{self.provider_name}: data source not initialized "
                "(call initialize() first)"
            )
        if not self.supports_interface(IDB_CREATE_SESSION):
            raise NotSupportedError(
                f"{self.provider_name} does not implement {IDB_CREATE_SESSION}"
            )
        return self._make_session()

    def _make_session(self):
        raise NotImplementedError

    def __repr__(self) -> str:
        state = "initialized" if self._initialized else "uninitialized"
        return f"{type(self).__name__}({self.provider_name}, {state})"
