"""OLE DB component data model (Section 3).

The object hierarchy of Figure 3 — Data Source Object (DSO) → Session →
Command → Rowset — plus the common extensions the DHQP consumes:

* one capability descriptor per provider (``DBPROP_SQLSUPPORT``
  dialect levels, index/statistics support, decoder hints such as date
  literal formats, Section 4.1.3's "additional properties"),
* schema rowsets (TABLES, COLUMNS, INDEXES, TABLES_INFO cardinality),
* histogram rowsets (Section 3.2.4),
* ISAM navigation (IRowsetIndex seek/range, IRowsetLocate bookmarks),
* row objects and chaptered rowsets for heterogeneous data
  (Section 3.2.3).

Python classes replace COM vtables.  A provider states each fact once:
the interfaces it implements as :attr:`DataSource.INTERFACES` (what the
Table 2 conformance experiment introspects), its capabilities as the
:class:`ProviderCapabilities` it hands :class:`DataSource`, and the
rows it produces go through its channel, which alone decides what the
wire costs.
"""

from repro.oledb.properties import (
    SqlSupportLevel,
    ProviderCapabilities,
)
from repro.oledb.interfaces import (
    IDB_INITIALIZE,
    IDB_CREATE_SESSION,
    IDB_PROPERTIES,
    IDB_INFO,
    IDB_SCHEMA_ROWSET,
    IOPEN_ROWSET,
    IDB_CREATE_COMMAND,
    ICOMMAND,
    IROWSET,
    IROWSET_INDEX,
    IROWSET_LOCATE,
    MANDATORY_DSO_INTERFACES,
    MANDATORY_SESSION_INTERFACES,
)
from repro.oledb.rowset import Rowset, MaterializedRowset
from repro.oledb.row_object import RowObject, ChapteredRowset
from repro.oledb.datasource import DataSource
from repro.oledb.session import Session
from repro.oledb.command import Command
from repro.oledb.schema_rowsets import (
    SCHEMA_TABLES,
    SCHEMA_COLUMNS,
    SCHEMA_INDEXES,
    SCHEMA_TABLES_INFO,
    tables_rowset,
    columns_rowset,
    indexes_rowset,
    tables_info_rowset,
)

__all__ = [
    "SqlSupportLevel",
    "ProviderCapabilities",
    "IDB_INITIALIZE",
    "IDB_CREATE_SESSION",
    "IDB_PROPERTIES",
    "IDB_INFO",
    "IDB_SCHEMA_ROWSET",
    "IOPEN_ROWSET",
    "IDB_CREATE_COMMAND",
    "ICOMMAND",
    "IROWSET",
    "IROWSET_INDEX",
    "IROWSET_LOCATE",
    "MANDATORY_DSO_INTERFACES",
    "MANDATORY_SESSION_INTERFACES",
    "Rowset",
    "MaterializedRowset",
    "RowObject",
    "ChapteredRowset",
    "DataSource",
    "Session",
    "Command",
    "SCHEMA_TABLES",
    "SCHEMA_COLUMNS",
    "SCHEMA_INDEXES",
    "SCHEMA_TABLES_INFO",
    "tables_rowset",
    "columns_rowset",
    "indexes_rowset",
    "tables_info_rowset",
]
