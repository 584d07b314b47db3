"""OLE DB interface names.

COM interfaces become string identifiers; a provider advertises the set
it implements and the DHQP plans only within that set.  Table 2 of the
paper marks which interfaces are mandatory on the DSO and the session;
the conformance experiment (E3) checks providers against these lists.
"""

from __future__ import annotations

# Data Source Object interfaces
IDB_INITIALIZE = "IDBInitialize"
IDB_CREATE_SESSION = "IDBCreateSession"
IDB_PROPERTIES = "IDBProperties"
IDB_INFO = "IDBInfo"

# Session interfaces
IDB_SCHEMA_ROWSET = "IDBSchemaRowset"
IOPEN_ROWSET = "IOpenRowset"
IDB_CREATE_COMMAND = "IDBCreateCommand"

# Command / rowset interfaces
ICOMMAND = "ICommand"
IROWSET = "IRowset"
IROWSET_INDEX = "IRowsetIndex"
IROWSET_LOCATE = "IRowsetLocate"

#: Table 2: mandatory DSO interfaces
MANDATORY_DSO_INTERFACES = frozenset(
    {IDB_INITIALIZE, IDB_CREATE_SESSION, IDB_PROPERTIES}
)

#: Table 2: mandatory session interfaces
MANDATORY_SESSION_INTERFACES = frozenset({IOPEN_ROWSET})

#: Section 3.3's simple provider: "being able to connect and retrieve
#: named rowsets", nothing more
SIMPLE_PROVIDER_INTERFACES = (
    MANDATORY_DSO_INTERFACES | MANDATORY_SESSION_INTERFACES | {IROWSET}
)

#: everything a fully capable provider may expose
ALL_INTERFACES = frozenset(
    {
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
    }
)
