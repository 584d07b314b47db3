"""Collations.

The paper's decoder "responds to different parameter settings of the
connection ... e.g. the SQL dialect the remote sources support, data
collation" (Section 4.1.3).  We model a collation as a case-sensitivity
flag.  Every comparison folds under :data:`DEFAULT_COLLATION`; a
provider's identifier quoting is its own capability
(``ProviderCapabilities.identifier_quotes``).
"""

from __future__ import annotations


class Collation:
    """String comparison rules."""

    __slots__ = ("name", "case_sensitive")

    def __init__(self, name: str, case_sensitive: bool = False):
        self.name = name
        self.case_sensitive = case_sensitive

    def normalize(self, text: str) -> str:
        """Canonical comparison key for a string under this collation."""
        return text if self.case_sensitive else text.lower()

    def equals(self, a: str, b: str) -> bool:
        return self.normalize(a) == self.normalize(b)

    def __repr__(self) -> str:
        return f"Collation({self.name})"


#: SQL Server default: case-insensitive.
DEFAULT_COLLATION = Collation("Latin1_General_CI_AS", case_sensitive=False)
