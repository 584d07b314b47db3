"""The DHQP core: the paper's primary contribution.

* :mod:`linked_server` — linked servers (Section 2.1): named bindings
  of OLE DB data sources, with capability, schema, statistics, and
  check-constraint discovery through the provider interfaces.
* :mod:`memo` — the Cascades memo: groups of equivalent alternatives.
* :mod:`properties` — group (logical) properties: output columns, keys,
  cardinality, and constraint (domain) properties.
* :mod:`constraints` — the constraint property framework: deriving
  interval-set domains from predicates, static pruning, startup-filter
  extraction (Section 4.1.5).
* :mod:`physical` — physical operators, local and remote.
* :mod:`cost` — the cost model, including the remote cost model based
  on output cardinality (Section 4.1.3).
* :mod:`decoder` — logical trees back into dialect-compliant SQL text.
* :mod:`rules` — simplification / exploration / implementation /
  enforcer rules, local and remote (Sections 4.1.1–4.1.2).
* :mod:`optimizer` — the phased search driver (transaction processing,
  quick plan, full optimization).
"""

from repro.core.linked_server import LinkedServer, RemoteTableInfo
from repro.core.memo import Memo, Group, GroupExpression
from repro.core.optimizer import Optimizer, OptimizationResult, OptimizerOptions
from repro.core.physical import PhysicalOp
from repro.core.cost import CostModel

__all__ = [
    "LinkedServer",
    "RemoteTableInfo",
    "Memo",
    "Group",
    "GroupExpression",
    "Optimizer",
    "OptimizationResult",
    "OptimizerOptions",
    "PhysicalOp",
    "CostModel",
]
