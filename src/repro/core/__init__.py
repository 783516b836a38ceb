"""Core game-database engine: entities, columnar tables, declarative queries.

Public API re-exports the classes a downstream game would touch; the
submodules stay importable for power users.
"""

from repro.core.aggregates import AggregateView, TopKView
from repro.core.clock import FrameBudget, FrameClock
from repro.core.component import ComponentSchema, FieldDef, schema
from repro.core.entity import EntityAllocator, EntityHandle, pack_id, unpack_id
from repro.core.events import Event, EventBus, Subscription
from repro.core.indexes import HashIndex, IndexAdvisor, IndexManager, SortedIndex
from repro.core.plancache import PlanCache
from repro.core.planner import AccessPath, Planner, QueryPlan
from repro.core.predicates import (
    And,
    Between,
    Compare,
    Custom,
    F,
    IsIn,
    Not,
    Or,
    Predicate,
)
from repro.core.query import (
    EXECUTE_MODES,
    PreparedQuery,
    Query,
    ResultRow,
    ResultSet,
    nearest_neighbors,
)
from repro.core.systems import (
    BatchSystem,
    FunctionSystem,
    PerEntitySystem,
    System,
    SystemScheduler,
    system,
)
from repro.core.table import ComponentTable
from repro.core.world import GameWorld, diff_worlds

__all__ = [
    "AggregateView",
    "TopKView",
    "FrameBudget",
    "FrameClock",
    "ComponentSchema",
    "FieldDef",
    "schema",
    "EntityAllocator",
    "EntityHandle",
    "pack_id",
    "unpack_id",
    "Event",
    "EventBus",
    "Subscription",
    "HashIndex",
    "IndexAdvisor",
    "IndexManager",
    "SortedIndex",
    "AccessPath",
    "PlanCache",
    "Planner",
    "QueryPlan",
    "And",
    "Between",
    "Compare",
    "Custom",
    "F",
    "IsIn",
    "Not",
    "Or",
    "Predicate",
    "EXECUTE_MODES",
    "PreparedQuery",
    "Query",
    "ResultRow",
    "ResultSet",
    "nearest_neighbors",
    "BatchSystem",
    "FunctionSystem",
    "PerEntitySystem",
    "System",
    "SystemScheduler",
    "system",
    "ComponentTable",
    "GameWorld",
    "diff_worlds",
]
