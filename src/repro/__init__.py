"""repro — database-style data management for computer games.

A full reproduction of the system landscape described in *Database
Research in Computer Games* (Demers, Gehrke, Koch, Sowell, White —
SIGMOD 2009 tutorial): a declarative, indexed, transactional in-memory
game database with a scripting language, spatial substrate, MMO
consistency machinery, network simulation, and a persistence/
checkpointing tier.

Quickstart::

    from repro import GameWorld, schema, F

    world = GameWorld()
    world.catalog.define(schema("Position", x="float", y="float"))
    world.catalog.define(schema("Health", hp=("int", 100)))
    eid = world.spawn(Position={"x": 1.0, "y": 2.0}, Health={})
    hurt = world.query("Health").where("Health", F.hp < 50).execute().ids
"""

from repro.cluster import (
    BubbleAwarePlacement,
    ClusterCoordinator,
    ClusterStats,
    DynamicRebalancer,
    ShardHost,
    ShardStats,
    StaticGridPlacement,
)
from repro.core import (
    F,
    GameWorld,
    ComponentSchema,
    FieldDef,
    ResultSet,
    schema,
    system,
)
from repro.errors import ClusterError, ObsError, ReplicationError, ReproError
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    Observability,
    StatsRow,
    Tracer,
)
from repro.replication import (
    ReplicatedClusterCoordinator,
    ReplicatedShardHost,
    ReplicaHost,
)

__version__ = "1.0.0"

__all__ = [
    "F",
    "GameWorld",
    "ComponentSchema",
    "FieldDef",
    "ResultSet",
    "schema",
    "system",
    "StatsRow",
    "BubbleAwarePlacement",
    "ClusterCoordinator",
    "ClusterStats",
    "DynamicRebalancer",
    "ShardHost",
    "ShardStats",
    "StaticGridPlacement",
    "ReplicatedClusterCoordinator",
    "ReplicatedShardHost",
    "ReplicaHost",
    "FlightRecorder",
    "MetricsRegistry",
    "Observability",
    "Tracer",
    "ClusterError",
    "ObsError",
    "ReplicationError",
    "ReproError",
    "__version__",
]
