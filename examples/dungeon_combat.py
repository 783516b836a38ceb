"""Dungeon combat: navmesh pathing and aggro management.

A party (tank / healer / two DPS) fights a boss in a dungeon whose
walkable space is a navigation mesh with designer annotations.  Combat
targeting runs on aggro (threat) tables — the tutorial's example of
consistency-via-abstract-roles — so replicas with jittered positions
agree on every targeting decision.

Run:  python examples/dungeon_combat.py
"""

from repro.consistency import AggroBrain, Participant, Role
from repro.core import GameWorld, schema
from repro.spatial import grid_to_navmesh
from repro.workloads import jitter_positions

DUNGEON = [
    "##########",
    "#....#...#",
    "#.##.#.#.#",
    "#.#..#.#.#",
    "#.#.##.#.#",
    "#.#....#.#",
    "#.######.#",
    "#........#",
    "##########",
]

def main() -> None:
    # --------------------------------------------------------------- the map
    walkable = [[c == "." for c in row] for row in DUNGEON]
    mesh = grid_to_navmesh(
        walkable,
        cell_size=1.0,
        annotations={(7, 1): {"hiding": True}, (1, 8): {"boss_lair": True}},
    )
    print(f"navmesh: {len(mesh.polygons)} convex polygons from "
          f"{sum(sum(r) for r in walkable)} walkable cells")
    start = (1.5, 1.5)
    lair = mesh.find_annotated("boss_lair")[0].centroid
    path = mesh.find_path(start[0], start[1], lair.x, lair.y)
    print(f"path to boss lair: {len(path)} waypoints, "
          f"length {mesh.path_length(path):.1f}")
    hide = mesh.nearest_annotated(lair.x, lair.y, "hiding")
    print(f"nearest hiding spot to the lair: polygon {hide.poly_id} "
          f"at ({hide.centroid.x:.1f}, {hide.centroid.y:.1f})")

    # ------------------------------------------------------------ the world
    world = GameWorld()
    world.catalog.define(schema("Health", hp=("int", 100), max_hp=("int", 100)))
    boss = world.spawn(Health={"hp": 1000, "max_hp": 1000})

    # ----------------------------------------------------------------- aggro
    brain = AggroBrain()
    tank, healer, rogue, mage = 1, 2, 3, 4
    brain.join(Participant(tank, Role.TANK))
    brain.join(Participant(healer, Role.HEALER, ranged=True))
    brain.join(Participant(rogue, Role.DPS))
    brain.join(Participant(mage, Role.DPS, ranged=True))
    brain.engage(boss)

    import random

    rng = random.Random(11)
    print("\ntick | boss hp | boss target")
    for tick in range(1, 121):
        world.tick()
        # tank holds threat, dps burns, healer heals
        brain.on_damage(boss, tank, 6 * rng.uniform(0.8, 1.2))
        brain.on_damage(boss, rogue, 11 * rng.uniform(0.8, 1.2))
        brain.on_damage(boss, mage, 10 * rng.uniform(0.8, 1.2))
        if tick % 3 == 0:
            brain.on_heal(healer, 25)
        hp = world.get_field(boss, "Health", "hp") - 8
        world.set(boss, "Health", hp=hp)
        if tick % 30 == 0:
            print(f"{tick:4d} | {hp:7d} | {brain.target_of(boss):11d}")
        if hp <= 0:
            break

    # the tank held aggro despite lower dps — that's the 3x role multiplier
    assert brain.target_of(boss) == tank
    print("\nboss stayed on the tank: ✓")

    # ------------------------------------------- replica agreement (the point)
    positions = {tank: (0.0, 0.0), healer: (5.0, 5.0),
                 rogue: (1.0, 1.0), mage: (6.0, 2.0)}
    digests = set()
    for replica in range(4):
        _ = jitter_positions(positions, 1.5, seed=replica)  # replicas drift
        digests.add(brain.digest())  # aggro state is position-free
    print(f"aggro digests across 4 drifted replicas: {len(digests)} distinct "
          f"(aggro is consistent without spatial fidelity)")
    assert len(digests) == 1


if __name__ == "__main__":
    main()
