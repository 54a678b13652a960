"""Scripted data-collection policies for the three object-manipulation tasks.

The tasks exist only to generate interaction-rich trajectories; there is no
reward. Each policy runs a stage machine: pick targets, plan a path to face
them (BFS over object-free interior cells), and execute the manipulation
(color toggles, pickups, deposits, swaps, drops). Whenever a stage cannot be
planned or a precondition fails at execution time, the policy takes one
random action and replans, so episodes never stall.

- key delivery: recolor a key to match a box, put it inside, trade the box
  for a ball, recolor the ball, walk off.
- ball delivery: the same with key and ball roles swapped.
- object matching: recolor the key and the ball to the box's color and drop
  both next to it.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from .errors import ConfigError
from .gridworld import (
    DIR_VECTORS,
    Action,
    Color,
    GridObject,
    GridState,
    ObjectKind,
    front_pos,
    generate_layout,
)

__all__ = ["TASKS", "TaskPolicy", "task_layout"]

TASKS = ("key-delivery", "ball-delivery", "object-matching")


def task_layout(
    width: int,
    height: int,
    n_objects: int,
    n_noisy_floors: int,
    rng: np.random.Generator,
    floor_palette: int = 4,
) -> GridState:
    """A random layout guaranteed to contain a key, a ball, and a box."""
    if n_objects < 3:
        raise ConfigError("task layouts need at least 3 objects (key, ball, box)")
    state = generate_layout(width, height, n_objects, n_noisy_floors, rng, floor_palette)
    cells = dict(state.cells)
    positions = sorted(cells)
    required = (ObjectKind.KEY, ObjectKind.BALL, ObjectKind.BOX)
    for kind, pos in zip(required, positions):
        cells[pos] = GridObject(kind=kind, color=Color(int(rng.integers(2))))
    return GridState(
        width=state.width,
        height=state.height,
        cells=cells,
        noisy_floors=state.noisy_floors,
        agent=state.agent,
        floor_palette=state.floor_palette,
    )


def _walkable(state: GridState, pos) -> bool:
    return state.in_interior(pos) and pos not in state.cells


def _bfs(state: GridState, start, goals: set) -> Optional[list]:
    """Shortest path through walkable cells from start to any goal cell."""
    if start in goals:
        return [start]
    seen = {start}
    queue = deque([(start,)])
    while queue:
        path = queue.popleft()
        for dc, dr in DIR_VECTORS:
            nxt = (path[-1][0] + dc, path[-1][1] + dr)
            if nxt in seen or not _walkable(state, nxt):
                continue
            if nxt in goals:
                return list(path) + [nxt]
            seen.add(nxt)
            queue.append(tuple(path) + (nxt,))
    return None


def _turns_toward(current_dir: int, target_dir: int) -> list[Action]:
    delta = (target_dir - current_dir) % 4
    if delta == 0:
        return []
    if delta == 1:
        return [Action.TURN_RIGHT]
    if delta == 3:
        return [Action.TURN_LEFT]
    return [Action.TURN_RIGHT, Action.TURN_RIGHT]


def _dir_between(a, b) -> int:
    return DIR_VECTORS.index((b[0] - a[0], b[1] - a[1]))


def _plan_to_face(state: GridState, target) -> Optional[list[Action]]:
    """Actions that leave the agent adjacent to ``target``, facing it."""
    if _adjacent(state.agent.pos, target):
        return _turns_toward(state.agent.dir, _dir_between(state.agent.pos, target))
    stands = {
        (target[0] + dc, target[1] + dr)
        for dc, dr in DIR_VECTORS
        if _walkable(state, (target[0] + dc, target[1] + dr))
    }
    if not stands:
        return None
    path = _bfs(state, state.agent.pos, stands)
    if path is None:
        return None
    actions: list[Action] = []
    heading = state.agent.dir
    for here, there in zip(path, path[1:]):
        want = _dir_between(here, there)
        actions.extend(_turns_toward(heading, want))
        actions.append(Action.FORWARD)
        heading = want
    actions.extend(_turns_toward(heading, _dir_between(path[-1], target)))
    return actions


def _adjacent(a, b) -> bool:
    return abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1


def _find(state: GridState, kind: ObjectKind, rng: np.random.Generator):
    spots = sorted(p for p, o in state.cells.items() if o.kind is kind)
    if not spots:
        return None
    return spots[int(rng.integers(len(spots)))]


class TaskPolicy:
    """Stage machine producing one action per call for a scripted task."""

    def __init__(self, task: str, rng: np.random.Generator):
        if task not in TASKS:
            raise ConfigError(f"unknown task {task!r}; known: {TASKS}")
        self.task = task
        self.rng = rng
        self._queue: deque[Action] = deque()
        self._stage = 0

    def _random_action(self) -> Action:
        return Action(int(self.rng.integers(len(Action))))

    def next_action(self, state: GridState) -> Action:
        if self._queue:
            return self._queue.popleft()
        plan = self._plan_stage(state)
        if plan is None:
            self._stage = 0
            return self._random_action()
        self._queue.extend(plan)
        if not self._queue:
            return self._random_action()
        return self._queue.popleft()

    # -- stage planning ----------------------------------------------------

    def _plan_stage(self, state: GridState) -> Optional[list[Action]]:
        if self.task == "key-delivery":
            return self._plan_delivery(state, ObjectKind.KEY, ObjectKind.BALL)
        if self.task == "ball-delivery":
            return self._plan_delivery(state, ObjectKind.BALL, ObjectKind.KEY)
        return self._plan_matching(state)

    def _box_color(self, state: GridState):
        box = _find(state, ObjectKind.BOX, self.rng)
        if box is None:
            return None, None
        return box, state.cells[box].color

    def _plan_delivery(
        self, state: GridState, first: ObjectKind, second: ObjectKind
    ) -> Optional[list[Action]]:
        """One stage of: recolor+fetch `first`, box it, trade for `second`."""
        stage = self._stage
        box, box_color = self._box_color(state)
        if box is None:
            return None
        carried = state.agent.carried
        if stage == 0:
            if carried is not None:
                # Hands must be free to fetch; shed the load somewhere legal.
                return self._plan_shed(state)
            target = _find(state, first, self.rng)
            if target is None:
                return None
            plan = _plan_to_face(state, target)
            if plan is None:
                return None
            if state.cells[target].color is not box_color:
                plan.append(Action.TOGGLE)
            plan.append(Action.PICKUP)
            self._stage = 1
            return plan
        if stage == 1:
            if carried is None or carried.kind is not first:
                self._stage = 0
                return []
            plan = _plan_to_face(state, box)
            if plan is None:
                return None
            plan.append(Action.TOGGLE)  # deposit into the box
            self._stage = 2
            return plan
        if stage == 2:
            if carried is not None:
                return self._plan_shed(state)
            target = _find(state, second, self.rng)
            if target is None:
                return None
            plan = _plan_to_face(state, target)
            if plan is None:
                return None
            plan.append(Action.PICKUP)
            self._stage = 3
            return plan
        if stage == 3:
            if carried is None or carried.kind is not second:
                self._stage = 0
                return []
            plan = _plan_to_face(state, box)
            if plan is None:
                return None
            plan.append(Action.SWAP)  # trade the carried item for the box
            plan.append(Action.TOGGLE)  # recolor what was left in front
            self._stage = 4
            return plan
        # stage 4: wander off toward a random free cell, then restart
        self._stage = 0
        return self._plan_wander(state)

    def _plan_matching(self, state: GridState) -> Optional[list[Action]]:
        """One stage of: recolor key and ball to the box color, drop nearby."""
        stage = self._stage
        box, box_color = self._box_color(state)
        if box is None:
            return None
        carried = state.agent.carried
        kind = ObjectKind.KEY if stage in (0, 1) else ObjectKind.BALL
        if stage in (0, 2):
            if carried is not None:
                return self._plan_shed(state)
            target = _find(state, kind, self.rng)
            if target is None:
                return None
            plan = _plan_to_face(state, target)
            if plan is None:
                return None
            if state.cells[target].color is not box_color:
                plan.append(Action.TOGGLE)
            plan.append(Action.PICKUP)
            self._stage = stage + 1
            return plan
        if stage in (1, 3):
            if carried is None:
                self._stage = 0
                return []
            spots = {
                (box[0] + dc, box[1] + dr)
                for dc, dr in DIR_VECTORS
                if _walkable(state, (box[0] + dc, box[1] + dr))
                and (box[0] + dc, box[1] + dr) not in state.noisy_floors
            }
            plan = None
            for spot in sorted(spots):
                plan = _plan_to_face(state, spot)
                if plan is not None:
                    plan.append(Action.DROP)
                    break
            if plan is None:
                return None
            self._stage = 0 if stage == 3 else 2
            return plan
        self._stage = 0
        return self._plan_wander(state)

    def _plan_shed(self, state: GridState) -> Optional[list[Action]]:
        """Drop the carried object on the nearest legal cell."""
        fp = front_pos(state)
        if (
            state.in_interior(fp)
            and fp not in state.cells
            and fp not in state.noisy_floors
        ):
            return [Action.DROP]
        options = sorted(
            p
            for p in state.interior()
            if p not in state.cells
            and p not in state.noisy_floors
            and p != state.agent.pos
        )
        for spot in options:
            plan = _plan_to_face(state, spot)
            if plan is not None:
                plan.append(Action.DROP)
                return plan
        return None

    def _plan_wander(self, state: GridState) -> Optional[list[Action]]:
        free = sorted(p for p in state.interior() if _walkable(state, p))
        if not free:
            return None
        goal = free[int(self.rng.integers(len(free)))]
        path = _bfs(state, state.agent.pos, {goal})
        if path is None or len(path) < 2:
            return [self._random_action()]
        actions: list[Action] = []
        heading = state.agent.dir
        for here, there in zip(path, path[1:]):
            want = _dir_between(here, there)
            actions.extend(_turns_toward(heading, want))
            actions.append(Action.FORWARD)
            heading = want
        return actions
