"""Factored gridworld with object interactions and noisy floor tiles.

Geometry: a ``width x height`` grid surrounded by a one-cell wall border;
only interior cells (``1 <= col <= width-2``, ``1 <= row <= height-2``) can
hold objects, floor tiles, or the agent. Directions are 0=east, 1=south,
2=west, 3=north.

Action semantics (all failures are silent no-ops so transitions are total):

- ``TURN_LEFT`` / ``TURN_RIGHT`` rotate the agent in place.
- ``FORWARD`` advances one cell when the target is interior and empty of
  objects; noisy floor tiles are walkable.
- ``PICKUP`` takes the front object when the hands are empty.
- ``DROP`` places the carried object when the front cell is interior, holds
  no object, and is not a noisy floor tile.
- ``TOGGLE`` on a front key or ball flips its color; on a front box it
  exchanges the carried item with the box contents (either side may be
  empty). A carried box is never placed inside a box: nesting depth is 1.
- ``SWAP`` exchanges the front object with the carried object when both
  exist.

Noisy floor tiles resample their colors uniformly on every step, valid or
not, from a configurable palette. They never influence objects or agent
attributes, and the rest of the dynamics never reads their colors; with no
noisy floors ``step`` is a pure function of (state, action).

States are immutable values: ``step`` returns a new ``GridState``. Rollouts
may run in parallel as long as each owns its generator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import IntEnum
from typing import Iterator, Mapping, Optional

import numpy as np

from .errors import ConfigError

__all__ = [
    "Color",
    "ObjectKind",
    "GridObject",
    "Action",
    "AgentState",
    "GridState",
    "Encoder",
    "DIR_VECTORS",
    "step",
    "generate_layout",
    "front_pos",
    "changed_elements",
    "element_value",
    "validate_state",
    "states_equal_ignoring_floors",
    "object_multiset",
]


class Color(IntEnum):
    RED = 0
    BLUE = 1

    def toggled(self) -> "Color":
        return Color.BLUE if self is Color.RED else Color.RED


class ObjectKind(IntEnum):
    KEY = 0
    BALL = 1
    BOX = 2


@dataclass(frozen=True)
class GridObject:
    """An object on a cell or in hand; only boxes have contents."""

    kind: ObjectKind
    color: Color
    contents: Optional["GridObject"] = None

    def __post_init__(self):
        if self.contents is not None:
            if self.kind is not ObjectKind.BOX:
                raise ValueError("only boxes can have contents")
            if self.contents.kind is ObjectKind.BOX:
                raise ValueError("boxes cannot be nested")


class Action(IntEnum):
    TURN_LEFT = 0
    TURN_RIGHT = 1
    FORWARD = 2
    PICKUP = 3
    DROP = 4
    TOGGLE = 5
    SWAP = 6


# Unit moves indexed by direction: east, south, west, north.
DIR_VECTORS = ((1, 0), (0, 1), (-1, 0), (0, -1))

Pos = tuple[int, int]


@dataclass(frozen=True)
class AgentState:
    pos: Pos
    dir: int
    carried: Optional[GridObject] = None


@dataclass(frozen=True)
class GridState:
    """Full factored environment state.

    ``cells`` maps interior positions to objects; ``noisy_floors`` maps tile
    positions to their current palette color index. Both mappings are treated
    as immutable; ``step`` copies them.
    """

    width: int
    height: int
    cells: Mapping[Pos, GridObject]
    noisy_floors: Mapping[Pos, int]
    agent: AgentState
    floor_palette: int = 4

    def interior(self) -> Iterator[Pos]:
        for row in range(1, self.height - 1):
            for col in range(1, self.width - 1):
                yield (col, row)

    def in_interior(self, pos: Pos) -> bool:
        return 1 <= pos[0] <= self.width - 2 and 1 <= pos[1] <= self.height - 2


def front_pos(state: GridState) -> Pos:
    dc, dr = DIR_VECTORS[state.agent.dir]
    return (state.agent.pos[0] + dc, state.agent.pos[1] + dr)


def validate_state(state: GridState) -> None:
    """Raise ValueError if the state breaks a structural invariant."""
    if state.floor_palette < 1:
        raise ValueError("floor palette must have at least one color")
    agent = state.agent
    if not state.in_interior(agent.pos):
        raise ValueError(f"agent at {agent.pos} is outside the interior")
    if agent.dir not in (0, 1, 2, 3):
        raise ValueError(f"agent direction {agent.dir} not in 0..3")
    if agent.pos in state.cells:
        raise ValueError("agent cell holds an object")
    for pos in state.cells:
        if not state.in_interior(pos):
            raise ValueError(f"object at {pos} is outside the interior")
        if pos in state.noisy_floors:
            raise ValueError(f"noisy floor cell {pos} holds an object")
    for pos, color in state.noisy_floors.items():
        if not state.in_interior(pos):
            raise ValueError(f"noisy floor at {pos} is outside the interior")
        if not 0 <= color < state.floor_palette:
            raise ValueError(f"floor color {color} not in palette")


def step(state: GridState, action: Action, rng: Optional[np.random.Generator] = None) -> GridState:
    """Apply one action and return the successor state.

    Invalid preconditions leave everything unchanged except the noisy floor
    colors, which always resample.
    """
    agent = state.agent
    pos, direction, carried = agent.pos, agent.dir, agent.carried
    cells = dict(state.cells)
    fp = front_pos(state)
    front = cells.get(fp)

    if action is Action.TURN_LEFT:
        direction = (direction - 1) % 4
    elif action is Action.TURN_RIGHT:
        direction = (direction + 1) % 4
    elif action is Action.FORWARD:
        if state.in_interior(fp) and front is None:
            pos = fp
    elif action is Action.PICKUP:
        if front is not None and carried is None:
            carried = front
            del cells[fp]
    elif action is Action.DROP:
        if (
            carried is not None
            and state.in_interior(fp)
            and front is None
            and fp not in state.noisy_floors
        ):
            cells[fp] = carried
            carried = None
    elif action is Action.TOGGLE:
        if front is not None:
            if front.kind in (ObjectKind.KEY, ObjectKind.BALL):
                cells[fp] = replace(front, color=front.color.toggled())
            elif carried is None or carried.kind is not ObjectKind.BOX:
                cells[fp] = replace(front, contents=carried)
                carried = front.contents
    elif action is Action.SWAP:
        if front is not None and carried is not None:
            cells[fp] = carried
            carried = front
    else:
        raise ValueError(f"unknown action {action!r}")

    if state.noisy_floors and rng is None:
        raise ValueError("state has noisy floors; step requires a generator")
    # Sorted iteration pins the draw order, so a fixed seed reproduces colors.
    floors = {pos: int(rng.integers(state.floor_palette)) for pos in sorted(state.noisy_floors)}
    return GridState(
        width=state.width,
        height=state.height,
        cells=cells,
        noisy_floors=floors,
        agent=AgentState(pos=pos, dir=direction, carried=carried),
        floor_palette=state.floor_palette,
    )


def generate_layout(
    width: int,
    height: int,
    n_objects: int,
    n_noisy_floors: int,
    rng: np.random.Generator,
    floor_palette: int = 4,
) -> GridState:
    """Place objects, noisy floor tiles, and the agent on distinct interior cells.

    Object kinds and colors are sampled uniformly; boxes start empty. Raises
    ConfigError when the interior cannot host everything.
    """
    interior = [
        (col, row) for row in range(1, height - 1) for col in range(1, width - 1)
    ]
    needed = n_objects + n_noisy_floors + 1
    if needed > len(interior):
        raise ConfigError(
            f"{n_objects} objects + {n_noisy_floors} noisy floors + agent need "
            f"{needed} cells but the {width}x{height} interior has {len(interior)}"
        )
    picks = rng.choice(len(interior), size=needed, replace=False)
    cells: dict[Pos, GridObject] = {}
    for i in range(n_objects):
        kind = ObjectKind(int(rng.integers(3)))
        color = Color(int(rng.integers(2)))
        cells[interior[picks[i]]] = GridObject(kind=kind, color=color)
    floors = {
        interior[picks[n_objects + i]]: int(rng.integers(floor_palette))
        for i in range(n_noisy_floors)
    }
    agent = AgentState(
        pos=interior[picks[needed - 1]],
        dir=int(rng.integers(4)),
        carried=None,
    )
    return GridState(
        width=width,
        height=height,
        cells=cells,
        noisy_floors=floors,
        agent=agent,
        floor_palette=floor_palette,
    )


# ---------------------------------------------------------------------------
# Element-level views (used by change tracking and dynamics accuracy)
# ---------------------------------------------------------------------------

ElementId = tuple


def element_value(state: GridState, elem: ElementId):
    """Current value of a cell or agent attribute element."""
    tag = elem[0]
    if tag == "cell":
        pos = (elem[1], elem[2])
        obj = state.cells.get(pos)
        if obj is not None:
            return obj
        color = state.noisy_floors.get(pos)
        if color is not None:
            return ("floor", color)
        return None
    if elem == ("agent", "pos"):
        return state.agent.pos
    if elem == ("agent", "dir"):
        return state.agent.dir
    if elem == ("agent", "carried"):
        return state.agent.carried
    raise KeyError(f"unknown element id {elem!r}")


def changed_elements(s: GridState, s2: GridState) -> set[ElementId]:
    """Ids of cells and agent attributes whose value differs between s and s2."""
    if (s.width, s.height) != (s2.width, s2.height):
        raise ValueError(
            f"grid shapes differ: {s.width}x{s.height} vs {s2.width}x{s2.height}"
        )
    changed: set[ElementId] = set()
    touched = set(s.cells) | set(s2.cells) | set(s.noisy_floors) | set(s2.noisy_floors)
    for pos in touched:
        elem = ("cell", pos[0], pos[1])
        if element_value(s, elem) != element_value(s2, elem):
            changed.add(elem)
    for attr in ("pos", "dir", "carried"):
        elem = ("agent", attr)
        if element_value(s, elem) != element_value(s2, elem):
            changed.add(elem)
    return changed


def states_equal_ignoring_floors(s: GridState, s2: GridState) -> bool:
    """Equality on everything but the noisy floor colors."""
    return (
        (s.width, s.height) == (s2.width, s2.height)
        and s.cells == s2.cells
        and s.agent == s2.agent
        and sorted(s.noisy_floors) == sorted(s2.noisy_floors)
    )


def object_multiset(state: GridState) -> tuple:
    """Sorted multiset of (kind, color) over cells, hands, and box contents."""
    items = []
    objs = list(state.cells.values())
    if state.agent.carried is not None:
        objs.append(state.agent.carried)
    for obj in objs:
        items.append((int(obj.kind), int(obj.color)))
        if obj.contents is not None:
            items.append((int(obj.contents.kind), int(obj.contents.color)))
    return tuple(sorted(items))


# ---------------------------------------------------------------------------
# Feature encoding
# ---------------------------------------------------------------------------

# Object attributes are factored into separate kind and color one-hot groups
# (class 0 always means empty / nothing). A joint (kind x color) alphabet
# would give linear heads no parameter sharing across attribute
# combinations, which forecloses compositional generalization; the factored
# groups keep the encoding bijective on valid states while letting models
# reuse what they learned about an attribute under new combinations.
_KIND_CLASSES: tuple = (None, ObjectKind.KEY, ObjectKind.BALL, ObjectKind.BOX)
_COLOR_CLASSES: tuple = (None, Color.RED, Color.BLUE)
_CONTENT_KIND_CLASSES: tuple = (None, ObjectKind.KEY, ObjectKind.BALL)


@dataclass(frozen=True)
class Group:
    """One one-hot slot of the feature vector."""

    name: tuple
    start: int
    size: int

    @property
    def stop(self) -> int:
        return self.start + self.size


class Encoder:
    """Bijective binary encoding of valid grid states.

    The vector concatenates one-hot groups: per cell, object kind, object
    color, contents kind, contents color, and floor color (index 0 means
    the cell is not a noisy floor); then agent position, direction, and the
    carried object's kind/color/contents groups. Group sizes depend only on
    the grid shape and floor palette, so the length is fixed per shape.

    ``decode`` accepts any per-group one-hot assignment, including model
    predictions that break semantic invariants (e.g. the agent position
    group pointing at an occupied cell). Precedence rules: the kind group
    decides whether an object exists (a 'none' color next to a real kind
    falls back to red); contents exist only inside boxes; a cell's floor
    color is kept only when its kind group says empty.
    """

    def __init__(self, width: int = 8, height: int = 8, floor_palette: int = 4):
        if width < 3 or height < 3:
            raise ConfigError("grid needs at least one interior cell")
        if floor_palette < 1:
            raise ConfigError("floor palette must have at least one color")
        self.width = width
        self.height = height
        self.floor_palette = floor_palette
        self.cells = [
            (col, row) for row in range(1, height - 1) for col in range(1, width - 1)
        ]
        self._cell_index = {pos: i for i, pos in enumerate(self.cells)}

        groups: list[Group] = []
        offset = 0

        def add(name: tuple, size: int):
            nonlocal offset
            groups.append(Group(name=name, start=offset, size=size))
            offset += size

        for pos in self.cells:
            add(("cell_kind", pos[0], pos[1]), len(_KIND_CLASSES))
        for pos in self.cells:
            add(("cell_color", pos[0], pos[1]), len(_COLOR_CLASSES))
        for pos in self.cells:
            add(("contents_kind", pos[0], pos[1]), len(_CONTENT_KIND_CLASSES))
        for pos in self.cells:
            add(("contents_color", pos[0], pos[1]), len(_COLOR_CLASSES))
        for pos in self.cells:
            add(("floor", pos[0], pos[1]), floor_palette + 1)
        add(("agent_pos",), len(self.cells))
        add(("agent_dir",), 4)
        add(("carried_kind",), len(_KIND_CLASSES))
        add(("carried_color",), len(_COLOR_CLASSES))
        add(("carried_contents_kind",), len(_CONTENT_KIND_CLASSES))
        add(("carried_contents_color",), len(_COLOR_CLASSES))

        self.groups = tuple(groups)
        self.n_features = offset
        self._group_by_name = {g.name: g for g in groups}
        self._n_cells = len(self.cells)
        self._starts = [g.start for g in groups]
        self.group_starts = np.asarray(self._starts, dtype=np.intp)
        self.group_sizes = np.asarray([g.size for g in groups], dtype=np.intp)
        self.run_slices = self._run_slices()

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    def group(self, name: tuple) -> Group:
        return self._group_by_name[name]

    def _run_slices(self) -> tuple[tuple[int, int, int, int], ...]:
        """(feature_start, feature_stop, group_count, group_size) per maximal
        run of consecutive equal-size groups."""
        runs = []
        i = 0
        while i < len(self.groups):
            j = i
            while j + 1 < len(self.groups) and self.groups[j + 1].size == self.groups[i].size:
                j += 1
            start, size = self.groups[i].start, self.groups[i].size
            runs.append((start, start + (j - i + 1) * size, j - i + 1, size))
            i = j + 1
        return tuple(runs)

    def agent_feature_indices(self) -> np.ndarray:
        """Indices of the agent-centric groups (position, direction, hands):
        the last six groups."""
        return np.arange(self.groups[-6].start, self.n_features, dtype=np.intp)

    # -- encoding ----------------------------------------------------------

    @staticmethod
    def _obj_attrs(obj: Optional[GridObject]) -> tuple[int, int, int, int]:
        """(kind, color, contents kind, contents color) class indices."""
        if obj is None:
            return (0, 0, 0, 0)
        kind = _KIND_CLASSES.index(obj.kind)
        color = _COLOR_CLASSES.index(obj.color)
        if obj.contents is None:
            return (kind, color, 0, 0)
        return (
            kind,
            color,
            _CONTENT_KIND_CLASSES.index(obj.contents.kind),
            _COLOR_CLASSES.index(obj.contents.color),
        )

    def classes(self, state: GridState) -> list[int]:
        """The class index of every group, in group order; the exact inverse
        of :meth:`decode_classes` on valid states."""
        if (state.width, state.height) != (self.width, self.height):
            raise ValueError("state shape does not match encoder shape")
        if state.floor_palette != self.floor_palette:
            raise ValueError("state floor palette does not match encoder")
        attrs = [self._obj_attrs(state.cells.get(pos)) for pos in self.cells]
        out = [a[k] for k in range(4) for a in attrs]
        out += [state.noisy_floors.get(pos, -1) + 1 for pos in self.cells]
        out += [self._cell_index[state.agent.pos], state.agent.dir]
        out += self._obj_attrs(state.agent.carried)
        return out

    def active_indices(self, state: GridState) -> list[int]:
        """Indices of the 1-valued features, one per group, ascending."""
        return [start + c for start, c in zip(self._starts, self.classes(state))]

    def encode(self, state: GridState) -> np.ndarray:
        vec = np.zeros(self.n_features, dtype=np.float64)
        vec[self.active_indices(state)] = 1.0
        return vec

    # -- decoding ----------------------------------------------------------

    def group_argmax(self, feats: np.ndarray) -> np.ndarray:
        """Per-group argmax class indices (ties to the lowest index).

        A feature vector gives shape (n_groups,); a batch of rows gives
        (n, n_groups).
        """
        feats = np.asarray(feats)
        rows = np.atleast_2d(feats)
        n = rows.shape[0]
        out = np.empty((n, self.n_groups), dtype=np.intp)
        col = 0
        for start, stop, count, size in self.run_slices:
            out[:, col : col + count] = rows[:, start:stop].reshape(n, count, size).argmax(axis=2)
            col += count
        return out if feats.ndim == 2 else out[0]

    @staticmethod
    def _obj_from_classes(kind_cls: int, color_cls: int, ck_cls: int, cc_cls: int):
        if kind_cls == 0:
            return None
        kind = _KIND_CLASSES[kind_cls]
        color = _COLOR_CLASSES[color_cls] if color_cls != 0 else Color.RED
        contents = None
        if kind is ObjectKind.BOX and ck_cls != 0:
            contents = GridObject(
                kind=_CONTENT_KIND_CLASSES[ck_cls],
                color=_COLOR_CLASSES[cc_cls] if cc_cls != 0 else Color.RED,
            )
        return GridObject(kind=kind, color=color, contents=contents)

    def decode_classes(self, classes: np.ndarray) -> GridState:
        n = self._n_cells
        cells: dict[Pos, GridObject] = {}
        floors: dict[Pos, int] = {}
        for i, pos in enumerate(self.cells):
            obj = self._obj_from_classes(
                int(classes[i]), int(classes[n + i]),
                int(classes[2 * n + i]), int(classes[3 * n + i]),
            )
            if obj is not None:
                cells[pos] = obj
            else:
                fcls = int(classes[4 * n + i])
                if fcls != 0:
                    floors[pos] = fcls - 1
        agent_pos = self.cells[int(classes[5 * n])]
        agent_dir = int(classes[5 * n + 1])
        carried = self._obj_from_classes(
            int(classes[5 * n + 2]), int(classes[5 * n + 3]),
            int(classes[5 * n + 4]), int(classes[5 * n + 5]),
        )
        return GridState(
            width=self.width,
            height=self.height,
            cells=cells,
            noisy_floors=floors,
            agent=AgentState(pos=agent_pos, dir=agent_dir, carried=carried),
            floor_palette=self.floor_palette,
        )

    def decode(self, vec: np.ndarray) -> GridState:
        return self.decode_classes(self.group_argmax(vec).tolist())

    def decode_indices(self, active) -> GridState:
        """Decode the ascending active indices written by :meth:`active_indices`.

        Raises ValueError unless there is exactly one in-range index per group.
        """
        idx = np.asarray(active)
        if idx.ndim != 1 or len(idx) != self.n_groups:
            raise ValueError(
                f"expected {self.n_groups} active indices, one per group, got {idx.size}"
            )
        if idx.dtype.kind not in "iu":
            raise ValueError("active indices must be integers")
        classes = idx - self.group_starts
        bad = (classes < 0) | (classes >= self.group_sizes)
        if bad.any():
            gi = int(np.argmax(bad))
            g = self.groups[gi]
            raise ValueError(
                f"active index {int(idx[gi])} at position {gi} is outside group "
                f"{g.name} ({g.start}..{g.stop - 1})"
            )
        return self.decode_classes(classes.tolist())
