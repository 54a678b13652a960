"""Dataset construction, compositional splitting, pools, and persistence.

Transitions are collected from random play, split into four disjoint
partitions (labeled seed, acquisition pool, action-balanced test, action-free
video), and persisted as line-delimited records behind a versioned header.

Label hygiene: the pool and video partitions hide their action labels. The
hidden label is reachable only through :func:`reveal_action` (acquisition)
and :func:`peek_hidden_action` (oracle scoring and evaluation reports);
scoring strategies must not call the latter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    InsufficientDataError,
    ParseError,
    RevealError,
    UnsupportedVersionError,
)
from .gridworld import (
    Action,
    Color,
    Encoder,
    GridObject,
    GridState,
    ObjectKind,
    front_pos,
    generate_layout,
    step,
)

__all__ = [
    "EnvConfig",
    "SplitConfig",
    "LabeledTransition",
    "UnlabeledTransition",
    "ExplorationPool",
    "ExperimentSplit",
    "Coverage",
    "CompositionTable",
    "default_composition_table",
    "random_policy_rollout",
    "collect_random_play",
    "collect_task_play",
    "apply_composition_filter",
    "build_split",
    "build_default_split",
    "reveal_action",
    "peek_hidden_action",
    "peek_front_object",
    "save",
    "load",
]

SCHEMA = "wav-split/1"
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class EnvConfig:
    """Shape and content of the environments used for collection."""

    width: int = 8
    height: int = 8
    n_objects: int = 6
    n_noisy_floors: int = 0
    floor_palette: int = 4
    horizon: int = 50

    def encoder(self) -> Encoder:
        return Encoder(self.width, self.height, self.floor_palette)


@dataclass(frozen=True)
class SplitConfig:
    """Partition sizes; defaults are desk-scale."""

    seed_size: int = 200
    pool_size: int = 2000
    test_size: int = 700
    video_size: int = 5000
    max_action_imbalance: float = 1.5

    @property
    def total(self) -> int:
        return self.seed_size + self.pool_size + self.test_size + self.video_size


@dataclass(frozen=True, eq=False)
class LabeledTransition:
    """An (s, a, s') tuple with both raw states and their encodings."""

    tid: int
    state: GridState
    action: Action
    next_state: GridState
    features: np.ndarray
    next_features: np.ndarray
    front_object: Optional[tuple[ObjectKind, Color]] = None
    task: Optional[str] = None


@dataclass(frozen=True, eq=False)
class UnlabeledTransition:
    """An (s, s') pair whose action is stored but withheld from learners."""

    tid: int
    state: GridState
    next_state: GridState
    features: np.ndarray
    next_features: np.ndarray
    task: Optional[str] = None
    _hidden_action: Action = Action.TURN_LEFT
    _front_object: Optional[tuple[ObjectKind, Color]] = None


def peek_hidden_action(t: UnlabeledTransition) -> Action:
    """Read a hidden label. Reserved for oracle scoring and evaluation reports."""
    return t._hidden_action


def peek_front_object(t: UnlabeledTransition) -> Optional[tuple[ObjectKind, Color]]:
    """Read the hidden interaction-object annotation (evaluation only)."""
    return t._front_object


def _to_unlabeled(t: LabeledTransition) -> UnlabeledTransition:
    return UnlabeledTransition(
        tid=t.tid,
        state=t.state,
        next_state=t.next_state,
        features=t.features,
        next_features=t.next_features,
        task=t.task,
        _hidden_action=t.action,
        _front_object=t.front_object,
    )


def _to_labeled(t: UnlabeledTransition) -> LabeledTransition:
    return LabeledTransition(
        tid=t.tid,
        state=t.state,
        action=t._hidden_action,
        next_state=t.next_state,
        features=t.features,
        next_features=t.next_features,
        front_object=t._front_object,
        task=t.task,
    )


class ExplorationPool:
    """Unlabeled candidates plus the reveal ledger.

    Reveals are the only mutation and must be serialized (single writer).
    """

    def __init__(self, items: Sequence[UnlabeledTransition]):
        self.items: list[UnlabeledTransition] = list(items)
        self._revealed: dict[int, Action] = {}

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, index: int) -> UnlabeledTransition:
        return self.items[index]

    @property
    def reveals(self) -> int:
        return len(self._revealed)

    def is_revealed(self, index: int) -> bool:
        return index in self._revealed

    def revealed_indices(self) -> list[int]:
        return sorted(self._revealed)

    def unrevealed_indices(self) -> list[int]:
        return [i for i in range(len(self.items)) if i not in self._revealed]

    def fresh_copy(self) -> "ExplorationPool":
        return ExplorationPool(self.items)


def reveal_action(pool: ExplorationPool, index: int) -> LabeledTransition:
    """Acquire one label: return the labeled transition and mark it revealed."""
    if not 0 <= index < len(pool.items):
        raise RevealError(f"pool index {index} out of range 0..{len(pool.items) - 1}")
    if pool.is_revealed(index):
        raise RevealError(f"pool index {index} was already revealed")
    item = pool.items[index]
    pool._revealed[index] = item._hidden_action
    return _to_labeled(item)


@dataclass
class ExperimentSplit:
    """The four disjoint partitions of one experiment."""

    seed_labeled: list[LabeledTransition]
    pool: ExplorationPool
    test: list[LabeledTransition]
    video: list[UnlabeledTransition]
    env: EnvConfig

    def encoder(self) -> Encoder:
        return self.env.encoder()

    def fresh_copy(self) -> "ExperimentSplit":
        """Same partitions with an empty reveal ledger."""
        return ExperimentSplit(
            seed_labeled=self.seed_labeled,
            pool=self.pool.fresh_copy(),
            test=self.test,
            video=self.video,
            env=self.env,
        )


# ---------------------------------------------------------------------------
# Collection
# ---------------------------------------------------------------------------


def _non_floor_view(s: GridState) -> tuple:
    return (tuple(sorted(s.cells.items())), s.agent)


def _interaction_object(
    state: GridState, action: Action, next_state: GridState
) -> Optional[tuple[ObjectKind, Color]]:
    """The (kind, color) an interaction action manipulated, or None.

    Pickup and toggle act on the front object; drop and swap act on the
    carried object being given away. Failed interactions (no state change
    outside the floors) return None and count as non-interactions.
    """
    if action in (Action.PICKUP, Action.TOGGLE):
        obj = state.cells.get(front_pos(state))
    elif action in (Action.DROP, Action.SWAP):
        obj = state.agent.carried
    else:
        return None
    if obj is None:
        return None
    if _non_floor_view(state) == _non_floor_view(next_state):
        return None
    return (obj.kind, obj.color)


def random_policy_rollout(
    state: GridState,
    horizon: int,
    rng: np.random.Generator,
    encoder: Optional[Encoder] = None,
    start_tid: int = 0,
    task: Optional[str] = None,
) -> list[LabeledTransition]:
    """Roll a uniform-random policy for ``horizon`` consecutive transitions."""
    if encoder is None:
        encoder = Encoder(state.width, state.height, state.floor_palette)
    out: list[LabeledTransition] = []
    current = state
    feats = encoder.encode(current)
    for i in range(horizon):
        action = Action(int(rng.integers(len(Action))))
        nxt = step(current, action, rng)
        nxt_feats = encoder.encode(nxt)
        out.append(
            LabeledTransition(
                tid=start_tid + i,
                state=current,
                action=action,
                next_state=nxt,
                features=feats,
                next_features=nxt_feats,
                front_object=_interaction_object(current, action, nxt),
                task=task,
            )
        )
        current, feats = nxt, nxt_feats
    return out


def collect_random_play(
    env_config: EnvConfig, n_transitions: int, rng: np.random.Generator
) -> list[LabeledTransition]:
    """Collect exactly ``n_transitions`` from fresh layouts, re-rolling every horizon."""
    if n_transitions < 0:
        raise ConfigError("n_transitions must be >= 0")
    encoder = env_config.encoder()
    data: list[LabeledTransition] = []
    while len(data) < n_transitions:
        layout = generate_layout(
            env_config.width,
            env_config.height,
            env_config.n_objects,
            env_config.n_noisy_floors,
            rng,
            floor_palette=env_config.floor_palette,
        )
        horizon = min(env_config.horizon, n_transitions - len(data))
        data.extend(
            random_policy_rollout(
                layout, horizon, rng, encoder=encoder, start_tid=len(data)
            )
        )
    return data


def collect_task_play(
    env_config: EnvConfig,
    n_transitions: int,
    rng: np.random.Generator,
    tasks: Optional[Sequence[str]] = None,
) -> list[LabeledTransition]:
    """Interaction-rich transitions from the scripted task policies.

    Episodes cycle through the given tasks (all three by default) on fresh
    layouts that always contain a key, a ball, and a box.
    """
    from .tasks import TASKS, TaskPolicy, task_layout

    if n_transitions < 0:
        raise ConfigError("n_transitions must be >= 0")
    tasks = tuple(tasks) if tasks is not None else TASKS
    encoder = env_config.encoder()
    data: list[LabeledTransition] = []
    episode = 0
    while len(data) < n_transitions:
        task = tasks[episode % len(tasks)]
        episode += 1
        current = task_layout(
            env_config.width,
            env_config.height,
            max(env_config.n_objects, 3),
            env_config.n_noisy_floors,
            rng,
            floor_palette=env_config.floor_palette,
        )
        policy = TaskPolicy(task, rng)
        feats = encoder.encode(current)
        for _ in range(min(env_config.horizon, n_transitions - len(data))):
            action = policy.next_action(current)
            nxt = step(current, action, rng)
            nxt_feats = encoder.encode(nxt)
            data.append(
                LabeledTransition(
                    tid=len(data),
                    state=current,
                    action=action,
                    next_state=nxt,
                    features=feats,
                    next_features=nxt_feats,
                    front_object=_interaction_object(current, action, nxt),
                    task=task,
                )
            )
            current, feats = nxt, nxt_feats
    return data


# ---------------------------------------------------------------------------
# Compositional coverage
# ---------------------------------------------------------------------------


class Coverage(Enum):
    SEEN = "seen"
    OOS_ONLY = "oos_only"
    ABSENT = "absent"


_INTERACTIONS = (Action.PICKUP, Action.DROP, Action.TOGGLE, Action.SWAP)


@dataclass(frozen=True)
class CompositionTable:
    """Coverage class for every interaction action x object kind x color."""

    entries: dict[tuple[Action, ObjectKind, Color], Coverage]

    def __post_init__(self):
        for action in _INTERACTIONS:
            for kind in ObjectKind:
                for color in Color:
                    if (action, kind, color) not in self.entries:
                        raise ConfigError(
                            f"composition table misses ({action.name}, {kind.name}, {color.name})"
                        )

    def classify(self, action: Action, kind: ObjectKind, color: Color) -> Coverage:
        return self.entries[(action, kind, color)]


def default_composition_table() -> CompositionTable:
    """Coverage markings for keys and balls; boxes are unconstrained (seen)."""
    S, O, A = Coverage.SEEN, Coverage.OOS_ONLY, Coverage.ABSENT
    KEY, BALL, BOX = ObjectKind.KEY, ObjectKind.BALL, ObjectKind.BOX
    RED, BLUE = Color.RED, Color.BLUE
    entries: dict[tuple[Action, ObjectKind, Color], Coverage] = {}
    marks = {
        Action.PICKUP: {(KEY, RED): A, (KEY, BLUE): S, (BALL, RED): A, (BALL, BLUE): O},
        Action.DROP: {(KEY, RED): O, (KEY, BLUE): A, (BALL, RED): S, (BALL, BLUE): A},
        Action.TOGGLE: {(KEY, RED): O, (KEY, BLUE): S, (BALL, RED): S, (BALL, BLUE): O},
        Action.SWAP: {(KEY, RED): O, (KEY, BLUE): A, (BALL, RED): S, (BALL, BLUE): A},
    }
    for action, table in marks.items():
        for key, cov in table.items():
            entries[(action, key[0], key[1])] = cov
        for color in Color:
            entries[(action, BOX, color)] = S
    return CompositionTable(entries=entries)


def apply_composition_filter(
    data: Iterable[LabeledTransition], table: CompositionTable
) -> tuple[list[LabeledTransition], list[LabeledTransition]]:
    """Partition transitions into (train_part, oos_test_part); absent ones are dropped.

    Movement actions and failed interactions always go to the train part.
    """
    train: list[LabeledTransition] = []
    oos: list[LabeledTransition] = []
    for t in data:
        if t.front_object is None:
            train.append(t)
            continue
        coverage = table.classify(t.action, t.front_object[0], t.front_object[1])
        if coverage is Coverage.SEEN:
            train.append(t)
        elif coverage is Coverage.OOS_ONLY:
            oos.append(t)
    return train, oos


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------


def build_split(
    labeled_source: Sequence[LabeledTransition],
    config: SplitConfig,
    rng: np.random.Generator,
    env: EnvConfig,
) -> ExperimentSplit:
    """Draw disjoint seed/pool/test/video partitions from collected data.

    The test partition is action-balanced by stratified sampling (per-action
    counts within one of test_size // 7); the remaining partitions are drawn
    from a single shuffle of the leftovers.
    """
    n_actions = len(Action)
    base, extra = divmod(config.test_size, n_actions)
    by_action: dict[Action, list[int]] = {a: [] for a in Action}
    for i, t in enumerate(labeled_source):
        by_action[t.action].append(i)

    test_idx: list[int] = []
    for j, action in enumerate(Action):
        want = base + (1 if j < extra else 0)
        have = by_action[action]
        if len(have) < want:
            raise InsufficientDataError(
                f"test partition needs {want} '{action.name}' transitions "
                f"but the source has {len(have)}"
            )
        picks = rng.choice(len(have), size=want, replace=False)
        test_idx.extend(have[k] for k in picks)
    test_set = set(test_idx)

    rest = [i for i in range(len(labeled_source)) if i not in test_set]
    order = rng.permutation(len(rest))
    needed = config.seed_size + config.pool_size + config.video_size
    if len(rest) < needed:
        deficit_of = (
            "seed_labeled"
            if len(rest) < config.seed_size
            else "pool"
            if len(rest) < config.seed_size + config.pool_size
            else "video"
        )
        raise InsufficientDataError(
            f"{deficit_of} partition cannot be filled: need {needed} non-test "
            f"transitions, have {len(rest)}"
        )
    shuffled = [rest[k] for k in order]
    seed_idx = shuffled[: config.seed_size]
    pool_idx = shuffled[config.seed_size : config.seed_size + config.pool_size]
    video_idx = shuffled[
        config.seed_size + config.pool_size : config.seed_size + config.pool_size + config.video_size
    ]

    split = ExperimentSplit(
        seed_labeled=[labeled_source[i] for i in seed_idx],
        pool=ExplorationPool([_to_unlabeled(labeled_source[i]) for i in pool_idx]),
        test=[labeled_source[i] for i in sorted(test_idx)],
        video=[_to_unlabeled(labeled_source[i]) for i in video_idx],
        env=env,
    )
    _check_balance(split.test, config.max_action_imbalance)
    return split


def _check_balance(test: Sequence[LabeledTransition], bound: float) -> None:
    counts = [0] * len(Action)
    for t in test:
        counts[t.action] += 1
    low = min(c for c in counts if c > 0) if any(counts) else 0
    if low and max(counts) / low > bound:
        raise InsufficientDataError(
            f"test action imbalance {max(counts)}/{low} exceeds bound {bound}"
        )


def build_default_split(
    env: EnvConfig, config: SplitConfig, rng: np.random.Generator, margin: float = 1.1
) -> ExperimentSplit:
    """Collect just enough random play and split it with the given config."""
    n = int(np.ceil(config.total * margin))
    return build_split(collect_random_play(env, n, rng), config, rng, env)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def _fo_str(fo: Optional[tuple[ObjectKind, Color]]) -> Optional[str]:
    if fo is None:
        return None
    return f"{fo[0].name.lower()}-{fo[1].name.lower()}"


def _fo_parse(text: Optional[str]) -> Optional[tuple[ObjectKind, Color]]:
    if text is None:
        return None
    kind_name, color_name = text.split("-")
    return (ObjectKind[kind_name.upper()], Color[color_name.upper()])


def _record(kind: str, tid: int, s: list[int], a: Action, s_next: list[int],
            fo: Optional[str], task: Optional[str]) -> dict:
    return {
        "id": tid,
        "kind": kind,
        "s": s,
        "a": a.name.lower(),
        "s_next": s_next,
        "meta": {"front_object": fo, "task": task},
    }


def _dump_line(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"))


def save(split: ExperimentSplit, path) -> None:
    """Write the split as a header line plus one record per line."""
    enc = split.encoder()
    header = {
        "schema": SCHEMA,
        "version": SCHEMA_VERSION,
        "env": {
            "width": split.env.width,
            "height": split.env.height,
            "n_objects": split.env.n_objects,
            "n_noisy_floors": split.env.n_noisy_floors,
            "floor_palette": split.env.floor_palette,
            "horizon": split.env.horizon,
        },
        "counts": {
            "seed_labeled": len(split.seed_labeled),
            "pool": len(split.pool),
            "test": len(split.test),
            "video": len(split.video),
        },
        "revealed": split.pool.revealed_indices(),
    }
    lines = [_dump_line(header)]
    for t in split.seed_labeled:
        lines.append(_dump_line(_record(
            "labeled", t.tid, enc.active_indices(t.state), t.action,
            enc.active_indices(t.next_state), _fo_str(t.front_object), t.task)))
    for u in split.pool.items:
        lines.append(_dump_line(_record(
            "unlabeled", u.tid, enc.active_indices(u.state), u._hidden_action,
            enc.active_indices(u.next_state), _fo_str(u._front_object), u.task)))
    for t in split.test:
        lines.append(_dump_line(_record(
            "labeled", t.tid, enc.active_indices(t.state), t.action,
            enc.active_indices(t.next_state), _fo_str(t.front_object), t.task)))
    for u in split.video:
        lines.append(_dump_line(_record(
            "unlabeled", u.tid, enc.active_indices(u.state), u._hidden_action,
            enc.active_indices(u.next_state), _fo_str(u._front_object), u.task)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_record(obj: dict, enc: Encoder, line: int):
    try:
        tid = obj["id"]
        kind = obj["kind"]
        action = Action[obj["a"].upper()]
        state = enc.decode_indices(obj["s"])
        next_state = enc.decode_indices(obj["s_next"])
        meta = obj["meta"]
        fo = _fo_parse(meta.get("front_object"))
        task = meta.get("task")
    except (KeyError, ValueError, TypeError, IndexError) as err:
        raise ParseError(f"bad record: {err}", line=line) from err
    features = enc.encode(state)
    next_features = enc.encode(next_state)
    # A record that breaks a decode precedence rule (say, a real object with
    # colour class 0) decodes to a state that re-encodes to other indices.
    for key, encoded in (("s", features), ("s_next", next_features)):
        if np.flatnonzero(encoded).tolist() != obj[key]:
            raise ParseError(f"non-canonical record: {key!r} re-encodes differently", line=line)
    if kind == "labeled":
        return LabeledTransition(
            tid=tid, state=state, action=action, next_state=next_state,
            features=features, next_features=next_features,
            front_object=fo, task=task)
    if kind == "unlabeled":
        return UnlabeledTransition(
            tid=tid, state=state, next_state=next_state,
            features=features, next_features=next_features, task=task,
            _hidden_action=action, _front_object=fo)
    raise ParseError(f"unknown record kind {kind!r}", line=line)


def load(path) -> ExperimentSplit:
    """Read a split written by :func:`save`; no partial results on error."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty file", line=1)
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as err:
        raise ParseError(f"bad header: {err.msg}", line=1) from err
    if not isinstance(header, dict) or header.get("schema") != SCHEMA:
        raise UnsupportedVersionError(
            f"expected schema {SCHEMA!r}, got {header.get('schema')!r}", line=1
        )
    if header.get("version") != SCHEMA_VERSION:
        raise UnsupportedVersionError(
            f"unsupported version {header.get('version')!r}", line=1
        )
    try:
        env = EnvConfig(**header["env"])
        counts = header["counts"]
        sizes = [counts[k] for k in ("seed_labeled", "pool", "test", "video")]
        revealed = header.get("revealed", [])
    except (KeyError, TypeError) as err:
        raise ParseError(f"bad header: {err}", line=1) from err
    if len(lines) - 1 != sum(sizes):
        raise ParseError(
            f"header promises {sum(sizes)} records but file has {len(lines) - 1}",
            line=len(lines),
        )
    enc = env.encoder()
    records = []
    for i, text in enumerate(lines[1:], start=2):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as err:
            raise ParseError(f"bad record: {err.msg}", line=i) from err
        records.append(_parse_record(obj, enc, i))
    bounds = np.cumsum([0] + sizes)
    seed_part = records[bounds[0]:bounds[1]]
    pool_part = records[bounds[1]:bounds[2]]
    test_part = records[bounds[2]:bounds[3]]
    video_part = records[bounds[3]:bounds[4]]
    for part, want in ((seed_part, LabeledTransition), (pool_part, UnlabeledTransition),
                       (test_part, LabeledTransition), (video_part, UnlabeledTransition)):
        for rec in part:
            if not isinstance(rec, want):
                raise ParseError(
                    f"record id {rec.tid} has the wrong kind for its partition"
                )
    pool = ExplorationPool(pool_part)
    for index in revealed:
        reveal_action(pool, index)
    return ExperimentSplit(
        seed_labeled=seed_part, pool=pool, test=test_part, video=video_part, env=env
    )
