"""Dataset construction, splitting, composition filtering, persistence."""

import collections
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from wavlab.datasets import (
    CompositionTable,
    Coverage,
    EnvConfig,
    SplitConfig,
    apply_composition_filter,
    build_split,
    collect_random_play,
    collect_task_play,
    default_composition_table,
    load,
    peek_hidden_action,
    reveal_action,
    save,
    _interaction_object,
)
from wavlab.errors import (
    InsufficientDataError,
    ParseError,
    RevealError,
    UnsupportedVersionError,
)
from wavlab.gridworld import Action, Color, ObjectKind, generate_layout, step
from wavlab.tasks import TASKS, TaskPolicy, task_layout


ENV = EnvConfig(width=6, height=6, n_objects=4, n_noisy_floors=0, horizon=40)


@pytest.fixture(scope="module")
def task_data():
    return collect_task_play(ENV, 4000, np.random.default_rng(8))


@pytest.fixture(scope="module")
def split_source():
    return collect_task_play(ENV, 3000, np.random.default_rng(9))


class TestCollectRandomPlay:
    def test_zero_transitions(self):
        assert collect_random_play(ENV, 0, np.random.default_rng(0)) == []

    def test_exact_count_and_chaining(self):
        data = collect_random_play(ENV, 95, np.random.default_rng(1))
        assert len(data) == 95
        for a, b in zip(data, data[1:]):
            if b.tid % ENV.horizon != 0:  # same episode
                assert a.next_state == b.state

    def test_action_histogram_uniform(self):
        # Chi-squared against the uniform-policy null at the 1% level.
        data = collect_random_play(EnvConfig(n_objects=6), 1000, np.random.default_rng(2))
        counts = collections.Counter(int(t.action) for t in data)
        expected = 1000 / 7
        chi2 = sum((counts.get(a, 0) - expected) ** 2 / expected for a in range(7))
        assert chi2 < stats.chi2.ppf(0.99, df=6)

    def test_same_seed_identical(self):
        a = collect_random_play(ENV, 60, np.random.default_rng(3))
        b = collect_random_play(ENV, 60, np.random.default_rng(3))
        assert all(x.state == y.state and x.action == y.action for x, y in zip(a, b))

    def test_features_match_states(self):
        enc = ENV.encoder()
        data = collect_random_play(ENV, 30, np.random.default_rng(4))
        for t in data:
            assert np.array_equal(t.features, enc.encode(t.state))
            assert np.array_equal(t.next_features, enc.encode(t.next_state))


class TestCollectTaskPlay:
    def test_interaction_rich(self):
        data = collect_task_play(ENV, 1500, np.random.default_rng(5))
        rate = sum(t.front_object is not None for t in data) / len(data)
        assert rate > 0.08

    def test_tasks_cycle(self):
        data = collect_task_play(ENV, 130, np.random.default_rng(6))
        assert {t.task for t in data} == {
            "key-delivery", "ball-delivery", "object-matching"
        } & {t.task for t in data}
        assert data[0].task == "key-delivery"

    def test_deterministic(self):
        a = collect_task_play(ENV, 100, np.random.default_rng(7))
        b = collect_task_play(ENV, 100, np.random.default_rng(7))
        assert all(x.state == y.state and x.action == y.action for x, y in zip(a, b))


def _reference_play(env, n, rng, episode):
    """The per-step collection loop written out: a fresh episode from
    ``episode(k)`` every horizon, then an action and a ``step`` per step."""
    enc = env.encoder()
    out = []
    while len(out) < n:
        current, policy, task = episode(len(out) // env.horizon)
        for _ in range(min(env.horizon, n - len(out))):
            action = policy(current)
            nxt = step(current, action, rng)
            out.append((len(out), action, enc.active_indices(current), enc.active_indices(nxt),
                        _interaction_object(current, action, nxt), task))
            current = nxt
    return out


def _reference_random_play(env, n, rng):
    def episode(k):
        layout = generate_layout(env.width, env.height, env.n_objects, env.n_noisy_floors,
                                 rng, floor_palette=env.floor_palette)
        return layout, lambda s: Action(int(rng.integers(len(Action)))), None
    return _reference_play(env, n, rng, episode)


def _reference_task_play(env, n, rng):
    def episode(k):
        task = TASKS[k % len(TASKS)]
        layout = task_layout(env.width, env.height, max(env.n_objects, 3), env.n_noisy_floors,
                             rng, floor_palette=env.floor_palette)
        return layout, TaskPolicy(task, rng).next_action, task
    return _reference_play(env, n, rng, episode)


def _observed(data):
    return [(t.tid, t.action, np.flatnonzero(t.features).tolist(),
             np.flatnonzero(t.next_features).tolist(), t.front_object, t.task) for t in data]


@pytest.mark.parametrize("collect, reference", [
    (collect_random_play, _reference_random_play),
    (collect_task_play, _reference_task_play),
], ids=["random", "task"])
@settings(max_examples=15)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 130), noisy=st.integers(0, 2))
def test_collection_matches_reference_loop(collect, reference, seed, n, noisy):
    env = EnvConfig(width=5, height=5, n_objects=3, n_noisy_floors=noisy, horizon=40)
    got = _observed(collect(env, n, np.random.default_rng(seed)))
    assert got == reference(env, n, np.random.default_rng(seed))


class TestCompositionTable:
    def test_default_matches_published_markings(self):
        table = default_composition_table()
        KEY, BALL = ObjectKind.KEY, ObjectKind.BALL
        RED, BLUE = Color.RED, Color.BLUE
        assert table.classify(Action.PICKUP, KEY, BLUE) is Coverage.SEEN
        assert table.classify(Action.PICKUP, BALL, BLUE) is Coverage.OOS_ONLY
        assert table.classify(Action.PICKUP, KEY, RED) is Coverage.ABSENT
        assert table.classify(Action.DROP, KEY, RED) is Coverage.OOS_ONLY
        assert table.classify(Action.DROP, BALL, RED) is Coverage.SEEN
        assert table.classify(Action.TOGGLE, KEY, RED) is Coverage.OOS_ONLY
        assert table.classify(Action.TOGGLE, BALL, RED) is Coverage.SEEN
        assert table.classify(Action.SWAP, KEY, RED) is Coverage.OOS_ONLY
        assert table.classify(Action.SWAP, BALL, RED) is Coverage.SEEN

    def test_boxes_always_seen(self):
        table = default_composition_table()
        for action in (Action.PICKUP, Action.DROP, Action.TOGGLE, Action.SWAP):
            for color in Color:
                assert table.classify(action, ObjectKind.BOX, color) is Coverage.SEEN

    def test_total_classification_required(self):
        with pytest.raises(Exception):
            CompositionTable(entries={})


class TestCompositionFilter:
    def test_all_seen_keeps_everything(self, task_data):
        table = default_composition_table()
        entries = {k: Coverage.SEEN for k in table.entries}
        train, oos = apply_composition_filter(task_data, CompositionTable(entries=entries))
        assert len(train) == len(task_data) and not oos

    def test_partition_counts(self, task_data):
        table = default_composition_table()
        train, oos = apply_composition_filter(task_data, table)
        dropped = len(task_data) - len(train) - len(oos)
        assert dropped >= 0
        assert len(train) + len(oos) + dropped == len(task_data)

    def test_movement_always_in_train(self, task_data):
        table = default_composition_table()
        train, oos = apply_composition_filter(task_data, table)
        for t in oos:
            assert t.action in (Action.PICKUP, Action.DROP, Action.TOGGLE, Action.SWAP)
            assert t.front_object is not None

    def test_oos_part_matches_markings(self, task_data):
        table = default_composition_table()
        _, oos = apply_composition_filter(task_data, table)
        assert oos, "expected some out-of-support interactions"
        for t in oos:
            kind, color = t.front_object
            assert table.classify(t.action, kind, color) is Coverage.OOS_ONLY


class TestBuildSplit:
    def test_sizes(self, split_source, small_env):
        config = SplitConfig(seed_size=200, pool_size=800, test_size=140, video_size=1500)
        split = build_split(split_source, config, np.random.default_rng(10), ENV)
        assert len(split.seed_labeled) == 200
        assert len(split.pool) == 800
        assert len(split.test) == 140
        assert len(split.video) == 1500

    def test_test_is_action_balanced(self, split_source):
        config = SplitConfig(seed_size=100, pool_size=500, test_size=140, video_size=1000)
        split = build_split(split_source, config, np.random.default_rng(11), ENV)
        counts = collections.Counter(int(t.action) for t in split.test)
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_disjoint_ids(self, split_source):
        config = SplitConfig(seed_size=150, pool_size=600, test_size=140, video_size=1200)
        split = build_split(split_source, config, np.random.default_rng(12), ENV)
        ids = [t.tid for t in split.seed_labeled] + [u.tid for u in split.pool.items]
        ids += [t.tid for t in split.test] + [u.tid for u in split.video]
        assert len(ids) == len(set(ids))

    def test_insufficient_source_names_partition(self, split_source):
        config = SplitConfig(seed_size=100, pool_size=50, test_size=70, video_size=10**6)
        with pytest.raises(InsufficientDataError, match="video"):
            build_split(split_source, config, np.random.default_rng(13), ENV)

    def test_insufficient_action_for_test(self):
        data = collect_task_play(ENV, 300, np.random.default_rng(14))
        config = SplitConfig(seed_size=10, pool_size=10, test_size=299, video_size=10)
        with pytest.raises(InsufficientDataError, match="test"):
            build_split(data, config, np.random.default_rng(15), ENV)


class TestRevealAction:
    def test_reveal_matches_hidden(self, small_split):
        split = small_split.fresh_copy()
        got = reveal_action(split.pool, 3)
        assert got.action is peek_hidden_action(split.pool.items[3])
        assert got.tid == split.pool.items[3].tid

    def test_double_reveal_rejected(self, small_split):
        split = small_split.fresh_copy()
        reveal_action(split.pool, 0)
        with pytest.raises(RevealError):
            reveal_action(split.pool, 0)

    def test_budget_counter(self, small_split):
        split = small_split.fresh_copy()
        for k in range(5):
            reveal_action(split.pool, k)
            assert split.pool.reveals == k + 1

    def test_out_of_range(self, small_split):
        split = small_split.fresh_copy()
        with pytest.raises(RevealError):
            reveal_action(split.pool, len(split.pool))


def _colour_class_zero(s, enc):
    """The first object's colour index moved to class 0."""
    n = len(enc.cells)
    i = next(i for i in range(n) if s[i] != enc.group_starts[i])
    return s[:n + i] + [int(enc.group_starts[n + i])] + s[n + i + 1:]


def _first_index_as_bool(s, enc):
    """The first index, 0 or 1, written as a JSON boolean."""
    assert s[0] in (0, 1)
    return [bool(s[0])] + s[1:]


class TestPersistence:
    def test_round_trip_bytes(self, small_split, tmp_path):
        path = tmp_path / "split.wavsplit"
        save(small_split, path)
        first = path.read_bytes()
        loaded = load(path)
        path2 = tmp_path / "again.wavsplit"
        save(loaded, path2)
        assert path2.read_bytes() == first

    def test_round_trip_preserves_content(self, small_split, tmp_path):
        path = tmp_path / "split.wavsplit"
        save(small_split, path)
        loaded = load(path)
        assert len(loaded.seed_labeled) == len(small_split.seed_labeled)
        for a, b in zip(loaded.seed_labeled, small_split.seed_labeled):
            assert a.tid == b.tid and a.action == b.action
            assert a.state == b.state and a.next_state == b.next_state
            assert a.front_object == b.front_object and a.task == b.task
        for a, b in zip(loaded.pool.items, small_split.pool.items):
            assert peek_hidden_action(a) == peek_hidden_action(b)

    def test_reveal_ledger_round_trips(self, small_split, tmp_path):
        split = small_split.fresh_copy()
        reveal_action(split.pool, 2)
        reveal_action(split.pool, 5)
        path = tmp_path / "split.wavsplit"
        save(split, path)
        loaded = load(path)
        assert loaded.pool.revealed_indices() == [2, 5]

    def test_truncated_file_rejected(self, small_split, tmp_path):
        path = tmp_path / "split.wavsplit"
        save(small_split, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(ParseError):
            load(path)

    def test_version_mismatch_rejected(self, small_split, tmp_path):
        path = tmp_path / "split.wavsplit"
        save(small_split, path)
        text = path.read_text().replace('"version":1', '"version":99', 1)
        path.write_text(text)
        with pytest.raises(UnsupportedVersionError):
            load(path)

    def test_malformed_record_reports_line(self, small_split, tmp_path):
        path = tmp_path / "split.wavsplit"
        save(small_split, path)
        lines = path.read_text().splitlines()
        lines[4] = lines[4][:-5]  # truncate one record mid-JSON
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 5"):
            load(path)

    @pytest.mark.parametrize("corrupt", [
        lambda s, enc: s[:3] + s[4:],  # one group's index missing
        lambda s, enc: [-1] + s[1:],  # negative index
        lambda s, enc: s[:4] + [s[3]] + s[5:],  # an index duplicated over its neighbour
        _colour_class_zero,  # a real object with colour class 0 decodes as red
        _first_index_as_bool,  # true == 1 and false == 0 in a list comparison
    ], ids=["missing", "negative", "duplicated", "noncanonical", "bool"])
    def test_corrupt_active_indices_report_line(self, small_split, tmp_path, corrupt):
        path = tmp_path / "split.wavsplit"
        save(small_split, path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[4])
        record["s"] = corrupt(record["s"], small_split.encoder())
        lines[4] = json.dumps(record, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 5"):
            load(path)

    @pytest.mark.parametrize("line, keys, value", [
        (5, ("a",), 5),
        (5, ("meta",), []),
        (5, ("meta", "front_object"), 5),
        (5, ("id",), "x"),
        (5, ("meta", "task"), 7),
        (1, ("revealed",), ["0"]),
        (1, ("env", "width"), "5"),
        (1, ("counts", "pool"), "10"),
    ], ids=["action", "meta", "front-object", "id", "task", "revealed", "width", "count"])
    def test_mistyped_field_reports_line(self, small_split, tmp_path, line, keys, value):
        path = tmp_path / "split.wavsplit"
        save(small_split, path)
        lines = path.read_text().splitlines()
        obj = json.loads(lines[line - 1])
        *parents, last = keys
        target = obj
        for key in parents:
            target = target[key]
        target[last] = value
        lines[line - 1] = json.dumps(obj, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"^line {line}: "):
            load(path)


# Any JSON value a mutation may put in place of another. Integers stay small
# so a mutated grid size builds a small encoder.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 60) | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=4,
)


def _paths(obj, prefix=()):
    """Every key path into a parsed JSON value, the value itself first."""
    yield prefix
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _paths(value, prefix + (key,))


@pytest.fixture(scope="module")
def tiny_split_file(tmp_path_factory):
    env = EnvConfig(width=5, height=5, n_objects=3, n_noisy_floors=1, horizon=30)
    source = collect_task_play(env, 300, np.random.default_rng(10))
    split = build_split(source, SplitConfig(seed_size=4, pool_size=5, test_size=7,
                                            video_size=3), np.random.default_rng(10), env)
    reveal_action(split.pool, 1)
    path = tmp_path_factory.mktemp("fuzz") / "split.wavsplit"
    save(split, path)
    return path


@given(data=st.data())
def test_mutated_line_fails_on_that_line_or_loads(tiny_split_file, data):
    """Mutate one field of one line: loading raises ParseError naming that line
    (any line for the header, which says how every record reads) or succeeds."""
    lines = tiny_split_file.read_text().splitlines()
    index = data.draw(st.integers(0, len(lines) - 1), label="line index")
    obj = json.loads(lines[index])
    keys = data.draw(st.sampled_from(list(_paths(obj))), label="keys")
    delete = bool(keys) and data.draw(st.booleans(), label="delete")
    value = None if delete else data.draw(_JSON, label="value")
    if not keys:
        obj = value
    else:
        target = obj
        for key in keys[:-1]:
            target = target[key]
        if delete:
            del target[keys[-1]]
        else:
            target[keys[-1]] = value
    lines[index] = json.dumps(obj, separators=(",", ":"))
    mutated = tiny_split_file.with_name("mutated.wavsplit")
    mutated.write_text("\n".join(lines) + "\n")
    try:
        load(mutated)
    except ParseError as err:
        assert err.line is not None
        if index > 0:
            assert err.line == index + 1, str(err)


@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1), source=st.sampled_from(["task", "random"]),
       reveals=st.lists(st.integers(0, 5), unique=True, max_size=3))
def test_split_save_load_save_is_byte_identical(tmp_path_factory, seed, source, reveals):
    env = EnvConfig(width=5, height=5, n_objects=3, n_noisy_floors=1, horizon=30)
    collect = collect_task_play if source == "task" else collect_random_play
    rng = np.random.default_rng(seed)
    split = build_split(collect(env, 300, rng), SplitConfig(seed_size=4, pool_size=6, test_size=7,
                                                           video_size=3), rng, env)
    for index in reveals:
        reveal_action(split.pool, index)
    first = tmp_path_factory.mktemp("split") / "split.wavsplit"
    save(split, first)
    again = first.with_name("again.wavsplit")
    save(load(first), again)
    assert again.read_bytes() == first.read_bytes()
