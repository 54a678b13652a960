"""Environment semantics: action effects, invariants, encoding round trips."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wavlab.datasets import EnvConfig, collect_random_play
from wavlab.errors import ConfigError
from wavlab.gridworld import (
    Action,
    AgentState,
    Color,
    Encoder,
    GridObject,
    GridState,
    ObjectKind,
    changed_elements,
    element_value,
    front_pos,
    generate_layout,
    object_multiset,
    states_equal_ignoring_floors,
    step,
    validate_state,
)


def make_state(cells=None, agent_pos=(2, 2), agent_dir=0, carried=None,
               floors=None, width=6, height=6):
    return GridState(
        width=width,
        height=height,
        cells=cells or {},
        noisy_floors=floors or {},
        agent=AgentState(pos=agent_pos, dir=agent_dir, carried=carried),
    )


def red(kind):
    return GridObject(kind=kind, color=Color.RED)


def blue(kind):
    return GridObject(kind=kind, color=Color.BLUE)


class TestStepSemantics:
    def test_turns_rotate_direction(self):
        s = make_state(agent_dir=0)
        assert step(s, Action.TURN_RIGHT).agent.dir == 1
        assert step(s, Action.TURN_LEFT).agent.dir == 3

    def test_forward_moves_into_free_cell(self):
        s = make_state(agent_pos=(2, 2), agent_dir=0)
        assert step(s, Action.FORWARD).agent.pos == (3, 2)

    def test_forward_blocked_by_wall_is_noop(self):
        s = make_state(agent_pos=(4, 2), agent_dir=0, width=6)
        assert step(s, Action.FORWARD).agent.pos == (4, 2)

    def test_forward_blocked_by_object(self):
        s = make_state(cells={(3, 2): red(ObjectKind.BALL)}, agent_pos=(2, 2), agent_dir=0)
        assert step(s, Action.FORWARD).agent.pos == (2, 2)

    def test_forward_onto_noisy_floor_allowed(self):
        s = make_state(agent_pos=(2, 2), agent_dir=0, floors={(3, 2): 1})
        assert step(s, Action.FORWARD, np.random.default_rng(0)).agent.pos == (3, 2)

    def test_toggle_flips_front_key_color(self):
        # A red key in front becomes a blue key.
        s = make_state(cells={(3, 2): red(ObjectKind.KEY)}, agent_dir=0)
        s2 = step(s, Action.TOGGLE)
        assert s2.cells[(3, 2)] == blue(ObjectKind.KEY)

    def test_toggle_twice_restores_color(self):
        s = make_state(cells={(3, 2): blue(ObjectKind.BALL)}, agent_dir=0)
        assert step(step(s, Action.TOGGLE), Action.TOGGLE) == s

    def test_toggle_box_exchanges_carried_and_contents(self):
        # Hand-simulated box exchange: carried red ball in, blue key out.
        box = GridObject(ObjectKind.BOX, Color.RED, contents=blue(ObjectKind.KEY))
        s = make_state(cells={(3, 2): box}, carried=red(ObjectKind.BALL), agent_dir=0)
        s2 = step(s, Action.TOGGLE)
        assert s2.agent.carried == blue(ObjectKind.KEY)
        assert s2.cells[(3, 2)] == GridObject(
            ObjectKind.BOX, Color.RED, contents=red(ObjectKind.BALL)
        )

    def test_toggle_box_deposit_and_withdraw(self):
        box = GridObject(ObjectKind.BOX, Color.BLUE)
        s = make_state(cells={(3, 2): box}, carried=red(ObjectKind.KEY), agent_dir=0)
        deposited = step(s, Action.TOGGLE)
        assert deposited.agent.carried is None
        assert deposited.cells[(3, 2)].contents == red(ObjectKind.KEY)
        withdrawn = step(deposited, Action.TOGGLE)
        assert withdrawn.agent.carried == red(ObjectKind.KEY)
        assert withdrawn.cells[(3, 2)].contents is None

    def test_toggle_box_with_carried_box_is_noop(self):
        # Nesting depth stays 1: a carried box never enters a box.
        s = make_state(
            cells={(3, 2): GridObject(ObjectKind.BOX, Color.RED)},
            carried=GridObject(ObjectKind.BOX, Color.BLUE),
            agent_dir=0,
        )
        assert step(s, Action.TOGGLE) == s

    def test_pickup_and_drop(self):
        s = make_state(cells={(3, 2): red(ObjectKind.BALL)}, agent_dir=0)
        picked = step(s, Action.PICKUP)
        assert picked.agent.carried == red(ObjectKind.BALL)
        assert (3, 2) not in picked.cells
        dropped = step(picked, Action.DROP)
        assert dropped == s

    def test_pickup_with_full_hands_is_noop(self):
        s = make_state(cells={(3, 2): red(ObjectKind.BALL)},
                       carried=blue(ObjectKind.KEY), agent_dir=0)
        assert step(s, Action.PICKUP) == s

    def test_drop_onto_noisy_floor_is_noop(self):
        s = make_state(carried=red(ObjectKind.KEY), agent_dir=0, floors={(3, 2): 0})
        s2 = step(s, Action.DROP, np.random.default_rng(0))
        assert s2.agent.carried == red(ObjectKind.KEY)
        assert (3, 2) not in s2.cells

    def test_swap_exchanges_front_and_carried(self):
        s = make_state(cells={(3, 2): red(ObjectKind.BALL)},
                       carried=blue(ObjectKind.KEY), agent_dir=0)
        s2 = step(s, Action.SWAP)
        assert s2.cells[(3, 2)] == blue(ObjectKind.KEY)
        assert s2.agent.carried == red(ObjectKind.BALL)
        assert step(s2, Action.SWAP) == s

    def test_swap_with_empty_hands_is_noop(self):
        s = make_state(cells={(3, 2): red(ObjectKind.BALL)}, agent_dir=0)
        assert step(s, Action.SWAP) == s

    def test_noisy_floors_resample_on_noop(self):
        rng = np.random.default_rng(5)
        floors = {(2, 3): 0, (4, 4): 1}
        s = make_state(agent_dir=3, floors=floors)  # facing the wall side
        seen = set()
        for _ in range(30):
            s = step(s, Action.PICKUP, rng)  # always a no-op apart from floors
            seen.add(tuple(sorted(s.noisy_floors.items())))
            assert s.agent == make_state(agent_dir=3).agent
        assert len(seen) > 1

    def test_step_without_rng_requires_no_floors(self):
        s = make_state(floors={(2, 3): 0})
        with pytest.raises(ValueError):
            step(s, Action.TURN_LEFT)


class TestGridObject:
    def test_contents_only_in_boxes(self):
        with pytest.raises(ValueError):
            GridObject(ObjectKind.KEY, Color.RED, contents=red(ObjectKind.BALL))

    def test_no_nested_boxes(self):
        with pytest.raises(ValueError):
            GridObject(ObjectKind.BOX, Color.RED,
                       contents=GridObject(ObjectKind.BOX, Color.BLUE))

    def test_color_toggle_involution(self):
        assert Color.RED.toggled() is Color.BLUE
        assert Color.BLUE.toggled() is Color.RED


class TestGenerateLayout:
    def test_empty_layout_has_only_agent(self):
        s = generate_layout(6, 6, 0, 0, np.random.default_rng(0))
        assert not s.cells and not s.noisy_floors
        validate_state(s)

    def test_object_count_and_distinct_cells(self):
        s = generate_layout(10, 10, 6, 0, np.random.default_rng(1))
        assert len(s.cells) == 6
        assert s.agent.pos not in s.cells
        validate_state(s)
        assert len(object_multiset(s)) == 6

    def test_same_seed_same_layout(self):
        a = generate_layout(8, 8, 5, 2, np.random.default_rng(7))
        b = generate_layout(8, 8, 5, 2, np.random.default_rng(7))
        assert a == b

    def test_capacity_error(self):
        with pytest.raises(ConfigError):
            generate_layout(4, 4, 4, 0, np.random.default_rng(0))

    def test_boxes_start_empty(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = generate_layout(8, 8, 8, 0, rng)
            for obj in s.cells.values():
                assert obj.contents is None


class TestChangedElements:
    def test_identical_states_change_nothing(self):
        s = make_state(cells={(3, 2): red(ObjectKind.KEY)})
        assert changed_elements(s, s) == set()

    def test_turn_changes_exactly_dir(self):
        s = generate_layout(8, 8, 6, 0, np.random.default_rng(2))
        assert changed_elements(s, step(s, Action.TURN_LEFT)) == {("agent", "dir")}

    def test_toggle_changes_exactly_front_cell(self):
        s = make_state(cells={(3, 2): red(ObjectKind.KEY)}, agent_dir=0)
        assert changed_elements(s, step(s, Action.TOGGLE)) == {("cell", 3, 2)}

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            changed_elements(make_state(width=6, height=6), make_state(width=8, height=8))

    def test_element_value_reads_floors(self):
        s = make_state(floors={(2, 3): 2})
        assert element_value(s, ("cell", 2, 3)) == ("floor", 2)
        assert element_value(s, ("cell", 3, 3)) is None


class TestEncoder:
    def test_groups_are_one_hot(self, small_encoder):
        s = generate_layout(6, 6, 4, 0, np.random.default_rng(4))
        vec = small_encoder.encode(s)
        for g in small_encoder.groups:
            assert vec[g.start:g.stop].sum() == 1.0

    def test_round_trip_many_random_states(self):
        # decode is the designated oracle for encode.
        enc = Encoder(7, 6, 3)
        rng = np.random.default_rng(5)
        for _ in range(1000):
            s = generate_layout(7, 6, 5, 2, rng, floor_palette=3)
            for _ in range(3):
                s = step(s, Action(int(rng.integers(7))), rng)
            assert enc.decode(enc.encode(s)) == s
            assert enc.decode_indices(enc.active_indices(s)) == s

    def test_agent_features_are_the_last_six_groups(self, small_encoder):
        names = [("agent_pos",), ("agent_dir",), ("carried_kind",), ("carried_color",),
                 ("carried_contents_kind",), ("carried_contents_color",)]
        expected = [i for name in names for i in range(small_encoder.group(name).start,
                                                           small_encoder.group(name).stop)]
        assert small_encoder.agent_feature_indices().tolist() == expected

    def test_group_argmax_matches_per_group_loop(self):
        enc = Encoder(7, 6, 3)
        rows = np.random.default_rng(7).integers(0, 3, size=(20, enc.n_features)).astype(float)
        # Small integer values tie often; ties go to the lowest class.
        expected = np.array([[np.argmax(r[g.start:g.stop]) for g in enc.groups] for r in rows])
        assert np.array_equal(enc.group_argmax(rows), expected)
        assert np.array_equal(enc.group_argmax(rows[3]), expected[3])

    def test_dir_difference_localized(self, small_encoder):
        s = make_state(agent_dir=0)
        s2 = make_state(agent_dir=2)
        diff = np.flatnonzero(small_encoder.encode(s) != small_encoder.encode(s2))
        g = small_encoder.group(("agent_dir",))
        assert set(diff) <= set(range(g.start, g.stop))

    def test_fixed_length_across_layouts(self, small_encoder):
        rng = np.random.default_rng(6)
        a = generate_layout(6, 6, 2, 0, rng)
        b = generate_layout(6, 6, 4, 3, rng)
        assert len(small_encoder.encode(a)) == len(small_encoder.encode(b))

    def test_shape_mismatch_raises(self, small_encoder):
        with pytest.raises(ValueError):
            small_encoder.encode(make_state(width=8, height=8, agent_pos=(5, 5)))


class TestProperties:
    """Seeded property sweeps over random states and actions."""

    def test_determinism_and_conservation(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            s = generate_layout(7, 7, 6, 2, rng, floor_palette=3)
            seed = int(rng.integers(2**32))
            r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(25):
                a = Action(int(rng.integers(7)))
                n1, n2 = step(s, a, r1), step(s, a, r2)
                assert n1 == n2
                kinds = sorted(k for k, _ in object_multiset(s))
                assert kinds == sorted(k for k, _ in object_multiset(n1))
                s = n1

    def test_pure_function_without_floors(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            s = generate_layout(6, 6, 5, 0, rng)
            a = Action(int(rng.integers(7)))
            assert step(s, a) == step(s, a)

    def test_floor_colors_do_not_affect_rest(self):
        # Insulation: states differing only in floor colors step identically
        # outside the floors.
        rng = np.random.default_rng(10)
        for _ in range(40):
            s = generate_layout(7, 7, 5, 3, rng)
            recolored = GridState(
                width=s.width, height=s.height, cells=s.cells,
                noisy_floors={p: (c + 1) % s.floor_palette for p, c in s.noisy_floors.items()},
                agent=s.agent, floor_palette=s.floor_palette,
            )
            a = Action(int(rng.integers(7)))
            n1 = step(s, a, np.random.default_rng(0))
            n2 = step(recolored, a, np.random.default_rng(0))
            assert states_equal_ignoring_floors(n1, n2)
            assert n1.cells == n2.cells and n1.agent == n2.agent


def _random_play_states(seed: int, n_noisy_floors: int):
    """A crowded grid, so random play boxes and carries objects often."""
    env = EnvConfig(width=5, height=5, n_objects=5, n_noisy_floors=n_noisy_floors,
                    floor_palette=3, horizon=60)
    data = collect_random_play(env, 120, np.random.default_rng(seed))
    return env.encoder(), [t.state for t in data] + [data[-1].next_state]


@given(seed=st.integers(0, 2**32 - 1), n_noisy_floors=st.integers(0, 2))
def test_encoder_bijection_on_random_play(seed, n_noisy_floors):
    enc, states = _random_play_states(seed, n_noisy_floors)
    for s in states:
        classes = enc.classes(s)
        assert enc.decode_classes(classes) == s
        assert enc.active_indices(s) == (enc.group_starts + classes).tolist()
        assert enc.decode_indices(enc.active_indices(s)) == s


def test_random_play_states_box_and_carry_objects():
    # The bijection property above is not vacuous: random play reaches noisy
    # floors, boxed contents and carried objects.
    _, states = _random_play_states(0, 2)
    assert all(s.noisy_floors for s in states)
    assert any(o.contents is not None for s in states for o in s.cells.values())
    assert any(s.agent.carried is not None for s in states)
