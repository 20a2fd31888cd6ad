"""Builtin grid environments against independently rewritten rules."""

from __future__ import annotations

import pytest

from prunecheck import (
    AvoidanceConfig,
    ConfigError,
    MiniTaxiConfig,
    ModelSyntaxError,
    avoidance,
    from_uri,
    is_builtin_uri,
    mini_taxi,
    validate_model,
)
from prunecheck.environments import AVOIDANCE_ACTIONS, AVOIDANCE_FEATURES, TAXI_ACTIONS, TAXI_FEATURES

from . import oracles

# ===== Configs =====


class TestConfigs:
    def test_taxi_defaults(self):
        cfg = MiniTaxiConfig()
        assert (cfg.width, cfg.height, cfg.max_fuel) == (4, 4, 8)
        assert cfg.station == (0, 0)
        assert cfg.passenger_spawn == (3, 3)
        assert cfg.destination == (3, 0)
        assert cfg.jobs_target == 2

    def test_avoidance_defaults(self):
        cfg = AvoidanceConfig()
        assert (cfg.width, cfg.height) == (3, 3)
        assert cfg.obstacle_start == (2, 2)
        assert cfg.obstacle_move_prob == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"width": 0},
            {"max_fuel": 0},
            {"jobs_target": 0},
            {"station": (9, 0)},
            {"destination": (0, -1)},
        ],
    )
    def test_taxi_rejects_bad_config(self, kwargs):
        with pytest.raises(ConfigError):
            MiniTaxiConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"height": 0},
            {"obstacle_start": (3, 0)},
            {"obstacle_move_prob": 1.5},
            {"obstacle_move_prob": -0.1},
            {"width": 0},
        ],
    )
    def test_avoidance_rejects_bad_config(self, kwargs):
        with pytest.raises(ConfigError):
            AvoidanceConfig(**kwargs)

    def test_config_error_is_a_parse_failure(self):
        assert ConfigError("x").exit_code == 2


# ===== MiniTaxi =====


class TestMiniTaxi:
    def test_schema_and_initial(self):
        env = mini_taxi()
        assert env.feature_schema == TAXI_FEATURES
        assert env.action_schema == TAXI_ACTIONS
        assert env.initial == (0, 0, 8, 0, 0)

    def test_actions_at_station_corner(self):
        env = mini_taxi()
        assert env.available_actions((0, 0, 8, 0, 0)) == ("north", "east", "refuel")

    def test_moves_burn_fuel_and_services_are_free(self):
        env = mini_taxi()
        assert env.successors((0, 0, 8, 0, 0), "east").support == (((1, 0, 7, 0, 0), 1.0),)
        assert env.successors((0, 0, 3, 0, 0), "refuel").support == (((0, 0, 8, 0, 0), 1.0),)
        assert env.successors((3, 3, 5, 0, 0), "pickup").support == (((3, 3, 5, 1, 0), 1.0),)
        assert env.successors((3, 0, 5, 1, 0), "dropoff").support == (((3, 0, 5, 0, 1), 1.0),)

    def test_dropoff_saturates_at_jobs_target(self):
        env = mini_taxi(MiniTaxiConfig(jobs_target=2))
        assert env.successors((3, 0, 5, 1, 2), "dropoff").support == (((3, 0, 5, 0, 2), 1.0),)

    def test_empty_tank_is_absorbing(self):
        env = mini_taxi()
        state = (2, 1, 0, 0, 0)
        assert env.available_actions(state) == TAXI_ACTIONS
        for action in TAXI_ACTIONS:
            assert env.successors(state, action).support == ((state, 1.0),)
        assert "empty" in env.labels(state)

    def test_labels(self):
        env = mini_taxi()
        assert env.labels((0, 0, 8, 0, 0)) == frozenset({"gas_station"})
        assert env.labels((3, 3, 5, 1, 0)) == frozenset({"passenger"})
        assert env.labels((1, 1, 4, 0, 2)) == frozenset({"jobs_done_target"})
        assert env.labels((1, 1, 0, 1, 2)) == frozenset({"empty", "passenger", "jobs_done_target"})

    def test_unavailable_action_rejected(self):
        env = mini_taxi()
        with pytest.raises(ValueError, match="unavailable"):
            env.successors((0, 0, 8, 0, 0), "west")

    @pytest.mark.parametrize(
        "cfg",
        [
            MiniTaxiConfig(),
            MiniTaxiConfig(width=3, height=2, max_fuel=4, jobs_target=1),
            MiniTaxiConfig(width=2, height=2, max_fuel=3, station=(1, 1), jobs_target=3),
        ],
    )
    def test_rules_match_rewritten_oracle(self, cfg):
        env = mini_taxi(cfg)
        reachable = oracles.taxi_reachable(
            cfg.width, cfg.height, cfg.max_fuel, cfg.passenger_spawn,
            cfg.destination, cfg.station, cfg.jobs_target,
        )
        report = validate_model(env)
        assert report.ok
        assert report.reachable == reachable
        for state in reachable:
            expected = oracles.taxi_actions(
                state, cfg.width, cfg.height, cfg.passenger_spawn, cfg.destination, cfg.station
            )
            assert list(env.available_actions(state)) == expected
            for action in expected:
                target = oracles.taxi_step(state, action, cfg.max_fuel, cfg.jobs_target, cfg.station)
                assert env.successors(state, action).support == ((target, 1.0),)

    def test_one_by_one_grid_still_validates(self):
        report = validate_model(mini_taxi(MiniTaxiConfig(width=1, height=1, max_fuel=2)))
        assert report.ok


# ===== Avoidance =====


class TestAvoidance:
    def test_schema_and_initial(self):
        env = avoidance()
        assert env.feature_schema == AVOIDANCE_FEATURES
        assert env.action_schema == AVOIDANCE_ACTIONS
        assert env.initial == (0, 0, 2, 2)

    def test_stay_is_always_available(self):
        env = avoidance()
        assert env.available_actions((0, 0, 2, 2)) == ("north", "east", "stay")
        assert env.available_actions((1, 1, 2, 2)) == ("north", "south", "east", "west", "stay")

    def test_moved_branch_comes_first(self):
        env = avoidance()
        dist = env.successors((0, 0, 2, 2), "east")
        assert dist.support == (((1, 0, 1, 2), 0.5), ((1, 0, 2, 2), 0.5))

    def test_obstacle_prefers_x_axis(self):
        env = avoidance(AvoidanceConfig(obstacle_move_prob=1.0))
        dist = env.successors((0, 0, 2, 2), "stay")
        assert dist.support == (((0, 0, 1, 2), 1.0),)

    def test_obstacle_closes_y_when_x_aligned(self):
        env = avoidance(AvoidanceConfig(obstacle_move_prob=1.0))
        dist = env.successors((0, 0, 0, 2), "stay")
        assert dist.support == (((0, 0, 0, 1), 1.0),)

    def test_deterministic_extremes_merge_branches(self):
        still = avoidance(AvoidanceConfig(obstacle_move_prob=0.0))
        assert still.successors((0, 0, 2, 2), "stay").support == (((0, 0, 2, 2), 1.0),)
        always = avoidance(AvoidanceConfig(obstacle_move_prob=1.0))
        assert always.successors((0, 0, 2, 2), "stay").support == (((0, 0, 1, 2), 1.0),)

    def test_caught_obstacle_stays_with_single_branch(self):
        env = avoidance()
        dist = env.successors((1, 1, 1, 1), "stay")
        assert dist.support == (((1, 1, 1, 1), 1.0),)

    def test_collision_label(self):
        env = avoidance()
        assert env.labels((1, 1, 1, 1)) == frozenset({"collision"})
        assert env.labels((0, 0, 2, 2)) == frozenset()

    def test_agent_moves_before_the_chase_is_resolved(self):
        # Walking into the obstacle's cell is an immediate collision even
        # if the obstacle then stays.
        env = avoidance()
        dist = env.successors((1, 2, 2, 2), "east")
        assert dist.support == (((2, 2, 2, 2), 1.0),)

    @pytest.mark.parametrize(
        "cfg",
        [
            AvoidanceConfig(),
            AvoidanceConfig(width=4, height=2, obstacle_start=(3, 0), obstacle_move_prob=0.25),
            AvoidanceConfig(obstacle_move_prob=1.0),
            AvoidanceConfig(obstacle_move_prob=0.0),
        ],
    )
    def test_rules_match_rewritten_oracle(self, cfg):
        env = avoidance(cfg)
        report = validate_model(env)
        assert report.ok
        for state in report.reachable:
            expected_actions = oracles.avoid_actions(state, cfg.width, cfg.height)
            assert list(env.available_actions(state)) == expected_actions
            for action in expected_actions:
                branches = oracles.avoid_branches(state, action, cfg.obstacle_move_prob)
                assert list(env.successors(state, action).support) == branches

    def test_one_by_one_grid_is_a_permanent_collision(self):
        env = avoidance(AvoidanceConfig(width=1, height=1))
        assert env.initial == (0, 0, 0, 0)
        assert env.available_actions(env.initial) == ("stay",)
        assert "collision" in env.labels(env.initial)


# ===== Memoised action sets =====


def _off_grid_ring(size: int) -> range:
    """Coordinates on a grid axis plus one cell beyond each edge."""
    return range(-1, size + 1)


def _queries_in_both_orders(make_env, states, expected_actions, schema):
    """Query every state on a fresh memo forward, then on another reversed.

    Forward order meets a cell's fuel-0 (and on_board-0) states before the
    others at that cell; the reverse meets them last, so a memo entry cached
    by the first kind of state is read back for the second either way.
    """
    for order in (states, states[::-1]):
        fresh = make_env()
        for state in order:
            expected = expected_actions(state)
            assert list(fresh.available_actions(state)) == expected, state
            for action in schema:
                if action not in expected:
                    with pytest.raises(ValueError, match="unavailable"):
                        fresh.successors(state, action)


class TestMemoisedActionSets:
    @pytest.mark.parametrize(
        "cfg",
        [
            MiniTaxiConfig(width=3, height=3, max_fuel=3),
            MiniTaxiConfig(width=3, height=2, max_fuel=2, jobs_target=1),
            MiniTaxiConfig(width=2, height=2, max_fuel=2, station=(1, 1), passenger_spawn=(1, 1), jobs_target=2),
            MiniTaxiConfig(width=1, height=1, max_fuel=1),
        ],
    )
    def test_taxi_full_feature_product(self, cfg):
        states = [
            (x, y, fuel, on_board, jobs)
            for fuel in range(cfg.max_fuel + 1)
            for on_board in (0, 1)
            for x in _off_grid_ring(cfg.width)
            for y in _off_grid_ring(cfg.height)
            for jobs in range(cfg.jobs_target + 1)
        ]
        _queries_in_both_orders(
            lambda: mini_taxi(cfg),
            states,
            lambda s: oracles.taxi_actions(s, cfg.width, cfg.height, cfg.passenger_spawn, cfg.destination, cfg.station),
            TAXI_ACTIONS,
        )

    @pytest.mark.parametrize(
        "cfg",
        [
            AvoidanceConfig(),
            AvoidanceConfig(width=4, height=2, obstacle_start=(3, 0), obstacle_move_prob=0.25),
            AvoidanceConfig(width=1, height=1),
        ],
    )
    def test_avoidance_full_feature_product(self, cfg):
        states = [
            (ax, ay, ox, oy)
            for ax in _off_grid_ring(cfg.width)
            for ay in _off_grid_ring(cfg.height)
            for ox in _off_grid_ring(cfg.width)
            for oy in _off_grid_ring(cfg.height)
        ]
        _queries_in_both_orders(
            lambda: avoidance(cfg),
            states,
            lambda s: oracles.avoid_actions(s, cfg.width, cfg.height),
            AVOIDANCE_ACTIONS,
        )

    def test_environments_do_not_share_a_memo(self):
        small, large = avoidance(AvoidanceConfig(width=2, height=2)), avoidance(AvoidanceConfig(width=3, height=3))
        assert small.available_actions((1, 1, 0, 0)) == ("south", "west", "stay")
        assert large.available_actions((1, 1, 0, 0)) == ("north", "south", "east", "west", "stay")


# ===== URIs =====


class TestFromUri:
    def test_recognizer(self):
        assert is_builtin_uri("builtin:mini_taxi")
        assert not is_builtin_uri("model.json")

    def test_defaults_match_direct_construction(self):
        for uri, direct in [("builtin:mini_taxi", mini_taxi()), ("builtin:avoidance", avoidance())]:
            env = from_uri(uri)
            assert env.feature_schema == direct.feature_schema
            assert env.action_schema == direct.action_schema
            assert env.initial == direct.initial
            state = env.initial
            assert env.available_actions(state) == direct.available_actions(state)
            for action in env.available_actions(state):
                assert env.successors(state, action) == direct.successors(state, action)

    def test_query_parameters_are_applied(self):
        env = from_uri("builtin:avoidance?width=4&obstacle_start=3,0&obstacle_move_prob=1/4")
        assert env.initial == (0, 0, 3, 0)
        dist = env.successors((0, 0, 3, 0), "stay")
        assert dist.support == (((0, 0, 2, 0), 0.25), ((0, 0, 3, 0), 0.75))

    def test_taxi_query_parameters(self):
        env = from_uri("builtin:mini_taxi?width=2&height=2&max_fuel=3&station=1,1")
        assert env.initial == (1, 1, 3, 0, 0)

    @pytest.mark.parametrize(
        "uri",
        [
            "builtin:warehouse",
            "builtin:mini_taxi?speed=3",
            "builtin:mini_taxi?width=2&width=3",
            "builtin:mini_taxi?width=fast",
            "builtin:avoidance?obstacle_start=1",
            "builtin:avoidance?obstacle_move_prob=often",
            "builtin:avoidance?obstacle_move_prob=1e400",
            "file:whatever",
        ],
    )
    def test_malformed_uris_are_syntax_errors(self, uri):
        with pytest.raises(ModelSyntaxError):
            from_uri(uri)

    @pytest.mark.parametrize(
        "uri, message",
        [
            ("file:whatever", "not a builtin URI: 'file:whatever'"),
            ("builtin:warehouse", "unknown builtin environment 'warehouse'"),
            ("builtin:warehouse?speed=3", "unknown builtin environment 'warehouse'"),
            ("builtin:warehouse?a=1&a=2", "repeated query parameter in 'builtin:warehouse?a=1&a=2'"),
            ("builtin://avoidance", "unknown builtin environment ''"),
            ("builtin:mini_taxi?speed=3", "unknown mini_taxi parameters ['speed']"),
            ("builtin:avoidance?max_fuel=3&speed=1", "unknown avoidance parameters ['max_fuel', 'speed']"),
            ("builtin:mini_taxi?width=2&width=3", "repeated query parameter in 'builtin:mini_taxi?width=2&width=3'"),
            ("builtin:mini_taxi?width=fast", "query parameter width='fast': expected an integer"),
            ("builtin:avoidance?width=", "query parameter width='': expected an integer"),
            ("builtin:mini_taxi?jobs_target=x&station=y", "query parameter jobs_target='x': expected an integer"),
            ("builtin:mini_taxi?station=y&jobs_target=x", "query parameter jobs_target='x': expected an integer"),
            ("builtin:avoidance?obstacle_start=x&width=y", "query parameter width='y': expected an integer"),
            ("builtin:mini_taxi?station=1,2,3", "query parameter station='1,2,3': expected 'x,y'"),
            ("builtin:mini_taxi?station=a,1", "query parameter station='a': expected an integer"),
            ("builtin:avoidance?obstacle_start=1", "query parameter obstacle_start='1': expected 'x,y'"),
            (
                "builtin:avoidance?obstacle_move_prob=often",
                "query parameter obstacle_move_prob='often': expected a probability",
            ),
            ("builtin:avoidance?obstacle_move_prob=1/0", "query parameter obstacle_move_prob='1/0': expected a probability"),
            (
                "builtin:avoidance?obstacle_move_prob=1e400",
                "query parameter obstacle_move_prob='1e400': expected a probability",
            ),
        ],
    )
    def test_malformed_uri_message(self, uri, message):
        with pytest.raises(ModelSyntaxError) as exc:
            from_uri(uri)
        assert str(exc.value) == message

    def test_valid_syntax_bad_value_is_config_error(self):
        with pytest.raises(ConfigError):
            from_uri("builtin:avoidance?obstacle_start=9,9")
