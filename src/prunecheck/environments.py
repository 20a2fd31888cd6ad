"""Builtin grid environments served behind ``builtin:`` URIs.

Two small factored MDPs with deliberately simple rules:

``mini_taxi``
    A taxi on a grid ferries passengers from a fixed spawn cell to a fixed
    destination, burning one unit of fuel per move and refuelling at a
    station. An empty tank is absorbing: every action self-loops.

``avoidance``
    An agent dodges a pursuing obstacle. Each tick the agent moves first,
    then the obstacle steps one cell toward the agent's new position with a
    configured probability (x axis first when both axes would close the
    distance), otherwise it stays put. The agent starts at (0, 0).

Both are deterministic functions of their config: equal configs give
environments with identical behavior, distribution order included.

Each environment memoises its action sets with ``functools.cache`` on a
function defined inside its factory, so no two environments share a cache.
The cached function takes exactly the inputs its rule reads: the agent's
cell for ``avoidance``; the cab's cell, whether the tank is empty and
``on_board`` for ``mini_taxi``. An entry is computed the first time its key
is asked for and kept for the environment's lifetime, so ``successors``
rejects an unavailable action by a cache lookup instead of re-deriving the
set.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from urllib.parse import parse_qsl, urlsplit

from .errors import ConfigError, ModelSyntaxError
from .model import Distribution, EnvironmentModel, StateVector

# ===== Schemas =====

TAXI_FEATURES = ("x", "y", "fuel", "on_board", "jobs_done")
TAXI_ACTIONS = ("north", "south", "east", "west", "pickup", "dropoff", "refuel")

AVOIDANCE_FEATURES = ("ax", "ay", "ox", "oy")
AVOIDANCE_ACTIONS = ("north", "south", "east", "west", "stay")

# Grid displacement per move action, as (dx, dy) with north increasing y.
_MOVES = {"north": (0, 1), "south": (0, -1), "east": (1, 0), "west": (-1, 0)}


def _moves_inside(x: int, y: int, width: int, height: int) -> tuple[str, ...]:
    """The moves from (x, y) that stay on a width x height grid, in schema order."""
    return tuple(move for move, (dx, dy) in _MOVES.items() if 0 <= x + dx < width and 0 <= y + dy < height)


# ===== Configs =====


def _check_cell(name: str, cell: tuple[int, int], width: int, height: int) -> None:
    x, y = cell
    if not (0 <= x < width and 0 <= y < height):
        raise ConfigError(f"{name}={cell} lies outside the {width}x{height} grid")


@dataclass(frozen=True)
class MiniTaxiConfig:
    width: int = 4
    height: int = 4
    max_fuel: int = 8
    station: tuple[int, int] = (0, 0)
    passenger_spawn: tuple[int, int] | None = None
    destination: tuple[int, int] | None = None
    jobs_target: int = 2

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ConfigError("grid must be at least 1x1")
        if self.max_fuel < 1:
            raise ConfigError("max_fuel must be at least 1")
        if self.jobs_target < 1:
            raise ConfigError("jobs_target must be at least 1")
        if self.passenger_spawn is None:
            object.__setattr__(self, "passenger_spawn", (self.width - 1, self.height - 1))
        if self.destination is None:
            object.__setattr__(self, "destination", (self.width - 1, 0))
        _check_cell("station", self.station, self.width, self.height)
        _check_cell("passenger_spawn", self.passenger_spawn, self.width, self.height)
        _check_cell("destination", self.destination, self.width, self.height)


@dataclass(frozen=True)
class AvoidanceConfig:
    width: int = 3
    height: int = 3
    obstacle_start: tuple[int, int] | None = None
    obstacle_move_prob: float = 0.5

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ConfigError("grid must be at least 1x1")
        if self.obstacle_start is None:
            object.__setattr__(self, "obstacle_start", (self.width - 1, self.height - 1))
        _check_cell("obstacle_start", self.obstacle_start, self.width, self.height)
        if not (0.0 <= self.obstacle_move_prob <= 1.0):
            raise ConfigError("obstacle_move_prob must lie in [0, 1]")


# ===== MiniTaxi =====


def mini_taxi(config: MiniTaxiConfig | None = None) -> EnvironmentModel:
    """Build the taxi environment for a config (defaults: 4x4, fuel 8).

    State is (x, y, fuel, on_board, jobs_done). Moves cost one fuel and are
    only offered inside the grid; pickup is offered at the spawn cell with
    an empty cab, dropoff at the destination with a passenger aboard, and
    refuel at the station. Dropoff bumps jobs_done, which saturates at
    jobs_target so the label "jobs_done_target" (jobs_done >= target) marks
    a finite absorbing fact rather than an unbounded counter. At fuel zero
    every action self-loops and the state is labeled "empty".
    """
    cfg = config or MiniTaxiConfig()

    @functools.cache
    def action_set(x: int, y: int, empty: bool, on_board: int) -> tuple[str, ...]:
        if empty:
            return TAXI_ACTIONS
        services = {
            "pickup": (x, y) == cfg.passenger_spawn and on_board == 0,
            "dropoff": (x, y) == cfg.destination and on_board == 1,
            "refuel": (x, y) == cfg.station,
        }
        return _moves_inside(x, y, cfg.width, cfg.height) + tuple(a for a, offered in services.items() if offered)

    def available_actions(state: StateVector) -> tuple[str, ...]:
        x, y, fuel, on_board, _jobs = state
        return action_set(x, y, fuel == 0, on_board)

    def successors(state: StateVector, action: str) -> Distribution:
        x, y, fuel, on_board, jobs = state
        if action not in available_actions(state):
            raise ValueError(f"action {action!r} unavailable in state {list(state)}")
        if fuel == 0:
            return Distribution(((state, 1.0),))
        if action in _MOVES:
            dx, dy = _MOVES[action]
            target = (x + dx, y + dy, fuel - 1, on_board, jobs)
        elif action == "pickup":
            target = (x, y, fuel, 1, jobs)
        elif action == "dropoff":
            target = (x, y, fuel, 0, min(jobs + 1, cfg.jobs_target))
        else:  # refuel
            target = (x, y, cfg.max_fuel, on_board, jobs)
        return Distribution(((target, 1.0),))

    def labels(state: StateVector) -> frozenset[str]:
        x, y, fuel, on_board, jobs = state
        out = set()
        if fuel == 0:
            out.add("empty")
        if on_board == 1:
            out.add("passenger")
        if (x, y) == cfg.station:
            out.add("gas_station")
        if jobs >= cfg.jobs_target:
            out.add("jobs_done_target")
        return frozenset(out)

    sx, sy = cfg.station
    return EnvironmentModel(
        feature_schema=TAXI_FEATURES,
        action_schema=TAXI_ACTIONS,
        initial=(sx, sy, cfg.max_fuel, 0, 0),
        available_actions=available_actions,
        successors=successors,
        labels=labels,
    )


# ===== Avoidance =====


def avoidance(config: AvoidanceConfig | None = None) -> EnvironmentModel:
    """Build the obstacle-avoidance environment (defaults: 3x3, p=0.5).

    State is (ax, ay, ox, oy). The ordering within each tick matters: the
    agent's move lands first, then the obstacle takes one Manhattan-reducing
    step toward that landing cell with probability obstacle_move_prob. When
    both axes would reduce the distance the obstacle moves along x; once it
    shares the agent's cell it has nowhere closer to go and stays. States
    where both share a cell are labeled "collision".
    """
    cfg = config or AvoidanceConfig()

    @functools.cache
    def action_set(ax: int, ay: int) -> tuple[str, ...]:
        return _moves_inside(ax, ay, cfg.width, cfg.height) + ("stay",)

    def available_actions(state: StateVector) -> tuple[str, ...]:
        ax, ay, _ox, _oy = state
        return action_set(ax, ay)

    def _chase_step(ox: int, oy: int, ax: int, ay: int) -> tuple[int, int]:
        if ox != ax:
            return (ox + (1 if ax > ox else -1), oy)
        if oy != ay:
            return (ox, oy + (1 if ay > oy else -1))
        return (ox, oy)

    def successors(state: StateVector, action: str) -> Distribution:
        ax, ay, ox, oy = state
        if action not in available_actions(state):
            raise ValueError(f"action {action!r} unavailable in state {list(state)}")
        if action in _MOVES:
            dx, dy = _MOVES[action]
            ax, ay = ax + dx, ay + dy
        moved = (ax, ay) + _chase_step(ox, oy, ax, ay)
        stayed = (ax, ay, ox, oy)
        p = cfg.obstacle_move_prob
        if moved == stayed or p == 1.0:
            return Distribution(((moved, 1.0),))
        if p == 0.0:
            return Distribution(((stayed, 1.0),))
        return Distribution(((moved, p), (stayed, 1.0 - p)))

    def labels(state: StateVector) -> frozenset[str]:
        ax, ay, ox, oy = state
        if (ax, ay) == (ox, oy):
            return frozenset({"collision"})
        return frozenset()

    bx, by = cfg.obstacle_start
    return EnvironmentModel(
        feature_schema=AVOIDANCE_FEATURES,
        action_schema=AVOIDANCE_ACTIONS,
        initial=(0, 0, bx, by),
        available_actions=available_actions,
        successors=successors,
        labels=labels,
    )


# ===== Builtin URIs =====


def is_builtin_uri(text: str) -> bool:
    return text.startswith("builtin:")


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ModelSyntaxError(f"query parameter {key}={value!r}: expected an integer") from None


def _parse_cell(key: str, value: str) -> tuple[int, int]:
    parts = value.split(",")
    if len(parts) != 2:
        raise ModelSyntaxError(f"query parameter {key}={value!r}: expected 'x,y'")
    return (_parse_int(key, parts[0]), _parse_int(key, parts[1]))


def _parse_prob(key: str, value: str) -> float:
    try:
        return float(Fraction(value))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ModelSyntaxError(f"query parameter {key}={value!r}: expected a probability") from None


# name -> (factory, config type, {query key: value parser}). Keys are parsed
# in this order, so of two malformed values the first listed is reported.
_BUILTINS = {
    "mini_taxi": (
        mini_taxi,
        MiniTaxiConfig,
        {
            "width": _parse_int, "height": _parse_int, "max_fuel": _parse_int, "jobs_target": _parse_int,
            "station": _parse_cell, "passenger_spawn": _parse_cell, "destination": _parse_cell,
        },
    ),
    "avoidance": (
        avoidance,
        AvoidanceConfig,
        {"width": _parse_int, "height": _parse_int, "obstacle_start": _parse_cell, "obstacle_move_prob": _parse_prob},
    ),
}


def from_uri(uri: str) -> EnvironmentModel:
    """Resolve ``builtin:<name>?key=value&...`` into an environment.

    Unknown environment names, unknown or repeated query keys, and
    unparsable values raise ModelSyntaxError; values that parse but violate
    config invariants raise ConfigError.
    """
    parts = urlsplit(uri)
    if parts.scheme != "builtin":
        raise ModelSyntaxError(f"not a builtin URI: {uri!r}")
    pairs = parse_qsl(parts.query, keep_blank_values=True)
    params = dict(pairs)
    if len(params) != len(pairs):
        raise ModelSyntaxError(f"repeated query parameter in {uri!r}")
    name = parts.path
    if name not in _BUILTINS:
        raise ModelSyntaxError(f"unknown builtin environment {name!r}")
    factory, config_type, parsers = _BUILTINS[name]
    unknown = params.keys() - parsers.keys()
    if unknown:
        raise ModelSyntaxError(f"unknown {name} parameters {sorted(unknown)}")
    return factory(config_type(**{key: parse(key, params[key]) for key, parse in parsers.items() if key in params}))
