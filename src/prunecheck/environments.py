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

``successors`` writes each row well formed by construction, so it builds
the row with ``Distribution._trusted``, without the constructor's checks:
``AvoidanceConfig`` keeps the move probability p in [0, 1], a two-branch
row has p in (0, 1), 1 - p in (0, 1] and two distinct targets, and every
other row is one new target with probability 1.0. The taxi's empty-tank
row holds the caller's own state, so it still goes through the checks.

Each environment also sets ``expansion``, the same rules as array arithmetic
over a level of states, which ``validate_model`` walks unchecked: its rows
are those of ``successors``, and every state offers an action (``avoidance``
always ``stay``; a taxi a move, a service or, with an empty tank, all). The
factory builds only tables whose size does not depend on the grid: one row
per action. A table that grows with the grid, ``avoidance``'s offered moves
per agent cell, is built on the first ``step`` call and kept for the
environment's lifetime, so building an environment does no work that grows
with the grid.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction
from urllib.parse import parse_qsl, urlsplit

import numpy as np

from .errors import ConfigError, ModelSyntaxError
from .model import Distribution, EnvironmentModel, Expansion, StateVector

# The builtins' rows, built unchecked (see the module docstring).
_trusted = Distribution._trusted

# ===== Schemas =====

TAXI_FEATURES = ("x", "y", "fuel", "on_board", "jobs_done")
TAXI_ACTIONS = ("north", "south", "east", "west", "pickup", "dropoff", "refuel")

AVOIDANCE_FEATURES = ("ax", "ay", "ox", "oy")
AVOIDANCE_ACTIONS = ("north", "south", "east", "west", "stay")

# The label sets of avoidance states, shared by every state that carries them.
_COLLISION = frozenset({"collision"})
_NO_LABELS = frozenset()

# Grid displacement per move action, as (dx, dy) with north increasing y.
_MOVES = {"north": (0, 1), "south": (0, -1), "east": (1, 0), "west": (-1, 0)}

# A taxi action's change to (x, y, fuel, on_board, jobs_done) with fuel in the
# tank, before refuel sets the fuel and jobs_done saturates.
_TAXI_STEPS = {
    **{move: (dx, dy, -1, 0, 0) for move, (dx, dy) in _MOVES.items()},
    "pickup": (0, 0, 0, 1, 0), "dropoff": (0, 0, 0, -1, 1), "refuel": (0, 0, 0, 0, 0),
}


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
        if action not in available_actions(state):
            raise ValueError(f"action {action!r} unavailable in state {list(state)}")
        if state[2] == 0:  # no fuel
            # The caller's own state is the target, and only the check proves it hashable.
            return Distribution(((state, 1.0),))
        x, y, fuel, on_board, jobs = (value + step for value, step in zip(state, _TAXI_STEPS[action]))
        fuel = cfg.max_fuel if action == "refuel" else fuel
        return _trusted((((x, y, fuel, on_board, min(jobs, cfg.jobs_target)), 1.0),))

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

    steps = np.array([_TAXI_STEPS[action] for action in TAXI_ACTIONS])
    pickup, dropoff, refuel = (TAXI_ACTIONS.index(action) for action in ("pickup", "dropoff", "refuel"))

    def expand(level: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x, y, fuel, on_board, _jobs = level.T
        targets = level[:, None, :] + steps
        tx, ty = targets[..., 0], targets[..., 1]
        offered = (0 <= tx) & (tx < cfg.width) & (0 <= ty) & (ty < cfg.height)
        offered[:, pickup] = (x == cfg.passenger_spawn[0]) & (y == cfg.passenger_spawn[1]) & (on_board == 0)
        offered[:, dropoff] = (x == cfg.destination[0]) & (y == cfg.destination[1]) & (on_board == 1)
        offered[:, refuel] = (x == cfg.station[0]) & (y == cfg.station[1])
        targets[:, refuel, 2] = cfg.max_fuel
        np.minimum(targets[..., 4], cfg.jobs_target, out=targets[..., 4])
        empty = fuel == 0
        offered[empty] = True
        targets[empty] = level[empty, None, :]
        rows = targets[offered]
        return np.ones(len(rows), dtype=np.intp), rows

    sx, sy = cfg.station
    return EnvironmentModel(
        feature_schema=TAXI_FEATURES,
        action_schema=TAXI_ACTIONS,
        initial=(sx, sy, cfg.max_fuel, 0, 0),
        available_actions=available_actions,
        successors=successors,
        labels=labels,
        expansion=Expansion((cfg.width, cfg.height, cfg.max_fuel + 1, 2, cfg.jobs_target + 1), expand),
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

    def successors(state: StateVector, action: str) -> Distribution:
        ax, ay, ox, oy = state
        if action not in action_set(ax, ay):
            raise ValueError(f"action {action!r} unavailable in state {list(state)}")
        mx, my = _MOVES.get(action, (0, 0))
        ax, ay = ax + mx, ay + my
        # The obstacle's step: the sign of the gap along x, else along y.
        dx = (ax > ox) - (ax < ox)
        dy = (ay > oy) - (ay < oy) if dx == 0 else 0
        moved = (ax, ay, ox + dx, oy + dy)
        stayed = (ax, ay, ox, oy)
        p = cfg.obstacle_move_prob
        if moved == stayed or p == 1.0:
            return _trusted(((moved, 1.0),))
        if p == 0.0:
            return _trusted(((stayed, 1.0),))
        # p lies in (0, 1) here, so 1 - p lies in (0, 1], and the targets differ.
        return _trusted(((moved, p), (stayed, 1.0 - p)))

    def labels(state: StateVector) -> frozenset[str]:
        ax, ay, ox, oy = state
        return _COLLISION if (ax, ay) == (ox, oy) else _NO_LABELS

    # Each action's change to (ax, ay, ox, oy) before the obstacle moves.
    shifts = np.array([(*_MOVES.get(action, (0, 0)), 0, 0) for action in AVOIDANCE_ACTIONS])

    @functools.cache
    def offered() -> np.ndarray:
        """Whether each action is offered, per agent cell ax * height + ay."""
        ax, ay = np.divmod(np.arange(cfg.width * cfg.height), cfg.height)
        tx, ty = ax[:, None] + shifts[:, 0], ay[:, None] + shifts[:, 1]
        return (0 <= tx) & (tx < cfg.width) & (0 <= ty) & (ty < cfg.height)

    def expand(level: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Row r is the r-th offered (state, action) pair in state order, then schema order.
        stayed = (level[:, None, :] + shifts)[offered()[level[:, 0] * cfg.height + level[:, 1]]]
        ax, ay, ox, oy = stayed.T
        dx = np.sign(ax - ox)
        dy = np.sign(ay - oy) * (dx == 0)
        p = cfg.obstacle_move_prob
        # A row branches when the obstacle may either step or stay; the step comes first.
        two = ((dx != 0) | (dy != 0)) & (0.0 < p < 1.0)
        counts = 1 + two
        first = np.cumsum(counts) - counts
        targets = np.repeat(stayed, counts, axis=0)
        if p > 0.0:
            targets[first, 2] += dx
            targets[first, 3] += dy
        return counts, targets

    bx, by = cfg.obstacle_start
    return EnvironmentModel(
        feature_schema=AVOIDANCE_FEATURES,
        action_schema=AVOIDANCE_ACTIONS,
        initial=(0, 0, bx, by),
        available_actions=available_actions,
        successors=successors,
        labels=labels,
        expansion=Expansion((cfg.width, cfg.height, cfg.width, cfg.height), expand),
    )


# ===== Builtin URIs =====


def is_builtin_uri(text: str) -> bool:
    return text.startswith("builtin:")


def _parse_int(key: str, value: str) -> int:
    """ASCII digits with an optional minus; no sign, spaces, underscores or other digits.

    One too large for a float, which is how a policy reads a state's features,
    is rejected too.
    """
    if not re.fullmatch("-?[0-9]+", value):
        raise ModelSyntaxError(f"query parameter {key}={value!r}: expected an integer")
    try:
        number = int(value)
        float(number)
    except (ValueError, OverflowError):  # past the digit limit, or past the largest float
        raise ModelSyntaxError(f"query parameter {key}={value!r}: integer is too large for a float") from None
    return number


def _parse_cell(key: str, value: str) -> tuple[int, int]:
    parts = value.split(",")
    if len(parts) != 2:
        raise ModelSyntaxError(f"query parameter {key}={value!r}: expected 'x,y'")
    return (_parse_int(key, parts[0]), _parse_int(key, parts[1]))


def _parse_prob(key: str, value: str) -> float:
    """A decimal or fraction; one too large for a float, or positive and too small, is rejected."""
    try:
        exact = Fraction(value)
        prob = float(exact)
    except (ValueError, ZeroDivisionError, OverflowError):
        prob = None
    if prob is None or (prob == 0.0 and exact > 0):
        raise ModelSyntaxError(f"query parameter {key}={value!r}: expected a probability")
    return prob


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
