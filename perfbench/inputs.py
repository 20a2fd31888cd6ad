"""Seeded input documents for each workload.

Everything the program receives is made here from the workload seed:
model text or builtin URIs, policy documents and property text. The same
seed gives the same documents. Where a seed could change how much work a
job does (the size of an induced chain), the seed only picks among inputs
whose work lies in a fixed band, so that ``job_s`` measures the program
rather than the luck of the draw.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

from . import oracles

# ===== solve: explicit chains =====

# Random chain: transient states 0..n-1, then absorbing "goal" and "bad".
# Every transient state leaves for goal or bad with probability EXIT, so
# Gauss-Seidel needs a similar, small number of sweeps on every seed.
RANDOM_STATES = 3000
RANDOM_EXIT = Fraction(7, 20)
RANDOM_LOCAL_SPAN = 50

# Fair gambler's ruin on 0..N from START: P(reach N) = START/N = 1/4.
GAMBLER_N = 40
GAMBLER_START = 10
GAMBLER_LOW = 4  # positions 1..LOW carry the label "low"

RANDOM_PROPERTIES = (
    'P=? [!"hot" U "goal"]',
    'P=? [F "goal"]',
    'P=? [G !"bad"]',
    'P=? [SEQ("a", "goal")]',
)
GAMBLER_PROPERTIES = (
    'P>=0.25 [F "goal"]',
    'P<=0.25 [!"bad" U "goal"]',
    'P=? [G !"bad"]',
    'P=? [SEQ("low", "goal")]',
)

ONE_ACTION_POLICY = {"features": ["i"], "actions": ["pi"], "layers": [{"w": [[0.0]], "b": [0.0]}]}


def _model_text(initial: int, entries: list) -> str:
    return json.dumps({"features": ["i"], "actions": ["pi"], "initial": [initial], "states": entries})


def _entry(i: int, labels: list, branches: dict) -> dict:
    entry = {"s": [i], "act": {"pi": [{"to": [t], "p": str(p)} for t, p in branches.items()]}}
    if labels:
        entry["labels"] = labels
    return entry


def random_chain(rng: random.Random) -> dict:
    """A seeded chain with forward, local and long back edges plus exits."""
    n = RANDOM_STATES
    goal, bad = n, n + 1
    share = (1 - RANDOM_EXIT) / 3
    entries = []
    for i in range(n):
        labels = [name for name in ("hot", "a") if rng.random() < 0.1]
        branches: dict = {}
        for t in (i + 1 if i + 1 < n else goal, rng.randrange(n), rng.randrange(max(0, i - RANDOM_LOCAL_SPAN), n)):
            branches[t] = branches.get(t, 0) + share
        exit_to = goal if rng.random() < 0.5 else bad
        branches[exit_to] = branches.get(exit_to, 0) + RANDOM_EXIT
        entries.append(_entry(i, labels, branches))
    entries.append(_entry(goal, ["goal"], {goal: Fraction(1)}))
    entries.append(_entry(bad, ["bad"], {bad: Fraction(1)}))
    return {"text": _model_text(0, entries), "initial": 0, "entries": entries, "properties": list(RANDOM_PROPERTIES)}


def gambler_chain() -> dict:
    """The fair gambler's ruin; fixed, so its one known-wrong answer fails on every seed."""
    half = Fraction(1, 2)
    entries = []
    for i in range(GAMBLER_N + 1):
        if i in (0, GAMBLER_N):
            labels, branches = (["bad"] if i == 0 else ["goal"]), {i: Fraction(1)}
        else:
            labels = ["low"] if i <= GAMBLER_LOW else []
            branches = {i - 1: half, i + 1: half}
        entries.append(_entry(i, labels, branches))
    return {
        "text": _model_text(GAMBLER_START, entries),
        "initial": GAMBLER_START,
        "entries": entries,
        "properties": list(GAMBLER_PROPERTIES),
    }


def solve_inputs(seed: int) -> dict:
    rng = random.Random(f"solve/{seed}")
    return {
        "chains": {"random": random_chain(rng), "gambler": gambler_chain()},
        "policy": json.dumps(ONE_ACTION_POLICY),
    }


# ===== explore and sweep: avoidance grids with seeded networks =====

EXPLORE_GRIDS = ((16, 8), (18, 12), (20, 16), (20, 8))  # (side, hidden width)
EXPLORE_STATES = (5000, 6000)  # accepted induced-chain size per grid
EXPLORE_POOL = 2  # draws per grid to choose from
EXPLORE_TOTAL = 22000  # states per job aimed at
EXPLORE_NOISE = 0.1
EXPLORE_PROPERTIES = (
    'P=? [G<=50 !"collision"]',
    'P=? [F<=30 "collision"]',
    'P=? [!"collision" U<=30 "collision"]',
    'P=? [X "collision"]',
)


def flee_policy(rng: random.Random, side: int, hidden: int) -> dict:
    """A two-layer ReLU policy biased to flee the obstacle and keep off walls.

    Hidden units 0-3 read the signed agent-obstacle gaps and units 4-7 the
    distance to each wall; the output layer turns them into moves away
    from the obstacle and away from a near wall. Everything else, and a
    perturbation of the structured weights, is seeded noise of scale
    EXPLORE_NOISE. Purely random networks mostly park the agent, and their
    chains stay small.
    """
    margin = 2
    far = side - 1 - margin
    structured = [
        ([1, 0, -1, 0], 0), ([-1, 0, 1, 0], 0), ([0, 1, 0, -1], 0), ([0, -1, 0, 1], 0),
        ([1, 0, 0, 0], -far), ([-1, 0, 0, 0], margin), ([0, 1, 0, 0], -far), ([0, -1, 0, 0], margin),
    ]
    noise = EXPLORE_NOISE
    w1 = [[rng.gauss(0, noise) for _ in range(4)] for _ in range(hidden)]
    b1 = [rng.gauss(0, noise) for _ in range(hidden)]
    for i, (w, b) in enumerate(structured):
        w1[i] = [v + rng.gauss(0, noise) for v in w]
        b1[i] = b + rng.gauss(0, noise)
    w2 = [[rng.gauss(0, noise) for _ in range(hidden)] for _ in range(5)]
    b2 = [rng.gauss(0, noise) for _ in range(5)]
    # Output rows: north, south, east, west, stay.
    for row, unit in ((2, 0), (3, 1), (0, 2), (1, 3)):
        w2[row][unit] += 1.0
    for row, unit in ((3, 4), (2, 5), (1, 6), (0, 7)):
        w2[row][unit] += 2.0
    return {
        "features": ["ax", "ay", "ox", "oy"],
        "actions": list(oracles.AVOID_ACTIONS),
        "layers": [{"w": w1, "b": b1}, {"w": w2, "b": b2}],
    }


def margin_policy(rng: random.Random) -> dict:
    """A two-layer ReLU policy that flees along the wider gap, with wide margins.

    Hidden units 0-3 read the signed agent-obstacle gaps, which are whole
    numbers. Each move's logit is its gap plus an offset of 0, 1/4, 1/2 or
    3/4, and "stay" scores below every move, so any two logits differ by at
    least 1/4 before the seeded noise of scale SWEEP_NOISE. Pruning the noise
    then keeps every action, and pruning one of the four gap weights flips
    some: a sweep has rows of both kinds.
    """
    hidden, noise = SWEEP_HIDDEN, SWEEP_NOISE
    w1 = [[rng.gauss(0, noise) for _ in range(4)] for _ in range(hidden)]
    b1 = [rng.gauss(0, noise) for _ in range(hidden)]
    w1[:4] = [[1.0, 0.0, -1.0, 0.0], [-1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, -1.0], [0.0, -1.0, 0.0, 1.0]]
    b1[:4] = [0.0, 0.0, 0.0, 0.0]
    w2 = [[rng.gauss(0, noise) for _ in range(hidden)] for _ in range(5)]
    for row, unit in ((2, 0), (3, 1), (0, 2), (1, 3)):
        w2[row][unit] = 1.0
    b2 = [offset + rng.gauss(0, noise) for offset in (0.0, 0.25, 0.5, 0.75, -0.375)]
    return {
        "features": ["ax", "ay", "ox", "oy"],
        "actions": list(oracles.AVOID_ACTIONS),
        "layers": [{"w": w1, "b": b1}, {"w": w2, "b": b2}],
    }


def grid_uri(grid: dict) -> str:
    ox, oy = grid["obstacle"]
    return (
        f"builtin:avoidance?width={grid['width']}&height={grid['height']}"
        f"&obstacle_start={ox},{oy}&obstacle_move_prob={grid['move_prob']}"
    )


def _draw_grid(rng: random.Random, side: int) -> dict:
    return {
        "width": side,
        "height": side,
        "obstacle": [rng.randrange(side // 2, side), rng.randrange(side // 2, side)],
        "move_prob": rng.choice(["1/3", "1/2", "2/3"]),
    }


def make_case(grid: dict, policy: dict, states: int) -> dict:
    """A grid and policy, with the size of the chain they induce.

    The chain itself is not kept: the oracle explores it again when the
    answers are judged, after the run's peak memory has been read.
    """
    return {"grid": grid, "uri": grid_uri(grid), "policy_doc": policy, "policy": json.dumps(policy), "states": states}


def draw_case(rng: random.Random, side: int, hidden: int, band: tuple[int, int]) -> dict:
    """Draw grids and flee policies until the induced chain's size lies in ``band``."""
    for _ in range(10_000):
        grid = _draw_grid(rng, side)
        policy = flee_policy(rng, side, hidden)
        states = oracles.avoid_chain_size(grid, policy, max_states=band[1])
        if states is not None and states >= band[0]:
            return make_case(grid, policy, states)
    raise RuntimeError(f"no {side}x{side} case with {band} states")


def explore_inputs(seed: int) -> dict:
    """One case per grid, chosen from a seeded pool so that the states add up to about EXPLORE_TOTAL.

    A job's time follows the total number of states, and a single draw
    lands anywhere in the band; choosing among EXPLORE_POOL draws per grid
    holds the total within a fraction of a percent on every seed.
    """
    rng = random.Random(f"explore/{seed}")
    pools = [[draw_case(rng, side, hidden, EXPLORE_STATES) for _ in range(EXPLORE_POOL)] for side, hidden in EXPLORE_GRIDS]
    best = min(
        itertools.product(*pools),
        key=lambda cases: abs(sum(c["states"] for c in cases) - EXPLORE_TOTAL),
    )
    return {"cases": list(best), "properties": list(EXPLORE_PROPERTIES)}


# ===== validate: builtin models walked under every action =====


# Reachable taxi states accepted. The count depends on where the seed puts
# the station, spawn and destination, from under 700 to about 4,500; the
# band keeps a job's work the same on every seed.
TAXI_STATES = (3900, 4500)


def validate_inputs(seed: int) -> dict:
    rng = random.Random(f"validate/{seed}")
    side = 14
    avoid = {
        "kind": "avoidance",
        "width": side,
        "height": side,
        "obstacle": [rng.randrange(side), rng.randrange(1, side)],
        "move_prob": rng.choice(["1/4", "1/3", "1/2", "2/3", "3/4"]),
    }
    while True:
        station, spawn, destination = rng.sample([(x, y) for x in range(8) for y in range(8)], 3)
        taxi = {
            "kind": "mini_taxi",
            "width": 8,
            "height": 8,
            "max_fuel": 20,
            "jobs_target": 3,
            "station": list(station),
            "spawn": list(spawn),
            "destination": list(destination),
        }
        if TAXI_STATES[0] <= oracles.all_action_counts(taxi)[0] <= TAXI_STATES[1]:
            break
    taxi_uri = (
        "builtin:mini_taxi?width=8&height=8&max_fuel=20&jobs_target=3"
        f"&station={station[0]},{station[1]}&passenger_spawn={spawn[0]},{spawn[1]}"
        f"&destination={destination[0]},{destination[1]}"
    )
    return {"models": [(grid_uri(avoid), avoid), (taxi_uri, taxi)]}


# ===== sweep: one small avoidance chain, pruned many ways =====

# The chain's shape depends only on the grid and the obstacle's start,
# which are fixed; the seed draws the chase probability and the network's
# noise. Pruned chains then have the same sizes on every seed, and so has
# the work of a job.
SWEEP_GRID = {"width": 6, "height": 6, "obstacle": [3, 4]}
SWEEP_HIDDEN = 8
SWEEP_NOISE = 0.01
SWEEP_LAYER = 2
SWEEP_FRACTIONS = "0:1:1/20"
SWEEP_SEEDS = tuple(range(1, 11))
SWEEP_HORIZON = 12
SWEEP_PROPERTY = f'P=? [G<={SWEEP_HORIZON} !"collision"]'


def sweep_inputs(seed: int) -> dict:
    rng = random.Random(f"sweep/{seed}")
    grid = {**SWEEP_GRID, "move_prob": rng.choice(["1/3", "1/2", "2/3"])}
    policy = margin_policy(rng)
    return {"case": make_case(grid, policy, len(oracles.avoid_chain(grid, policy).states)), "property": SWEEP_PROPERTY}
