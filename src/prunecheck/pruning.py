"""Pruning operators over policy networks.

Three ways to zero weights, all pure (the input policy is never touched):

* ``l1_prune``: zero the smallest-magnitude fraction of a layer's nonzeros.
* ``random_prune``: zero a seeded uniform sample of a layer's nonzeros.
* ``feature_prune``: zero one input feature's entire first-layer column,
  making the policy literally independent of that feature.

Every operator returns the pruned policy together with a PruneMask of the
coordinates it forced to zero (for feature pruning, the whole column, even
entries that were zero already); applying a mask to the original policy
reproduces the pruned one. Mask coordinates are 1-based (layer, row, col)
triples, matching the interchange format.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PruneSpecError
from .model import read_json_object
from .policy import NeuralPolicy, make_policy

# ===== Specs and masks =====

METHODS = ("l1", "random", "feature")

# Each spec key's accepted types, as errors word them; a boolean is never a number.
_SPEC_TYPES = {
    "method": (str, "a string"), "layer": (int, "an integer"), "fraction": ((int, float), "a number"),
    "seed": (int, "an integer"), "feature": (str, "a string"),
}


@dataclass(frozen=True)
class PruneSpec:
    """What to prune. Field relevance depends on the method:

    l1      -> layer, fraction
    random  -> layer, fraction, seed
    feature -> feature
    """

    method: str
    layer: int | None = None
    fraction: float | None = None
    seed: int | None = None
    feature: str | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise PruneSpecError(f"unknown prune method {self.method!r}")
        if self.method in ("l1", "random"):
            if self.layer is None or self.fraction is None:
                raise PruneSpecError(f"method {self.method!r} needs 'layer' and 'fraction'")
            if not (0.0 <= self.fraction <= 1.0):
                raise PruneSpecError(f"fraction {self.fraction!r} outside [0, 1]")
            if self.layer < 1:
                raise PruneSpecError("layer indices are 1-based")
        if self.method == "random" and self.seed is None:
            raise PruneSpecError("method 'random' needs 'seed'")
        if self.method == "feature" and self.feature is None:
            raise PruneSpecError("method 'feature' needs 'feature'")

    def to_dict(self) -> dict:
        out: dict = {"method": self.method}
        for key in ("layer", "fraction", "seed", "feature"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    @classmethod
    def from_dict(cls, doc: dict) -> "PruneSpec":
        if not isinstance(doc, dict) or "method" not in doc:
            raise PruneSpecError("prune spec must be an object with a 'method' key")
        unknown = set(doc) - _SPEC_TYPES.keys()
        if unknown:
            raise PruneSpecError(f"unknown prune spec keys {sorted(unknown)}")
        for key, value in doc.items():
            types, wording = _SPEC_TYPES[key]
            if not isinstance(value, types) or isinstance(value, bool):
                raise PruneSpecError(f"prune spec {key!r} must be {wording}, got {value!r}")
        return cls(**doc)


@dataclass(frozen=True)
class PruneMask:
    """The exact zeroed coordinate set produced by one pruning call.

    ``zeroed`` holds 1-based (layer, row, col) triples in ascending order.
    Biases are never masked.
    """

    spec: PruneSpec
    zeroed: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if list(self.zeroed) != sorted(self.zeroed):
            raise PruneSpecError("mask coordinates must be sorted ascending")

    @property
    def size(self) -> int:
        return len(self.zeroed)


def dump_mask(mask: PruneMask) -> str:
    return json.dumps({"spec": mask.spec.to_dict(), "zeroed": [list(c) for c in mask.zeroed]}, indent=2)


def load_mask(text: str) -> PruneMask:
    doc = read_json_object(text, ("spec", "zeroed"), PruneSpecError, "mask document")
    zeroed = doc["zeroed"]
    if not isinstance(zeroed, list):
        raise PruneSpecError(f"'zeroed' must be a list of [layer, row, column] triples, got {zeroed!r}")
    for c in zeroed:
        # JSON integers decode to exactly int; true and false decode to bool.
        if not (isinstance(c, list) and len(c) == 3 and all(type(v) is int for v in c)):
            raise PruneSpecError(f"bad mask coordinate {c!r}")
    return PruneMask(spec=PruneSpec.from_dict(doc["spec"]), zeroed=tuple(map(tuple, zeroed)))


# ===== Shared helpers =====


def _exact_fraction(fraction) -> Fraction:
    # A float is read through its shortest round-tripping decimal, so the
    # 0.15 a user typed means 3/20 and not the binary neighbor just below.
    if isinstance(fraction, float):
        return Fraction(repr(fraction))
    return Fraction(fraction)


def prune_count(fraction, nonzeros: int) -> int:
    """Round-half-up count of entries to zero: floor(p*n + 1/2), exactly.

    Computed on rationals so that ties (p*n landing on .5) round up even
    when float arithmetic would land a hair below. Accepts floats, ints,
    Fractions, and decimal strings.
    """
    return int(_exact_fraction(fraction) * nonzeros + Fraction(1, 2))


def _layer_weights(policy: NeuralPolicy, layer: int) -> np.ndarray:
    if not (1 <= layer <= len(policy.layers)):
        raise PruneSpecError(
            f"layer {layer} out of range; policy has layers 1..{len(policy.layers)}"
        )
    return policy.layers[layer - 1].weights


def _nonzero_coords(weights: np.ndarray) -> list[tuple[int, int]]:
    """0-based (row, col) coordinates of nonzero entries, row-major order."""
    rows, cols = np.nonzero(weights)
    return list(zip(rows.tolist(), cols.tolist()))


def apply_mask(policy: NeuralPolicy, mask: PruneMask) -> NeuralPolicy:
    """Zero every coordinate listed in the mask (idempotent)."""
    arrays = [np.array(lay.weights) for lay in policy.layers]
    for layer, row, col in mask.zeroed:
        if not (1 <= layer <= len(arrays)):
            raise PruneSpecError(f"mask layer {layer} out of range")
        w = arrays[layer - 1]
        if not (1 <= row <= w.shape[0] and 1 <= col <= w.shape[1]):
            raise PruneSpecError(f"mask coordinate ({layer},{row},{col}) out of range")
        w[row - 1, col - 1] = 0.0
    pairs = [(w, lay.bias) for w, lay in zip(arrays, policy.layers)]
    return make_policy(policy.feature_names, policy.action_names, pairs)


def _finish(policy: NeuralPolicy, spec: PruneSpec, layer: int, chosen) -> tuple[NeuralPolicy, PruneMask]:
    coords = tuple(sorted((layer, r + 1, c + 1) for r, c in chosen))
    mask = PruneMask(spec=spec, zeroed=coords)
    return apply_mask(policy, mask), mask


# ===== Operators =====


def l1_prune(policy: NeuralPolicy, layer: int, fraction: float) -> tuple[NeuralPolicy, PruneMask]:
    """Zero the ``fraction`` smallest-magnitude nonzeros of one layer.

    The count is round-half-up over the layer's nonzero entries (already
    zero entries never count, so repeated sweeps measure marginal pruning).
    Magnitude ties break by (row, col) ascending, making the mask a pure
    function of (policy, layer, fraction).
    """
    spec = PruneSpec(method="l1", layer=layer, fraction=fraction)
    weights = _layer_weights(policy, layer)
    coords = _nonzero_coords(weights)
    m = prune_count(fraction, len(coords))
    ranked = sorted(coords, key=lambda rc: (abs(weights[rc[0], rc[1]]), rc[0], rc[1]))
    return _finish(policy, spec, layer, ranked[:m])


def random_prune(
    policy: NeuralPolicy, layer: int, fraction: float, seed: int
) -> tuple[NeuralPolicy, PruneMask]:
    """Zero a uniform sample (without replacement) of one layer's nonzeros.

    The sample size matches l1_prune's count for the same fraction and the
    draw is fully determined by ``seed``.
    """
    spec = PruneSpec(method="random", layer=layer, fraction=fraction, seed=seed)
    weights = _layer_weights(policy, layer)
    coords = _nonzero_coords(weights)
    m = prune_count(fraction, len(coords))
    chosen = random.Random(seed).sample(coords, m)
    return _finish(policy, spec, layer, chosen)


def feature_prune(policy: NeuralPolicy, feature: str) -> tuple[NeuralPolicy, PruneMask]:
    """Zero the whole first-layer column of one input feature.

    Afterwards the policy's logits are literally independent of that
    feature's value. The mask covers the full column, one coordinate per
    first-layer row, whether or not an entry was already zero.
    """
    spec = PruneSpec(method="feature", feature=feature)
    if feature not in policy.feature_names:
        raise PruneSpecError(f"feature {feature!r} is not in the policy's feature schema")
    col = policy.feature_names.index(feature)
    weights = policy.layers[0].weights
    chosen = [(r, col) for r in range(weights.shape[0])]
    return _finish(policy, spec, 1, chosen)


def prune(policy: NeuralPolicy, spec: PruneSpec) -> tuple[NeuralPolicy, PruneMask]:
    """Dispatch a PruneSpec to its operator."""
    if spec.method == "l1":
        return l1_prune(policy, spec.layer, spec.fraction)
    if spec.method == "random":
        return random_prune(policy, spec.layer, spec.fraction, spec.seed)
    return feature_prune(policy, spec.feature)
