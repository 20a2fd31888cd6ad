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

What an operator reads off a layer (its nonzero coordinates, their
magnitude ranking and the count for each fraction) is derived once per
read-only ``Layer`` object, as ``make_policy`` and the operators build
them, and kept until that object is freed; so a sweep of many prunes of
one layer pays only for each one's draw and copy. Likewise a layer whose
weights and bias are read-only arrays of their own is checked finite once,
and so is the zeroed copy an operator makes of it (``policy._finite``).
Weights that are writable, or a view of another array, are read afresh on
every call. So read-only weights must never change: a caller that makes
them writable again, changes them and freezes them gets masks of the old
weights, and a NaN it writes there goes unnoticed.
"""

from __future__ import annotations

import json
import operator
import random
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import PruneSpecError
from .model import read_json_object
from .policy import Layer, NeuralPolicy, _fixed, _with_weights

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
        for key, (types, wording) in _SPEC_TYPES.items():
            value = getattr(self, key)
            if value is not None and (not isinstance(value, types) or isinstance(value, bool)):
                raise PruneSpecError(f"prune spec {key!r} must be {wording}, got {value!r}")
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
            # A null names a field without giving it; only an absent key means None.
            if value is None:
                raise PruneSpecError(f"prune spec {key!r} must be {_SPEC_TYPES[key][1]}, got None")
        return cls(**doc)


@dataclass(frozen=True)
class PruneMask:
    """The exact zeroed coordinate set produced by one pruning call.

    ``zeroed`` holds distinct 1-based (layer, row, col) triples in ascending
    order. Biases are never masked.
    """

    spec: PruneSpec
    zeroed: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if any(map(operator.ge, self.zeroed, self.zeroed[1:])):
            raise PruneSpecError("mask coordinates must be sorted ascending, each once")

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
    spec = PruneSpec.from_dict(doc["spec"])
    layer = 1 if spec.method == "feature" else spec.layer
    for c in zeroed:
        if c[0] != layer or min(c) < 1:
            raise PruneSpecError(f"mask coordinate {c!r} must be a 1-based [layer, row, column] in layer {layer}")
    return PruneMask(spec=spec, zeroed=tuple(map(tuple, zeroed)))


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


class _LayerFacts:
    """What the operators read off one layer's weights.

    ``rows`` and ``cols`` are the 0-based coordinates of its nonzero
    entries in row-major order, ``ranking`` orders those by magnitude, ties
    by position, and ``count(fraction)`` is ``prune_count`` over them.
    """

    def __init__(self, weights: np.ndarray) -> None:
        self.weights = weights
        self.rows, self.cols = np.nonzero(weights)
        self.counts: dict = {}

    @cached_property
    def ranking(self) -> list[int]:
        # Row-major order is (row, col) order, so a stable sort by magnitude breaks ties by position.
        # Python's sort, as NumPy's maps a few hundred KB of sorting code into memory on first use.
        magnitudes = np.abs(self.weights[self.rows, self.cols]).tolist()
        return sorted(range(len(magnitudes)), key=magnitudes.__getitem__)

    def count(self, fraction) -> int:
        # A spec's fraction is an int or a float, and two that compare equal count alike.
        m = self.counts.get(fraction)
        if m is None:
            m = self.counts[fraction] = prune_count(fraction, len(self.rows))
        return m


# The facts of each read-only layer an operator has read, freed with the layer.
_FACTS: weakref.WeakKeyDictionary[Layer, _LayerFacts] = weakref.WeakKeyDictionary()


def _facts(policy: NeuralPolicy, layer: int) -> _LayerFacts:
    """The facts of ``policy``'s layer ``layer`` (1-based).

    They are derived once per ``Layer`` whose weights are a read-only array
    of their own, as ``make_policy`` and every operator leave them, and
    afresh on every call for weights that could still change. The flag is
    read at each call, so weights unfrozen, changed and frozen again keep
    the facts of their first values.
    """
    if not (1 <= layer <= len(policy.layers)):
        raise PruneSpecError(
            f"layer {layer} out of range; policy has layers 1..{len(policy.layers)}"
        )
    key = policy.layers[layer - 1]
    if not _fixed(key.weights):
        return _LayerFacts(key.weights)
    facts = _FACTS.get(key)
    if facts is None:
        facts = _FACTS[key] = _LayerFacts(key.weights)
    return facts


def apply_mask(policy: NeuralPolicy, mask: PruneMask) -> NeuralPolicy:
    """Zero every coordinate listed in the mask (idempotent).

    Only the layers the mask names are copied, and their copies frozen;
    every other layer of the result is the input's own ``Layer`` object,
    read-only in any policy ``make_policy`` built. Every layer's weights and
    biases, shared or copied, must still be finite, as ``make_policy``
    requires; a zeroed coordinate counts as 0.
    """
    weights: dict[int, np.ndarray] = {}
    for layer, row, col in mask.zeroed:
        if not (1 <= layer <= len(policy.layers)):
            raise PruneSpecError(f"mask layer {layer} out of range")
        w = weights.get(layer - 1)
        if w is None:
            w = weights[layer - 1] = np.array(policy.layers[layer - 1].weights, dtype=np.float64)
        if not (1 <= row <= w.shape[0] and 1 <= col <= w.shape[1]):
            raise PruneSpecError(f"mask coordinate ({layer},{row},{col}) out of range")
        w[row - 1, col - 1] = 0.0
    return _with_weights(policy, weights)


def _finish(
    policy: NeuralPolicy, spec: PruneSpec, layer: int, rows: np.ndarray, cols: np.ndarray
) -> tuple[NeuralPolicy, PruneMask]:
    """Zero layer ``layer``'s (1-based) entries at the 0-based ``rows``, ``cols``, in row-major order, each once."""
    # A tuple of a list, since one grown from an iterator leaves tuples of every size behind.
    mask = PruneMask(spec=spec, zeroed=tuple([(layer, r + 1, c + 1) for r, c in zip(rows.tolist(), cols.tolist())]))
    if not len(rows):
        return _with_weights(policy, {}), mask
    weights = np.array(policy.layers[layer - 1].weights, dtype=np.float64)
    weights[rows, cols] = 0.0
    return _with_weights(policy, {layer - 1: weights}), mask


# ===== Operators =====


def l1_prune(policy: NeuralPolicy, layer: int, fraction: float) -> tuple[NeuralPolicy, PruneMask]:
    """Zero the ``fraction`` smallest-magnitude nonzeros of one layer.

    The count is round-half-up over the layer's nonzero entries (already
    zero entries never count, so repeated sweeps measure marginal pruning).
    Magnitude ties break by (row, col) ascending, making the mask a pure
    function of (policy, layer, fraction).
    """
    return _prune_layer(policy, PruneSpec(method="l1", layer=layer, fraction=fraction))


def random_prune(
    policy: NeuralPolicy, layer: int, fraction: float, seed: int
) -> tuple[NeuralPolicy, PruneMask]:
    """Zero a uniform sample (without replacement) of one layer's nonzeros.

    The sample size matches l1_prune's count for the same fraction and the
    draw is fully determined by ``seed``: it is
    ``random.Random(seed).sample`` over the nonzero coordinates in row-major
    order.
    """
    return _prune_layer(policy, PruneSpec(method="random", layer=layer, fraction=fraction, seed=seed))


def _prune_layer(policy: NeuralPolicy, spec: PruneSpec) -> tuple[NeuralPolicy, PruneMask]:
    """The ``l1`` or ``random`` prune ``spec`` names; it holds only the fields its method reads, as the mask records them."""
    facts = _facts(policy, spec.layer)
    count = facts.count(spec.fraction)
    if spec.method == "l1":
        chosen = sorted(facts.ranking[:count])
    else:
        # ``sample`` reads only its population's length, so sampling the
        # positions draws the positions of the coordinates it would sample.
        chosen = sorted(random.Random(spec.seed).sample(range(len(facts.rows)), count))
    return _finish(policy, spec, spec.layer, facts.rows[chosen], facts.cols[chosen])


def feature_prune(policy: NeuralPolicy, feature: str) -> tuple[NeuralPolicy, PruneMask]:
    """Zero the whole first-layer column of one input feature.

    Afterwards the policy's logits are literally independent of that
    feature's value. The mask covers the full column, one coordinate per
    first-layer row, whether or not an entry was already zero.
    """
    spec = PruneSpec(method="feature", feature=feature)
    if feature not in policy.feature_names:
        raise PruneSpecError(f"feature {feature!r} is not in the policy's feature schema")
    rows = np.arange(policy.layers[0].weights.shape[0])
    return _finish(policy, spec, 1, rows, np.full_like(rows, policy.feature_names.index(feature)))


def prune(policy: NeuralPolicy, spec: PruneSpec) -> tuple[NeuralPolicy, PruneMask]:
    """Dispatch a PruneSpec to its operator; the mask records only the fields the method reads."""
    if spec.method == "feature":
        return feature_prune(policy, spec.feature)
    if spec.feature is not None or spec.method == "l1" and spec.seed is not None:
        spec = PruneSpec(spec.method, spec.layer, spec.fraction, spec.seed if spec.method == "random" else None)
    return _prune_layer(policy, spec)
