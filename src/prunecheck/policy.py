"""Feed-forward policy networks over factored states.

A policy is a sequence of dense layers: rectified-linear hidden layers and
an affine output layer whose logits line up with the action schema. Inputs
are the raw integer feature values cast to float64, with no normalization,
so a state's logits are a pure deterministic function of the weights.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PolicyFormatError, SchemaMismatchError
from .model import EnvironmentModel, StateVector, read_json_object


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class Layer:
    """One dense layer; row i of ``weights`` feeds output neuron i."""

    weights: np.ndarray  # shape (d_out, d_in)
    bias: np.ndarray  # shape (d_out,)


@dataclass(frozen=True, eq=False)
class NeuralPolicy:
    """A network mapping feature vectors to one logit per schema action.

    Attributes:
        feature_names: input schema; must match the environment's features.
        action_names: output schema; logit i scores action_names[i].
        layers: at least one Layer; every layer but the last is followed by
            a rectifier, the last is affine.
    """

    feature_names: tuple[str, ...]
    action_names: tuple[str, ...]
    layers: tuple[Layer, ...]

    @cached_property
    def action_index(self) -> dict[str, int]:
        """Schema index of each action name."""
        return {name: i for i, name in enumerate(self.action_names)}

    def forward(self, states) -> np.ndarray:
        """Logits for a state vector, or for each row of a matrix of them.

        Integer features are cast to float64. The result is a fresh array
        of shape (len(action_names),), or (rows, len(action_names)). Every
        layer is applied as one matrix-vector product per row, so a row's
        logits are bit for bit those of the row passed on its own; a single
        matrix-matrix product would sum in another order and can differ in
        the last bit.
        """
        x = np.asarray(states, dtype=np.float64)
        width = len(self.feature_names)
        if x.ndim not in (1, 2) or x.shape[-1] != width:
            raise ValueError(f"input has shape {x.shape}, policy expects ({width},) or (rows, {width})")
        last = len(self.layers) - 1
        for k, layer in enumerate(self.layers):
            x = np.matmul(layer.weights, x[..., None])[..., 0] + layer.bias
            if k != last:
                x = np.maximum(x, 0.0)
        return x

    def select_action(self, state: StateVector, available: tuple[str, ...]) -> str:
        """Pick the available action with the largest logit for ``state``.

        Kept only because the benchmark's tracer in ``perfbench/trace.py`` wraps it.
        """
        return self.pick(self.forward(state).tolist(), available)

    def pick(self, logits: list[float], available: tuple[str, ...]) -> str:
        """Pick the available action with the largest of ``logits``.

        ``logits`` is one row of ``forward``'s output as Python floats
        (``.tolist()``). Ties break toward the smallest action-schema index,
        so selection is deterministic regardless of the order ``available``
        arrives in. Unavailable actions are masked out entirely, never
        renormalized. A NaN logit compares false both ways: it never
        displaces the choice so far, and a NaN choice is never displaced.
        """
        if not available:
            raise ValueError("no available actions to select from")
        index = self.action_index
        for name in available:
            if name not in index:
                raise SchemaMismatchError(f"available action {name!r} is not in the policy's schema")
        best = None
        for name in available:
            i = index[name]
            if best is None or logits[i] > logits[best] or (logits[i] == logits[best] and i < best):
                best = i
        return self.action_names[best]

    def check_schemas(self, env: EnvironmentModel) -> None:
        if self.feature_names != env.feature_schema:
            raise SchemaMismatchError(
                f"policy features {list(self.feature_names)} != model features {list(env.feature_schema)}"
            )
        if self.action_names != env.action_schema:
            raise SchemaMismatchError(
                f"policy actions {list(self.action_names)} != model actions {list(env.action_schema)}"
            )


def make_policy(
    feature_names: tuple[str, ...],
    action_names: tuple[str, ...],
    layers: list[tuple[np.ndarray, np.ndarray]] | tuple,
) -> NeuralPolicy:
    """Assemble a policy from (weights, bias) pairs, validating the chain."""
    built = []
    d_prev = len(feature_names)
    if not layers:
        raise PolicyFormatError("policy needs at least one layer")
    for k, (w, b) in enumerate(layers, start=1):
        not_finite = PolicyFormatError(f"layer {k}: weights and biases must be finite (no NaN or Infinity)")
        try:
            w, b = np.array(w, dtype=np.float64), np.array(b, dtype=np.float64)
        except OverflowError:  # an integer too large for a float
            raise not_finite from None
        if w.ndim != 2:
            raise PolicyFormatError(f"layer {k}: weight matrix must be 2-dimensional")
        if b.ndim != 1 or b.shape[0] != w.shape[0]:
            raise PolicyFormatError(
                f"layer {k}: bias has shape {b.shape}, expected ({w.shape[0]},)"
            )
        if w.shape[1] != d_prev:
            raise PolicyFormatError(
                f"layer {k}: weight matrix has {w.shape[1]} columns, expected {d_prev}"
            )
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise not_finite
        built.append(Layer(_frozen(w), _frozen(b)))
        d_prev = w.shape[0]
    if d_prev != len(action_names):
        raise PolicyFormatError(
            f"output layer emits {d_prev} logits, action schema has {len(action_names)}"
        )
    return NeuralPolicy(tuple(feature_names), tuple(action_names), tuple(built))


def load_policy(text: str) -> NeuralPolicy:
    """Parse the JSON policy document.

    Expected shape::

        {"features": [...], "actions": [...],
         "layers": [{"w": [[...], ...], "b": [...]}, ...]}

    Dimension mismatches anywhere along the layer chain raise
    PolicyFormatError naming the layer.
    """
    doc = read_json_object(text, ("features", "actions", "layers"), PolicyFormatError, "policy document")
    features = doc["features"]
    actions = doc["actions"]
    for name, value in (("features", features), ("actions", actions)):
        if not isinstance(value, list) or not value or not all(isinstance(v, str) for v in value):
            raise PolicyFormatError(f"'{name}' must be a non-empty list of strings")
    if not isinstance(doc["layers"], list) or not doc["layers"]:
        raise PolicyFormatError("'layers' must be a non-empty list")

    pairs = []
    for k, layer in enumerate(doc["layers"], start=1):
        if not isinstance(layer, dict) or set(layer) != {"w", "b"}:
            raise PolicyFormatError(f"layer {k}: must be an object with keys 'w' and 'b'")
        w, b = layer["w"], layer["b"]
        if (
            not isinstance(w, list)
            or not w
            or not all(isinstance(row, list) for row in w)
            or len({len(row) for row in w}) != 1
            or not all(_is_number(v) for row in w for v in row)
        ):
            raise PolicyFormatError(f"layer {k}: 'w' must be a rectangular matrix of numbers")
        if not isinstance(b, list) or not all(_is_number(v) for v in b):
            raise PolicyFormatError(f"layer {k}: 'b' must be a list of numbers")
        pairs.append((w, b))
    return make_policy(tuple(features), tuple(actions), pairs)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def dump_policy(policy: NeuralPolicy) -> str:
    """Serialize a policy; floats round-trip bit for bit through load."""
    doc = {
        "features": list(policy.feature_names),
        "actions": list(policy.action_names),
        "layers": [
            {"w": layer.weights.tolist(), "b": layer.bias.tolist()} for layer in policy.layers
        ],
    }
    return json.dumps(doc, indent=2)
