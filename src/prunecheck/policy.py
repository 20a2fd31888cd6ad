"""Feed-forward policy networks over factored states.

A policy is a sequence of dense layers: rectified-linear hidden layers and
an affine output layer whose logits line up with the action schema. Inputs
are the raw integer feature values cast to float64, with no normalization,
so a state's logits are a pure deterministic function of the weights.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PolicyFormatError, SchemaMismatchError
from .model import EnvironmentModel, StateVector, read_json_object


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _apply(layer: Layer, x: np.ndarray, hidden: bool) -> np.ndarray:
    """``layer`` on ``x`` or on each of its rows, one matrix-vector product per row, rectified when ``hidden``."""
    x = np.matmul(layer.weights, x[..., None])[..., 0] + layer.bias
    return np.maximum(x, 0.0) if hidden else x


@dataclass(frozen=True, eq=False)
class Layer:
    """One dense layer; row i of ``weights`` feeds output neuron i.

    Weights that are read-only, as ``make_policy`` leaves them, must keep
    their values for as long as the ``Layer`` lives, also if their flag is
    set writable again: ``pruning`` derives a read-only layer's nonzero
    coordinates and ranking once and reuses them.
    """

    weights: np.ndarray  # shape (d_out, d_in)
    bias: np.ndarray  # shape (d_out,)


@dataclass(frozen=True, eq=False)
class NeuralPolicy:
    """A network mapping feature vectors to one logit per schema action.

    Attributes:
        feature_names: input schema; must match the environment's features.
        action_names: output schema; logit i scores action_names[i].
        layers: at least one Layer; every layer but the last is followed by
            a rectifier, the last is affine. Read-only weights must never
            change (see ``Layer``).
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
        the last bit. A pass restarted at a later layer from the activations
        entering it, as ``_restart`` does, gives the same bits.
        """
        x = np.asarray(states, dtype=np.float64)
        width = len(self.feature_names)
        if x.ndim not in (1, 2) or x.shape[-1] != width:
            raise ValueError(f"input has shape {x.shape}, policy expects ({width},) or (rows, {width})")
        return self._resume(x, 0)

    def _resume(self, x: np.ndarray, start: int) -> np.ndarray:
        """The logits of rows whose activations entering layer ``start`` (0-based) are ``x``."""
        last = len(self.layers) - 1
        for k in range(start, last + 1):
            x = _apply(self.layers[k], x, k != last)
        return x

    def _restart(self, original: NeuralPolicy, entering: list[np.ndarray]) -> np.ndarray:
        """``forward(entering[0])`` for a policy whose first layers are ``original``'s own ``Layer`` objects.

        ``entering[k]`` holds ``original``'s activations entering layer k on
        the rows, for as many layers as were needed so far. The pass restarts
        at the first layer that is not ``original``'s, or at the last layer
        when none differs, and first adds the activations up to there to
        ``entering``: the layers before it are the same, so those are the
        activations ``forward`` would compute, bit for bit.
        """
        start = next((k for k, layer in enumerate(self.layers) if layer is not original.layers[k]), len(self.layers) - 1)
        while len(entering) <= start:
            k = len(entering) - 1
            entering.append(_apply(original.layers[k], entering[k], True))
        return self._resume(entering[start], start)

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
        Each distinct action set is checked against the schema once, and its
        schema indices kept; an empty set, or one naming an action the
        schema lacks, is never kept and raises on every call.
        """
        try:
            positions = self._positions[available]
        except (KeyError, TypeError):  # a set not checked yet, or one that is no dict key, such as a list
            positions = self._schema_positions(available)
        best = None
        for i in positions:
            if best is None or logits[i] > logits[best] or (logits[i] == logits[best] and i < best):
                best = i
        return self.action_names[best]

    @cached_property
    def _positions(self) -> dict[tuple[str, ...], tuple[int, ...]]:
        """The schema indices of each action set ``pick`` has checked, in the set's order."""
        return {}

    def _schema_positions(self, available) -> tuple[int, ...]:
        """The schema indices of ``available`` once it is checked, kept when it is a tuple."""
        if not available:
            raise ValueError("no available actions to select from")
        index = self.action_index
        for name in available:
            if name not in index:
                raise SchemaMismatchError(f"available action {name!r} is not in the policy's schema")
        positions = tuple(index[name] for name in available)
        if type(available) is tuple:  # a list could change once kept
            self._positions[available] = positions
        return positions

    def pick_rows(self, inputs: np.ndarray, available: np.ndarray, offered: Sequence[tuple[str, ...]]) -> np.ndarray:
        """The schema index ``pick`` chooses on each row of ``inputs``; an empty ``inputs`` skips ``forward``.

        ``available`` masks each row's action set, and ``offered[row]`` lists
        it in the order ``pick`` reads it. Without a NaN among the available
        logits, ``pick`` takes the largest, an equal one going to the smaller
        schema index whatever that order, and one ``argmax`` does the same. NaN
        orders nothing, so ``pick``'s choice then depends on the order of the
        set, and such a row is left to ``pick`` itself.
        """
        if not len(inputs):
            return np.zeros(0, dtype=np.intp)
        return self._pick_logits(self.forward(inputs), available, offered)

    def _pick_logits(self, logits: np.ndarray, available: np.ndarray, offered: Sequence[tuple[str, ...]]) -> np.ndarray:
        """``pick_rows``'s choices from the rows' logits, however the pass that gave them was run.

        ``argmax`` takes the first largest entry, and the first NaN before
        any number, so a row whose pick is not NaN or -inf holds no NaN among
        its available logits and the pick is ``pick``'s. A -inf pick, every
        available logit -inf, is left to ``pick`` as well.
        """
        masked = np.where(available, logits, -np.inf)
        picks = masked.argmax(axis=1)
        settled = masked[np.arange(len(picks)), picks] > -np.inf
        if not settled.all():
            for row in np.flatnonzero(~settled).tolist():
                picks[row] = self.action_index[self.pick(logits[row].tolist(), offered[row])]
        return picks

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
    """Assemble a policy from (weights, bias) pairs, validating the names and the chain."""
    _require_distinct(feature_names, action_names)
    built = []
    d_prev = len(feature_names)
    if not layers:
        raise PolicyFormatError("policy needs at least one layer")
    for k, (w, b) in enumerate(layers, start=1):
        w, b = _float_array(k, "w", w), _float_array(k, "b", b)
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
        built.append(_finite(k, Layer(_frozen(w), _frozen(b))))
        d_prev = w.shape[0]
    if d_prev != len(action_names):
        raise PolicyFormatError(
            f"output layer emits {d_prev} logits, action schema has {len(action_names)}"
        )
    return NeuralPolicy(tuple(feature_names), tuple(action_names), tuple(built))


def _with_weights(policy: NeuralPolicy, weights: dict[int, np.ndarray]) -> NeuralPolicy:
    """``policy`` with the weights of the layers ``weights`` names (0-based) replaced by those arrays, frozen.

    Every other layer is ``policy``'s own ``Layer`` object. The names and
    every layer's finiteness are checked as ``make_policy`` checks them, with
    the same errors in the same order; the shapes are ``policy``'s.
    """
    _require_distinct(policy.feature_names, policy.action_names)
    layers = tuple(
        _finite(k, Layer(_frozen(weights[k - 1]), layer.bias) if k - 1 in weights else layer)
        for k, layer in enumerate(policy.layers, start=1)
    )
    return NeuralPolicy(policy.feature_names, policy.action_names, layers)


def _require_distinct(feature_names: tuple[str, ...], action_names: tuple[str, ...]) -> None:
    for name, names in (("features", feature_names), ("actions", action_names)):
        if len(set(names)) != len(names):
            raise PolicyFormatError(f"'{name}' contains duplicates")


def _float_array(k: int, name: str, value: object) -> np.ndarray:
    """Layer ``k``'s array ``name`` ("w" or "b") as float64, or the error that names them."""
    try:
        return np.array(value, dtype=np.float64)
    except OverflowError:  # an integer too large for a float
        raise _not_finite(k) from None
    except (ValueError, TypeError):  # ragged, or an entry that is not a number
        raise PolicyFormatError(f"layer {k}: {name!r} must be an array of numbers") from None


def _not_finite(k: int) -> PolicyFormatError:
    return PolicyFormatError(f"layer {k}: weights and biases must be finite (no NaN or Infinity)")


def _finite(k: int, layer: Layer) -> Layer:
    """``layer``, the ``k``-th, once its weights and bias are found finite."""
    if not (np.isfinite(layer.weights).all() and np.isfinite(layer.bias).all()):
        raise _not_finite(k)
    return layer


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
