"""Shared exception types and their CLI exit codes.

Every error the toolchain can surface to a user maps onto one of four exit
codes, so the hierarchy here is grouped by exit code rather than by module.
"""

from __future__ import annotations

# ===== Exit codes =====

# Input could not be parsed: property text, model document, policy document,
# builtin URI, or mismatched schemas between inputs.
EXIT_PARSE = 2
# Input parsed but the model is semantically invalid (bad distribution,
# deadlock, dangling state reference).
EXIT_INVALID_MODEL = 3
# Exploration limits exceeded before the state space closed.
EXIT_LIMITS = 4
# Numeric solver failed to reach its tolerance.
EXIT_NO_CONVERGENCE = 5


class PrunecheckError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = EXIT_PARSE


class PropertySyntaxError(PrunecheckError):
    """Property text does not match the grammar.

    Carries the character offset of the failure for caret diagnostics.
    """

    exit_code = EXIT_PARSE

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class PropertySemanticError(PrunecheckError):
    """Property parsed but is not well-formed (threshold out of range)."""

    exit_code = EXIT_PARSE


class ModelSyntaxError(PrunecheckError):
    """Model document is not valid JSON or misses required structure."""

    exit_code = EXIT_PARSE


class ModelSemanticError(PrunecheckError):
    """Model parsed but violates a model invariant."""

    exit_code = EXIT_INVALID_MODEL


class PolicyFormatError(PrunecheckError):
    """Policy document is malformed or its layer shapes do not chain."""

    exit_code = EXIT_PARSE


class SchemaMismatchError(PrunecheckError):
    """Two inputs disagree on feature or action schemas."""

    exit_code = EXIT_PARSE


class ConfigError(PrunecheckError):
    """Builtin environment configuration is out of range."""

    exit_code = EXIT_PARSE


class PruneSpecError(PrunecheckError):
    """Pruning specification is not applicable to the given policy."""

    exit_code = EXIT_PARSE


class LimitExceededError(PrunecheckError):
    """State-space exploration hit a configured bound.

    Distinct from invalidity: the model may be fine, just larger than the
    caller allowed. Partial progress is attached for diagnostics.
    """

    exit_code = EXIT_LIMITS

    def __init__(self, message: str, states_seen: int, transitions_seen: int):
        super().__init__(message)
        self.states_seen = states_seen
        self.transitions_seen = transitions_seen


class SolverError(PrunecheckError):
    """Iterative solver exhausted its sweep budget above tolerance."""

    exit_code = EXIT_NO_CONVERGENCE

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class UnknownLabelWarning(UserWarning):
    """A property mentions a label that no state of the chain carries."""
