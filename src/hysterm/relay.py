"""The relay hysteresis operator, applied pointwise to grid fields.

The relay maps a continuous input trajectory to {-1, +1}: it switches to +1
only when the input reaches the upper threshold, to -1 only at the lower
threshold, and otherwise keeps its previous value.  Threshold comparisons
are closed (>= upper, <= lower); crossings between samples are not
sub-resolved, so the relay sees only the sampled trajectory.  Each node of
a field carries one relay; the scalar fold along one trajectory, which the
tests hold these field rules against, lives in ``tests/conftest.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MINUS = -1
PLUS = 1


@dataclass(frozen=True)
class Thresholds:
    """Switching levels of the relay; ``alpha < beta`` strictly."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not self.alpha < self.beta:
            raise ValueError(
                f"alpha >= beta: alpha={self.alpha}, beta={self.beta}"
            )


def relay_rule(plus: np.ndarray, u_new: np.ndarray, th: Thresholds,
               scratch: np.ndarray) -> np.ndarray:
    """One relay sample at every node, on boolean states, in place.

    ``plus`` marks the +1 states and becomes
    ``(plus & (u_new > alpha)) | (u_new >= beta)``: saturated above beta,
    reset at or below alpha, kept in between.  ``scratch`` is a bool buffer
    of the same shape; returns ``plus``.
    """
    np.greater(u_new, th.alpha, out=scratch)
    plus &= scratch
    np.greater_equal(u_new, th.beta, out=scratch)
    plus |= scratch
    return plus


def field_update(
    prev: np.ndarray, u_new: np.ndarray, th: Thresholds
) -> np.ndarray:
    """One relay sample at every node of a ±1 int8 field; no spatial
    coupling."""
    prev = np.asarray(prev)
    u_new = np.asarray(u_new)
    if prev.shape != u_new.shape:
        raise ValueError(
            f"shape mismatch: relay field {prev.shape} vs input {u_new.shape}"
        )
    plus = relay_rule(prev == PLUS, u_new, th, np.empty(prev.shape, dtype=bool))
    return np.where(plus, PLUS, MINUS).astype(np.int8)


def field_init(u0: np.ndarray, h_hint, th: Thresholds) -> np.ndarray:
    """The initial relay field for input ``u0``.

    Outside the open band the state is forced by the input; inside it the
    hint selects the branch of the multivalued relation.  ``h_hint`` may be
    a scalar or an array matching ``u0``; each value must be -1 or +1.
    That is one relay sample from the hint, ``field_update`` from it.
    """
    hint = np.broadcast_to(np.asarray(h_hint, dtype=np.int8), u0.shape)
    if not np.isin(hint, (MINUS, PLUS)).all():
        raise ValueError("h_hint values must be -1 or +1")
    return field_update(hint, u0, th)
