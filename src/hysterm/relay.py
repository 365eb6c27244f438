"""Scalar relay hysteresis operator and its pointwise lift to grid fields.

The relay maps a continuous input trajectory to {-1, +1}: it switches to +1
only when the input reaches the upper threshold, to -1 only at the lower
threshold, and otherwise keeps its previous value.  Threshold comparisons
are closed (>= upper, <= lower); crossings between samples are not
sub-resolved, so the relay sees only the sampled trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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

    @property
    def band(self) -> float:
        return self.beta - self.alpha


def relay_init(u0: float, h_hint: int, th: Thresholds) -> int:
    """Initial relay state for input value ``u0``.

    Outside the open band the state is forced by the input; inside it the
    prescribed ``h_hint`` selects the branch of the multivalued relation.
    """
    if u0 <= th.alpha:
        return MINUS
    if u0 >= th.beta:
        return PLUS
    if h_hint not in (MINUS, PLUS):
        raise ValueError(f"h_hint must be -1 or +1, got {h_hint}")
    return h_hint


def relay_step(prev: int, u_new: float, th: Thresholds) -> int:
    """Advance the relay by one sample.

    Pure function of (prev, u_new): lands exactly on a threshold give the
    saturated value even when that repeats the previous state.
    """
    if u_new >= th.beta:
        return PLUS
    if u_new <= th.alpha:
        return MINUS
    return prev


def relay_trace(
    u_samples: Sequence[float], h0: int, th: Thresholds
) -> np.ndarray:
    """Left-fold of ``relay_step`` along a sampled trajectory.

    ``out[0] = relay_step(h0, u_samples[0])``; output length equals input
    length.  Depends only on sample order, not on spacing.
    """
    samples = np.asarray(u_samples, dtype=float)
    if samples.size == 0:
        raise ValueError("u_samples must be non-empty")
    out = np.empty(samples.size, dtype=np.int8)
    h = h0
    for k, u in enumerate(samples):
        h = relay_step(h, u, th)
        out[k] = h
    return out


def relay_rule(plus: np.ndarray, u_new: np.ndarray, th: Thresholds,
               scratch: np.ndarray) -> np.ndarray:
    """Pointwise ``relay_step`` on boolean states, in place.

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
    """Pointwise ``relay_step`` over a ±1 int8 field; no spatial coupling."""
    prev = np.asarray(prev)
    u_new = np.asarray(u_new)
    if prev.shape != u_new.shape:
        raise ValueError(
            f"shape mismatch: relay field {prev.shape} vs input {u_new.shape}"
        )
    plus = relay_rule(prev == PLUS, u_new, th, np.empty(prev.shape, dtype=bool))
    return np.where(plus, PLUS, MINUS).astype(np.int8)


def field_init(u0: np.ndarray, h_hint, th: Thresholds) -> np.ndarray:
    """Vectorized ``relay_init`` over a spatial field.

    ``h_hint`` may be a scalar or an array matching ``u0``.  For a valid
    hint ``relay_init`` is ``relay_step`` from the hint, so this is
    ``field_update`` from it.
    """
    hint = np.broadcast_to(np.asarray(h_hint, dtype=np.int8), u0.shape)
    if not np.isin(hint, (MINUS, PLUS)).all():
        raise ValueError("h_hint values must be -1 or +1")
    return field_update(hint, u0, th)
