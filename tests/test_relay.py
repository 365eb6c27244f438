"""Relay operator: jump rules, memory, and hysteresis invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import relay_init, relay_step, relay_trace
from hysterm.relay import Thresholds, field_init, field_update, relay_rule

TH = Thresholds(0.0, 1.0)


class TestThresholds:
    def test_valid(self):
        assert (TH.alpha, TH.beta) == (0.0, 1.0)

    @pytest.mark.parametrize("a,b", [(1.0, 0.0), (0.5, 0.5)])
    def test_invalid_order(self, a, b):
        with pytest.raises(ValueError, match="alpha >= beta"):
            Thresholds(a, b)


class TestRelayInit:
    def test_below_band_overrides_hint(self):
        assert relay_init(-1.0, 1, TH) == -1

    def test_at_beta_overrides_hint(self):
        assert relay_init(1.0, -1, TH) == 1

    def test_inside_band_uses_hint(self):
        assert relay_init(0.5, -1, TH) == -1
        assert relay_init(0.5, 1, TH) == 1

    def test_bad_hint(self):
        with pytest.raises(ValueError):
            relay_init(0.5, 0, TH)


class TestRelayStep:
    def test_jump_up_at_beta(self):
        assert relay_step(-1, 1.0, TH) == 1

    def test_memory_inside_band(self):
        assert relay_step(1, 0.5, TH) == 1
        assert relay_step(-1, 0.5, TH) == -1

    def test_jump_down_at_alpha(self):
        assert relay_step(1, 0.0, TH) == -1

    def test_saturated_value_even_when_repeating(self):
        assert relay_step(1, 1.0, TH) == 1
        assert relay_step(-1, 0.0, TH) == -1


class TestRelayTrace:
    def test_hand_fold(self):
        out = relay_trace([0.5, 1.0, 0.5, 0.0, 0.5], -1, TH)
        assert out.tolist() == [-1, 1, 1, -1, -1]

    def test_constant_inside_band_keeps_memory(self):
        out = relay_trace([0.5] * 7, 1, TH)
        assert (out == 1).all()

    def test_single_saturating_sample(self):
        assert relay_trace([2.0], -1, TH).tolist() == [1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            relay_trace([], -1, TH)


samples_strategy = st.lists(
    st.floats(min_value=-2.0, max_value=3.0, allow_nan=False), min_size=1, max_size=40
)
h0_strategy = st.sampled_from([-1, 1])


class TestHysteresisProperties:
    @given(samples=samples_strategy, h0=h0_strategy, k=st.integers(0, 39))
    @settings(max_examples=200, deadline=None)
    def test_rate_independence_duplicating_a_sample(self, samples, h0, k):
        """Repeating a sample in place does not change the states at the
        original sample positions (the relay sees order, not spacing)."""
        k = min(k, len(samples) - 1)
        base = relay_trace(samples, h0, TH)
        stretched = samples[: k + 1] + [samples[k]] + samples[k + 1 :]
        out = relay_trace(stretched, h0, TH)
        kept = np.concatenate([out[: k + 1], out[k + 2 :]])
        assert kept.tolist() == base.tolist()

    @given(samples=samples_strategy, h0=h0_strategy)
    @settings(max_examples=200, deadline=None)
    def test_no_chattering_flips_require_threshold(self, samples, h0):
        out = relay_trace(samples, h0, TH)
        states = [h0] + out.tolist()
        for k in range(1, len(states)):
            if states[k] != states[k - 1]:
                if states[k] == 1:
                    assert samples[k - 1] >= TH.beta
                else:
                    assert samples[k - 1] <= TH.alpha

    @given(samples=samples_strategy, h0=h0_strategy)
    @settings(max_examples=100, deadline=None)
    def test_saturation_idempotence(self, samples, h0):
        saturated = samples + [1.5, 1.7, 2.0]
        out = relay_trace(saturated, h0, TH)
        assert (out[len(samples):] == 1).all()

    @given(
        u=st.lists(st.floats(-1.0, 2.0, allow_nan=False), min_size=2, max_size=30),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=100, deadline=None)
    def test_field_update_commutes_with_permutation(self, u, seed):
        rng = np.random.default_rng(seed)
        u = np.asarray(u)
        prev = rng.choice([-1, 1], size=u.shape).astype(np.int8)
        perm = rng.permutation(u.size)
        direct = field_update(prev, u, TH)[perm]
        permuted = field_update(prev[perm], u[perm], TH)
        assert (direct == permuted).all()

    @given(
        rows=st.integers(1, 8),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_relay_rule_is_the_fold_of_relay_step(self, rows, data):
        """Boolean rule applied to a sequence of fields == per-point fold,
        and ``field_init`` == ``relay_init`` per point."""
        n = data.draw(st.integers(1, 12))
        value = st.one_of(st.floats(-1.0, 2.0), st.sampled_from([TH.alpha, TH.beta]))
        fields = np.array(data.draw(st.lists(
            st.lists(value, min_size=n, max_size=n), min_size=rows, max_size=rows
        )))
        h0 = np.array(data.draw(st.lists(h0_strategy, min_size=n, max_size=n)))
        plus, scratch = h0 == 1, np.empty(n, dtype=bool)
        h = h0.astype(np.int8)
        folds = [relay_trace(fields[:, i], h0[i], TH) for i in range(n)]
        # one sample from per-node hints: the fold's first state
        init = field_init(fields[0], h0, TH)
        assert init.tolist() == [relay_init(fields[0, i], h0[i], TH) for i in range(n)]
        assert init.tolist() == [fold[0] for fold in folds]
        for k, u in enumerate(fields):
            relay_rule(plus, u, TH, scratch)
            h = field_update(h, u, TH)
            expected = [fold[k] for fold in folds]
            assert np.where(plus, 1, -1).tolist() == expected
            assert h.tolist() == expected


class TestFieldOps:
    def test_field_update_all_jump_up(self):
        prev = np.full(8, -1, dtype=np.int8)
        out = field_update(prev, np.full(8, 1.0), TH)
        assert (out == 1).all()

    def test_field_update_memory(self):
        prev = np.array([-1, 1, -1, 1], dtype=np.int8)
        out = field_update(prev, np.full(4, 0.5), TH)
        assert (out == prev).all()

    def test_field_update_single_flip(self):
        prev = np.full(10, 1, dtype=np.int8)
        u = np.full(10, 0.5)
        u[3] = -0.2
        out = field_update(prev, u, TH)
        assert (out == 1).sum() == 9 and out[3] == -1

    def test_field_update_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            field_update(np.ones(3, dtype=np.int8), np.ones(4), TH)

    def test_field_init_mixed(self):
        u0 = np.array([-0.5, 0.5, 1.5])
        out = field_init(u0, 1, TH)
        assert out.tolist() == [-1, 1, 1]
        out = field_init(u0, -1, TH)
        assert out.tolist() == [-1, -1, 1]
        assert out.dtype == np.int8
