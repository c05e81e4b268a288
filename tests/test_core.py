"""Schedules, noise scaling, and hierarchical RNG streams."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metasgld.core import (DECAY_CONSTANT, DECAY_EXPONENTIAL, DECAY_INVERSE_T,
                           P_BATCH, P_NOISE_U, P_NOISE_W, P_TASK, P_TEST,
                           P_TRAIN_PROBE, RunConfig, Schedules, as_vector,
                           derive_stream, epoch_streams, noise_std, stream_states)


def sched(**kw):
    base = dict(eta0=0.2, beta0=0.4, gamma_outer=1e4, gamma_inner=1e4)
    base.update(kw)
    return Schedules(**base)


class TestScheduleValue:
    def test_constant_outer(self):
        assert sched().outer_lr(57) == 0.2

    def test_inverse_t_at_one(self):
        s = sched(decay_rule=DECAY_INVERSE_T, decay_c=1.0)
        assert s.outer_lr(1) == 1.0

    def test_inverse_t_c3_t6(self):
        s = sched(decay_rule=DECAY_INVERSE_T, decay_c=3.0)
        assert s.outer_lr(6) == 0.5

    def test_inner_inverse_uses_both_indices(self):
        s = sched(decay_rule=DECAY_INVERSE_T, decay_c=6.0)
        assert s.inner_lr(2, 3) == 1.0

    def test_exponential(self):
        s = sched(decay_rule=DECAY_EXPONENTIAL, decay_rate=0.5, decay_period=2.0)
        assert s.outer_lr(2) == pytest.approx(0.1)

    def test_zero_t_rejected(self):
        with pytest.raises(ValueError):
            sched().outer_lr(0)
        with pytest.raises(ValueError):
            sched().inner_lr(0, 1)
        # t is checked before k
        with pytest.raises(ValueError, match="iteration index t"):
            sched().inner_lr(0, 0)

    def test_zero_k_rejected(self):
        with pytest.raises(ValueError):
            sched().inner_lr(1, 0)

    @given(t=st.integers(1, 200), k=st.integers(1, 4),
           rule=st.sampled_from([DECAY_CONSTANT, DECAY_INVERSE_T, DECAY_EXPONENTIAL]))
    @settings(max_examples=60, deadline=None)
    def test_positivity(self, t, k, rule):
        s = sched(decay_rule=rule, decay_c=0.7, decay_rate=0.96, decay_period=3.0)
        assert s.outer_lr(t) > 0
        assert s.inner_lr(t, k) > 0
        assert noise_std(s.outer_lr(t), s.gamma_outer) > 0


class TestNoiseStd:
    def test_paper_values(self):
        # independent high-precision oracle for sqrt(2 * 0.2 / 10000)
        oracle = float(mpmath.sqrt(mpmath.mpf(2) * mpmath.mpf("0.2") / 10000))
        assert noise_std(0.2, 10000) == pytest.approx(oracle, rel=1e-12)
        assert noise_std(0.2, 10000) == pytest.approx(6.3246e-3, rel=1e-4)

    def test_trivial_unit_cases(self):
        assert noise_std(0.5, 1) == 1.0
        assert noise_std(2, 4) == 1.0

    def test_infinite_gamma_is_noise_off(self):
        assert noise_std(0.3, math.inf) == 0.0

    @pytest.mark.parametrize("lr,gamma", [(0, 1), (-1, 1), (1, 0), (1, -2)])
    def test_nonpositive_rejected(self, lr, gamma):
        with pytest.raises(ValueError):
            noise_std(lr, gamma)


class TestScheduleValidation:
    def test_bad_rule(self):
        with pytest.raises(ValueError):
            sched(decay_rule="linear")

    def test_nonpositive_rates(self):
        with pytest.raises(ValueError):
            sched(eta0=0)
        with pytest.raises(ValueError):
            sched(gamma_inner=-1)

    @pytest.mark.parametrize("name", ["gamma_outer", "gamma_inner"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_gamma_rejected(self, name, value):
        # an infinite gamma would weight every bound increment by inf
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            sched(**{name: value})


class TestAsVector:
    def test_two_dimensional_array_rejected(self):
        with pytest.raises(ValueError, match=r"^expected 1-D vector, got shape \(2, 2\)$"):
            as_vector(np.zeros((2, 2)))


EDGE_SEEDS = (0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1)    # one and two entropy words
SEEDS = st.sampled_from(EDGE_SEEDS) | st.integers(0, 2 ** 64 - 1)
ENTRIES = (st.sampled_from([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1])
           | st.integers(0, 2 ** 64 - 1))
PURPOSES = (P_TASK, P_BATCH, P_NOISE_U, P_NOISE_W, P_TEST, P_TRAIN_PROBE)


def seed_sequence_state(seed, path):
    return np.random.PCG64(np.random.SeedSequence(seed, spawn_key=tuple(path))).state


def seed_sequence_words(seed, purpose, ts):
    return np.stack([np.random.SeedSequence(seed, spawn_key=(purpose, t)).generate_state(8)
                     for t in ts])


class TestStreamStates:
    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    @settings(max_examples=25, deadline=None)
    @given(ts=st.lists(st.integers(0, 10 ** 5), min_size=1, max_size=30))
    @example(ts=[0, 1, 200, 10 ** 5])
    def test_run_addresses_equal_seed_sequence_pcg64(self, seed, ts):
        # the words PCG64 seeds itself from
        for p in PURPOSES:
            words = stream_states(seed, p, ts)
            assert words.dtype == np.uint32
            assert np.array_equal(words, seed_sequence_words(seed, p, ts))

    @settings(max_examples=100, deadline=None)
    @given(seed=SEEDS, purpose=st.sampled_from(PURPOSES),
           ts=st.lists(ENTRIES, min_size=1, max_size=8))
    def test_paths_of_one_and_two_word_entries(self, seed, purpose, ts):
        # t of 2**32 or more is two words of the entropy, in one call with one-word t
        assert np.array_equal(stream_states(seed, purpose, ts),
                              seed_sequence_words(seed, purpose, ts))

    def test_no_t_is_no_rows(self):
        assert stream_states(7, P_TASK, []).shape == (0, 8)

    @pytest.mark.parametrize("paths", [[(P_TASK, -1)], [(P_TASK, 2 ** 64)], [(P_TASK, 1.7)],
                                       [(-1, 1)], [(2 ** 32, 1)]])
    def test_malformed_paths_rejected(self, paths):
        # t is an integer in [0, 2**64), the purpose one word
        for purpose, t in paths:
            with pytest.raises(ValueError):
                stream_states(7, purpose, [1, t])


class TestEpochStreams:
    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    @settings(max_examples=25, deadline=None)
    @given(ts=st.lists(ENTRIES, max_size=30))
    @example(ts=[0, 1, 200, 10 ** 5])
    def test_generator_states_equal_seed_sequence_pcg64(self, seed, ts):
        # PCG64 seeds itself from the given words as from the SeedSequence
        seen = []
        for t, rngs in epoch_streams(seed, PURPOSES, ts):
            seen.append(t)
            for p, rng in rngs.items():
                assert rng.bit_generator.state == seed_sequence_state(seed, (p, t))
        assert seen == ts

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    def test_generators_equal_derive_stream(self, seed):
        # one call per purpose derives all 300 streams; each t has new generators
        ts = range(1, 301)
        for t, rngs in epoch_streams(seed, PURPOSES, ts):
            assert list(rngs) == list(PURPOSES)
            for p, rng in rngs.items():
                want = derive_stream(seed, (p, t))
                for draw in ("standard_normal", "random"):
                    assert getattr(rng, draw)(4).tobytes() == getattr(want, draw)(4).tobytes()
        assert t == 300

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    def test_earlier_generators_outlive_the_loop(self, seed):
        # a generator kept from t = 1 draws its own stream after later t are set
        kept = {t: rngs for t, rngs in epoch_streams(seed, PURPOSES, [1, 2, 300])}
        for t, rngs in kept.items():
            for p, rng in rngs.items():
                assert (rng.standard_normal(4).tobytes()
                        == derive_stream(seed, (p, t)).standard_normal(4).tobytes())


class TestDeriveStream:
    def test_determinism(self):
        a = derive_stream(7, [1, 2]).standard_normal(100)
        b = derive_stream(7, [1, 2]).standard_normal(100)
        assert np.array_equal(a, b)

    def test_path_separation(self):
        a = derive_stream(7, [1, 2]).standard_normal(100)
        b = derive_stream(7, [1, 3]).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_seed_separation(self):
        a = derive_stream(7, [1, 2]).standard_normal(100)
        b = derive_stream(8, [1, 2]).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            derive_stream(7, [])

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 1])
    def test_seed_outside_64_bits_rejected(self, seed):
        # masking to 64 bits made 2**64 + 1 the stream of 1 and -1 that of 2**64 - 1
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            derive_stream(seed, [1, 2])

    def test_seed_range_ends_accepted(self):
        for seed in (0, 2 ** 64 - 1):
            want = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(entropy=seed, spawn_key=(1, 2))))
            assert np.array_equal(derive_stream(seed, [1, 2]).standard_normal(8),
                                  want.standard_normal(8))

    def test_negative_path_entry_rejected(self):
        with pytest.raises(ValueError):
            derive_stream(7, [1, -1])

    @pytest.mark.parametrize("path", [[2 ** 64], [1, 2 ** 64]])
    def test_path_entry_outside_64_bits_rejected(self, path):
        with pytest.raises(ValueError, match=r"stream path entry must be in \[0, 2\*\*64\)"):
            derive_stream(7, path)

    @pytest.mark.parametrize("path", [[1.7], [1, 2.0]])
    def test_non_integer_path_entry_rejected(self, path):
        # int() made [1.7] the stream of [1]
        with pytest.raises(ValueError, match="stream path entry must be an integer"):
            derive_stream(0, path)

    @pytest.mark.parametrize("seed", [1.7, 1.0, "1"])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValueError, match=f"seed must be an integer, got {seed!r}"):
            derive_stream(seed, [1, 2])

    @settings(max_examples=200, deadline=None)
    @given(seed=SEEDS, path=st.lists(ENTRIES, min_size=1, max_size=4))
    def test_draws_equal_seed_sequence_pcg64(self, seed, path):
        # lengths 1-4 cover [t], [m, m_tr], [P, t] and the oracles' 4-tuples;
        # an entry of 2**32 or more is two words of the entropy
        want = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(seed, spawn_key=tuple(path))))
        got = derive_stream(seed, path)
        for draw in ("standard_normal", "random"):
            assert getattr(got, draw)(9).tobytes() == getattr(want, draw)(9).tobytes()
        assert np.array_equal(got.integers(0, 2 ** 32, 9, dtype=np.uint32),
                              want.integers(0, 2 ** 32, 9, dtype=np.uint32))

    def test_sibling_streams_uncorrelated(self):
        x = derive_stream(123, [5, 1]).standard_normal(10_000)
        y = derive_stream(123, [5, 2]).standard_normal(10_000)
        r = np.corrcoef(x, y)[0, 1]
        assert abs(r) < 0.05


class TestRunConfig:
    def base(self, **kw):
        d = dict(n=100, m=16, m_tr=8, m_va=8, task_batch=5, T=10, K=4,
                 schedules=sched(), seed=0)
        d.update(kw)
        return RunConfig(**d)

    def test_valid(self):
        cfg = self.base()
        assert cfg.mc_replicas == 10 and cfg.test_adapt_steps == 10

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be in"):
            self.base(seed=seed)
        assert self.base(seed=2 ** 64 - 1).seed == 2 ** 64 - 1

    def test_non_integer_seed_rejected(self):
        # 1.7 passed the range check and ran seed 1's streams
        with pytest.raises(ValueError, match="seed must be an integer, got 1.7"):
            self.base(seed=1.7)

    def test_split_must_sum(self):
        with pytest.raises(ValueError):
            self.base(m_tr=9)

    def test_m_tr_zero_rejected(self):
        with pytest.raises(ValueError):
            self.base(m_tr=0, m_va=16)

    def test_negative_m_va_rejected(self):
        # the split sums to m, so only the sign check can reject it
        with pytest.raises(ValueError, match="^m_va must be >= 0$"):
            self.base(m=4, m_tr=5, m_va=-1)

    def test_mc_replicas_below_one_rejected(self):
        with pytest.raises(ValueError, match="^mc_replicas must be >= 1$"):
            self.base(mc_replicas=0)

    def test_task_batch_bounds(self):
        with pytest.raises(ValueError):
            self.base(task_batch=101)
        with pytest.raises(ValueError):
            self.base(task_batch=0)

    def test_inner_batch_bounds(self):
        with pytest.raises(ValueError):
            self.base(inner_batch=9)
