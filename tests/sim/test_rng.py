"""Tests for the deterministic random source."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import SimRandom


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = SimRandom(42)
        b = SimRandom(42)
        assert [a.random() for _ in range(10)] == \
            [b.random() for _ in range(10)]

    def test_fork_is_independent_of_draw_order(self):
        a = SimRandom(42)
        a.random()  # perturb parent state
        b = SimRandom(42)
        assert a.fork("disk").random() == b.fork("disk").random()

    def test_fork_salts_differ(self):
        root = SimRandom(42)
        assert root.fork("a").random() != root.fork("b").random()


class TestDraws:
    def test_chance_bounds(self):
        rng = SimRandom(1)
        with pytest.raises(ValueError):
            rng.chance(1.5)
        assert rng.chance(1.0) is True
        assert rng.chance(0.0) is False

    def test_jitter_mean_approximately_preserved(self):
        rng = SimRandom(7)
        draws = [rng.jitter(1000, sigma=0.15) for _ in range(5000)]
        mean = sum(draws) / len(draws)
        assert mean == pytest.approx(1000, rel=0.05)

    def test_jitter_zero_sigma_exact(self):
        rng = SimRandom(7)
        assert rng.jitter(500, sigma=0) == 500

    def test_jitter_validation(self):
        rng = SimRandom(1)
        with pytest.raises(ValueError):
            rng.jitter(0)
        with pytest.raises(ValueError):
            rng.jitter(100, sigma=-1)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="sigma"):
                rng.jitter(100.0, bad)
        # Nothing was drawn: the stream is where a fresh one starts.
        assert rng.random() == SimRandom(1).random()

    def test_exponential_positive(self):
        rng = SimRandom(2)
        for _ in range(100):
            assert rng.exponential(100) > 0
        with pytest.raises(ValueError):
            rng.exponential(0)

    def test_pareto_bounded_below(self):
        rng = SimRandom(3)
        for _ in range(100):
            assert rng.pareto_cycles(50) >= 50
        with pytest.raises(ValueError):
            rng.pareto_cycles(0)
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="alpha"):
                rng.pareto_cycles(100.0, bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("draw", ["jitter", "exponential",
                                      "pareto_cycles"])
    def test_non_finite_location_rejected(self, draw, bad):
        rng = SimRandom(4)
        with pytest.raises(ValueError, match="finite"):
            getattr(rng, draw)(bad)
        # Nothing was drawn: the stream is where a fresh one starts.
        assert rng.random() == SimRandom(4).random()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("draw", ["jitter", "pareto_cycles"])
    def test_non_finite_shape_rejected(self, draw, bad):
        rng = SimRandom(4)
        with pytest.raises(ValueError, match="finite"):
            getattr(rng, draw)(100.0, bad)
        assert rng.random() == SimRandom(4).random()

    @given(seed=st.integers(min_value=0, max_value=2**32),
           mean=st.floats(min_value=1.0, max_value=1e9),
           sigma=st.sampled_from([1e-6, 0.15, 0.3, 2.0]))
    @settings(max_examples=200)
    def test_jitter_is_lognormvariate(self, seed, mean, sigma):
        """Bit for bit ``random.lognormvariate``, stream position included."""
        ours = SimRandom(seed)
        reference = random.Random(seed)
        mu = math.log(mean) - sigma * sigma / 2.0
        for _ in range(3):
            assert ours.jitter(mean, sigma) \
                == reference.lognormvariate(mu, sigma)
        assert ours.random() == reference.random()

    @given(st.integers(min_value=0, max_value=2**30))
    @settings(max_examples=20)
    def test_uniform_within_bounds(self, seed):
        rng = SimRandom(seed)
        value = rng.uniform(10, 20)
        assert 10 <= value <= 20

    def test_sample_and_choice(self):
        rng = SimRandom(4)
        items = list(range(10))
        picked = rng.sample(items, 3)
        assert len(set(picked)) == 3
        assert rng.choice(items) in items
