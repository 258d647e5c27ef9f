"""Tests for deterministic RNG utilities and the Zipf generator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernel.rng import (ZipfGenerator, derive_seed, exponential_ps,
                              make_rng, shuffled, zipf_cdf)


def test_derive_seed_stable_and_label_sensitive():
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")


def test_make_rng_streams_independent():
    r1, r2 = make_rng(7, "x"), make_rng(7, "y")
    assert [r1.random() for _ in range(5)] != [r2.random() for _ in range(5)]


def test_make_rng_reproducible():
    a = [make_rng(3, "s").random() for _ in range(3)]
    b = [make_rng(3, "s").random() for _ in range(3)]
    assert a == b


def test_zipf_validates_args():
    rng = make_rng(0, "z")
    with pytest.raises(ValueError):
        ZipfGenerator(0, 1.0, rng)
    with pytest.raises(ValueError):
        ZipfGenerator(10, -1.0, rng)


def test_zipf_skew_orders_popularity():
    gen = ZipfGenerator(100, 1.8, make_rng(0, "zipf"))
    assert gen.popularity(0) > gen.popularity(1) > gen.popularity(10)


def test_zipf_popularity_sums_to_one():
    gen = ZipfGenerator(50, 1.2, make_rng(0, "zipf2"))
    total = sum(gen.popularity(r) for r in range(50))
    assert abs(total - 1.0) < 1e-9


def test_zipf_18_concentrates_mass():
    """With theta=1.8 (the paper's KV workload) the head dominates."""
    gen = ZipfGenerator(10_000, 1.8, make_rng(0, "zipf3"))
    head = sum(gen.popularity(r) for r in range(64))
    assert head > 0.9


def test_zipf_empirical_matches_popularity():
    gen = ZipfGenerator(20, 1.5, make_rng(0, "zipf4"))
    counts = [0] * 20
    n = 20_000
    for _ in range(n):
        counts[gen.sample()] += 1
    assert abs(counts[0] / n - gen.popularity(0)) < 0.02


def test_zipf_theta_zero_is_uniform():
    gen = ZipfGenerator(10, 0.0, make_rng(0, "zipf5"))
    for r in range(10):
        assert abs(gen.popularity(r) - 0.1) < 1e-9


def _reference_cdf(n, theta):
    """The per-generator CDF loop the shared table replaced."""
    weights = [1.0 / float(rank + 1) ** theta for rank in range(n)]
    total = sum(weights)
    cdf = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    cdf[-1] = 1.0
    return cdf


def _reference_sample(cdf, u):
    """The hand-written bisection the C bisect replaced."""
    lo, hi = 0, len(cdf) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cdf[mid] < u:
            lo = mid + 1
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("theta", [0.0, 0.99, 1.8])
def test_zipf_table_and_search_equal_the_reference(theta):
    """Same CDF element for element, same rank for every draw."""
    n = 10_000
    cdf = _reference_cdf(n, theta)
    assert list(zipf_cdf(n, theta)) == cdf
    gen = ZipfGenerator(n, theta, make_rng(0, f"zref{theta}"))
    draws = make_rng(0, f"zref{theta}")
    for _ in range(10_000):
        assert gen.sample() == _reference_sample(cdf, draws.random())


def test_zipf_table_is_shared_per_shape():
    a = ZipfGenerator(1000, 1.2, make_rng(0, "a"))
    b = ZipfGenerator(1000, 1.2, make_rng(0, "b"))
    assert a._cdf is b._cdf
    assert ZipfGenerator(1000, 1.3, make_rng(0, "c"))._cdf is not a._cdf


@given(st.integers(min_value=1, max_value=500))
@settings(max_examples=30)
def test_zipf_samples_in_range(n):
    gen = ZipfGenerator(n, 1.8, make_rng(0, f"zr{n}"))
    for _ in range(20):
        assert 0 <= gen.sample() < n


def test_exponential_positive_and_mean():
    rng = make_rng(0, "exp")
    samples = [exponential_ps(rng, 1000) for _ in range(20_000)]
    assert all(s >= 1 for s in samples)
    mean = sum(samples) / len(samples)
    assert 900 < mean < 1100


def test_exponential_rejects_bad_mean():
    with pytest.raises(ValueError):
        exponential_ps(make_rng(0, "e"), 0)


def test_shuffled_does_not_mutate():
    items = [1, 2, 3, 4, 5]
    out = shuffled(items, make_rng(0, "sh"))
    assert items == [1, 2, 3, 4, 5]
    assert sorted(out) == items
