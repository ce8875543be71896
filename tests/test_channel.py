import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from berbench.channel import (
    Bsc,
    FixedMask,
    GilbertElliott,
    Ideal,
    _CHUNK,
    _uniforms,
    apply,
    derive_seed,
    mix64,
    model_from_dict,
    model_to_dict,
    open_stream,
)
from berbench.prbs import PrbsSpec, generate


def test_mix64_reference_values():
    # splitmix64 with seed 0: first three outputs of the reference sequence.
    golden = 0x9E3779B97F4A7C15
    seq = [mix64((i + 1) * golden & (2**64 - 1)) for i in range(3)]
    assert seq == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_ideal_is_identity():
    bits = generate(PrbsSpec(), 10_000)
    assert np.array_equal(apply(Ideal(seed=5), bits), bits)


def test_bsc_probability_one_is_complement():
    bits = generate(PrbsSpec(), 10_000)
    assert np.array_equal(apply(Bsc(p=1.0, seed=9), bits), bits ^ 1)


def test_bsc_probability_zero_is_identity():
    bits = generate(PrbsSpec(), 10_000)
    assert np.array_equal(apply(Bsc(p=0.0, seed=9), bits), bits)


def test_bsc_flip_count_within_three_sigma():
    p = 1e-3
    n = 10**6
    bits = generate(PrbsSpec(), n)
    out = apply(Bsc(p=p, seed=20240117), bits)
    flips = int(np.count_nonzero(out ^ bits))
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(flips - n * p) <= 3 * sigma


def test_bsc_validation():
    with pytest.raises(ValueError):
        Bsc(p=1.5)


@settings(max_examples=25)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1))
def test_determinism(seed):
    bits = generate(PrbsSpec(), 2000)
    model = Bsc(p=0.01, seed=seed)
    assert np.array_equal(apply(model, bits), apply(model, bits))


def test_segmented_stream_equals_one_shot():
    bits = generate(PrbsSpec(), 30_000)
    model = Bsc(p=0.005, seed=77)
    whole = apply(model, bits)
    stream = open_stream(model)
    parts = [stream.apply(bits[:7_000]), stream.apply(bits[7_000:19_000]), stream.apply(bits[19_000:])]
    assert np.array_equal(np.concatenate(parts), whole)


def test_bsc_flips_are_the_positional_draws_across_passes():
    # The stream's second call starts mid-pass and ends mid-pass.
    model = Bsc(p=0.01, seed=5)
    n = 3 * _CHUNK + 17
    bits = np.zeros(n, np.uint8)
    stream = open_stream(model)
    stream.apply(bits[:1001])
    out = stream.apply(bits)
    assert np.array_equal(out, (_uniforms(model.seed, 1001, n) < model.p).astype(np.uint8))


@pytest.mark.parametrize(
    "model",
    [Bsc(p=1e-3, seed=3), GilbertElliott(p_gb=1e-9, p_bg=1e-9, p_good=0.99, p_bad=0.5, seed=3)],
    ids=["bsc", "ge-long-dwell"],
)
def test_apply_memory_stays_bounded(model):
    # Draws run in passes of _CHUNK, so the peak is the output copy plus
    # cache-sized temporaries, not 16+ bytes per bit.
    bits = np.zeros(1 << 23, np.uint8)
    stream = open_stream(model)
    tracemalloc.start()
    try:
        stream.apply(bits)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_fixed_mask_flips_exactly_listed_positions():
    bits = np.zeros(1000, np.uint8)
    out = apply(FixedMask(indices=(3, 500, 999)), bits)
    assert np.flatnonzero(out).tolist() == [3, 500, 999]


def test_fixed_mask_double_apply_is_identity():
    bits = generate(PrbsSpec(), 5000)
    mask = FixedMask(indices=(0, 17, 4999))
    assert np.array_equal(apply(mask, apply(mask, bits)), bits)


def test_fixed_mask_rejects_out_of_range_index():
    with pytest.raises(ValueError):
        apply(FixedMask(indices=(1000,)), np.zeros(1000, np.uint8))


def test_fixed_mask_requires_increasing_indices():
    with pytest.raises(ValueError):
        FixedMask(indices=(5, 5))
    with pytest.raises(ValueError):
        FixedMask(indices=(-1,))


def test_fixed_mask_streaming_uses_global_positions():
    mask = FixedMask(indices=(2, 10, 11))
    stream = open_stream(mask)
    a = stream.apply(np.zeros(8, np.uint8))
    b = stream.apply(np.zeros(8, np.uint8))
    assert np.flatnonzero(a).tolist() == [2]
    assert np.flatnonzero(b).tolist() == [2, 3]


def _ge_asymptotic_sigma(model: GilbertElliott, n: int) -> float:
    # Mean error rate of the two-state chain: per-bit variance plus the
    # geometric autocovariance pi_g*pi_b*(mu_b-mu_g)^2 * lambda^l summed
    # over lags, with lambda = 1 - p_gb - p_bg.
    pi_b = model.stationary_bad
    pi_g = 1 - pi_b
    mu_g, mu_b = 1 - model.p_good, 1 - model.p_bad
    q = pi_g * mu_g + pi_b * mu_b
    lam = 1 - model.p_gb - model.p_bg
    var = q * (1 - q) + 2 * pi_g * pi_b * (mu_b - mu_g) ** 2 * lam / (1 - lam)
    return math.sqrt(var / n)


def test_gilbert_elliott_long_run_rate_matches_stationary_mix():
    model = GilbertElliott(p_gb=0.02, p_bg=0.05, p_good=0.9999, p_bad=0.95, seed=424242)
    n = 10**7
    bits = np.zeros(n, np.uint8)
    errors = int(apply(model, bits).sum())
    q = model.long_run_error_rate
    sigma = _ge_asymptotic_sigma(model, n)
    assert abs(errors / n - q) <= 3 * sigma


def test_gilbert_elliott_dwell_times_match_transition_probabilities():
    model = GilbertElliott(p_gb=0.01, p_bg=0.2, p_good=1.0, p_bad=0.0, seed=7)
    # p_bad=0 makes every bad-state bit an error, so runs of errors are
    # exactly the bad-state dwells.
    out = apply(model, np.zeros(2 * 10**6, np.uint8))
    flat = np.flatnonzero(out)
    runs = np.split(flat, np.flatnonzero(np.diff(flat) > 1) + 1)
    lengths = np.array([len(r) for r in runs])
    expect = 1 / model.p_bg
    assert len(lengths) > 1000
    assert abs(lengths.mean() - expect) <= 4 * lengths.std() / math.sqrt(len(lengths))


def test_gilbert_elliott_degenerate_probabilities():
    never_bad = GilbertElliott(p_gb=0.0, p_bg=1.0, p_good=1.0, p_bad=0.0, seed=3)
    bits = np.zeros(10_000, np.uint8)
    assert int(apply(never_bad, bits).sum()) == 0
    always_err = GilbertElliott(p_gb=1.0, p_bg=0.0, p_good=0.0, p_bad=0.0, seed=3)
    assert int(apply(always_err, bits).sum()) == 10_000


def test_derive_seed_forks_distinct_streams():
    seeds = {derive_seed(12345, i) for i in range(100)}
    assert len(seeds) == 100


@pytest.mark.parametrize(
    "model",
    [
        Ideal(seed=1),
        Bsc(p=0.25, seed=2),
        GilbertElliott(p_gb=0.1, p_bg=0.2, p_good=0.99, p_bad=0.5, seed=3),
        FixedMask(indices=(1, 2, 3), seed=0),
    ],
)
def test_model_dict_roundtrip(model):
    assert model_from_dict(model_to_dict(model)) == model


def test_model_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError):
        model_from_dict({"kind": "awgn", "seed": 1})
