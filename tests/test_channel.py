import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from berbench import channel, procedure
from berbench.channel import (
    Bsc,
    FixedMask,
    GilbertElliott,
    Ideal,
    _CHUNK,
    _GOLDEN,
    _MASK64,
    _MIX1,
    _MIX2,
    _TABLE,
    _cap,
    _flips,
    _threshold,
    derive_seed,
    mix64,
    model_from_dict,
    model_to_dict,
    open_stream,
)
from berbench.core import InterfaceKind
from berbench.meter import SEGMENT_BITS, MeasurementConfig, measure
from berbench.procedure import CampaignConfig, run_campaign
from berbench.prbs import PrbsSpec
from berbench.testbed import default_profile, dut_open_session
from oracles import flip_below, generate


# ---------------------------------------------------------------------------
# Reference kernels: the float draws, one `_flip` call per pass and one per
# Gilbert-Elliott dwell.  The integer kernels must give the same flips.


def reference_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Draws start..start+count of the stream, as float64 in [0, 1)."""
    idx = np.arange(start + 1, start + 1 + count, dtype=np.uint64)
    z = idx * np.uint64(_GOLDEN) + np.uint64(seed & _MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0**-53


def reference_flip(bits: np.ndarray, seed: int, start: int, p: float) -> None:
    """XOR (draw start+i of stream `seed`) < p into bits[i], in place."""
    for lo in range(0, len(bits), _CHUNK):
        hi = min(lo + _CHUNK, len(bits))
        bits[lo:hi] ^= reference_uniforms(seed, start + lo, hi - lo) < p


class ReferenceGilbertElliott:
    """The per-dwell stream; a dwell of 2**63 bits or more never ends."""

    def __init__(self, model: GilbertElliott):
        self.model = model
        self.err_seed = derive_seed(model.seed, 1)
        self.dwell_seed = derive_seed(model.seed, 2)
        self.dwell_counter = 0
        self.position = 0
        init = float(reference_uniforms(derive_seed(model.seed, 0), 0, 1)[0])
        self.bad = init < model.stationary_bad
        self.remaining = self._draw_dwell()

    def _draw_dwell(self) -> float:
        leave = self.model.p_bg if self.bad else self.model.p_gb
        if leave <= 0.0:
            return math.inf
        if leave >= 1.0:
            return 1
        u = float(reference_uniforms(self.dwell_seed, self.dwell_counter, 1)[0])
        self.dwell_counter += 1
        q = math.log(1.0 - u) / math.log1p(-leave)
        return int(q) + 1 if q < 2**63 else math.inf

    def apply(self, bits: np.ndarray) -> np.ndarray:
        out = np.array(bits, dtype=np.uint8, copy=True)
        n = len(out)
        done = 0
        while done < n:
            span = n - done if math.isinf(self.remaining) else min(int(self.remaining), n - done)
            flip_p = (1.0 - self.model.p_bad) if self.bad else (1.0 - self.model.p_good)
            if flip_p > 0.0:
                start = self.position + done
                reference_flip(out[done : done + span], self.err_seed, start, flip_p)
            done += span
            if not math.isinf(self.remaining):
                self.remaining -= span
                if self.remaining <= 0:
                    self.bad = not self.bad
                    self.remaining = self._draw_dwell()
        self.position += n
        return out


#: Edge probabilities: none, the least double, small, a repeating binary
#: fraction, the largest double below 1, and all.
EDGE_P = (0.0, 5e-324, 1e-6, 1 / 3, 1 - 2.0**-53, 1.0)
probabilities = st.sampled_from(EDGE_P) | st.floats(min_value=0.0, max_value=1.0)


@st.composite
def segmentations(draw, max_bits: int) -> list[int]:
    """Cut points 0 = c0 <= c1 <= ... <= ck = n of one stream."""
    n = draw(st.integers(min_value=0, max_value=max_bits))
    cuts = draw(st.lists(st.integers(min_value=0, max_value=n), max_size=5))
    return [0, *sorted(cuts), n]


def apply_in_pieces(stream, bits: np.ndarray, cuts: list[int]) -> np.ndarray:
    parts = [stream.apply(bits[a:b]) for a, b in zip(cuts, cuts[1:])]
    return np.concatenate(parts) if parts else bits


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
    assert np.array_equal(open_stream(Ideal(seed=5)).apply(bits), bits)


def test_bsc_probability_one_is_complement():
    bits = generate(PrbsSpec(), 10_000)
    assert np.array_equal(open_stream(Bsc(p=1.0, seed=9)).apply(bits), bits ^ 1)


def test_bsc_probability_zero_is_identity():
    bits = generate(PrbsSpec(), 10_000)
    assert np.array_equal(open_stream(Bsc(p=0.0, seed=9)).apply(bits), bits)


def test_bsc_flip_count_within_three_sigma():
    # n independent flips at p: the count is binomial, about n * p.
    cases = [(1e-6, 1 << 26, 1), (1e-4, 1 << 22, 2), (1e-3, 10**6, 20240117),
             (1e-2, 1 << 20, 3), (0.3, 1 << 18, 4), (0.999, 1 << 18, 5)]
    for p, n, seed in cases:
        flips = count_flips(open_stream(Bsc(p=p, seed=seed)), n)
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(flips - n * p) <= 3 * sigma, (p, flips)


def test_bsc_validation():
    with pytest.raises(ValueError):
        Bsc(p=1.5)


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: Ideal(seed=seed),
        lambda seed: Bsc(p=1e-3, seed=seed),
        lambda seed: GilbertElliott(p_gb=0.1, p_bg=0.2, p_good=0.99, p_bad=0.5, seed=seed),
        lambda seed: FixedMask(indices=(1, 2), seed=seed),
    ],
    ids=["ideal", "bsc", "ge", "mask"],
)
def test_a_seed_outside_0_to_2_64_is_refused(make):
    # The draws take the seed mod 2**64: 2**64 + 5 would draw seed 5's stream.
    for seed in (0, 2**64 - 1):
        assert make(seed).seed == seed
    for seed in (-1, 2**64, 2**64 + 5):
        with pytest.raises(ValueError, match=r"outside \[0, 2\*\*64\)"):
            make(seed)
        with pytest.raises(ValueError, match=r"outside \[0, 2\*\*64\)"):
            dataclasses.replace(make(0), seed=seed)


@settings(max_examples=25)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1))
def test_determinism(seed):
    bits = generate(PrbsSpec(), 2000)
    model = Bsc(p=0.01, seed=seed)
    assert np.array_equal(open_stream(model).apply(bits), open_stream(model).apply(bits))


def test_segmented_stream_equals_one_shot():
    bits = generate(PrbsSpec(), 30_000)
    model = Bsc(p=0.005, seed=77)
    whole = open_stream(model).apply(bits)
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
    want = reference_uniforms(model.seed, 1001, n) < model.p
    assert np.array_equal(out, want.astype(np.uint8))


@pytest.mark.parametrize(
    "model",
    [
        Bsc(p=1e-3, seed=3),
        GilbertElliott(p_gb=1e-9, p_bg=1e-9, p_good=0.99, p_bad=0.5, seed=3),
        GilbertElliott(p_gb=0.05, p_bg=0.3, p_good=1.0, p_bad=0.9995, seed=3),
    ],
    ids=["bsc", "ge-long-dwell", "ge-short-dwell"],
)
def test_apply_memory_stays_bounded(model):
    # Draws, flip offsets and dwells run in passes of _CHUNK, so the peak
    # is the output copy plus cache-sized temporaries, not 16+ bytes per bit.
    bits = np.zeros(1 << 23, np.uint8)
    stream = open_stream(model)
    tracemalloc.start()
    try:
        stream.apply(bits)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_framed_measurement_memory_stays_bounded():
    # One full segment at 256 kbit/s G.704 puts 2^28 line bits through the
    # channel.  With one uint8 per bit that peaked near 600 MB; packed, the
    # received line is 32 MB and the rest is a few segment-sized arrays.  The
    # line has a mapping of its own, which tracemalloc does not see, so the
    # peak is those arrays alone (about 13 MiB): a line-sized temporary fails.
    config = MeasurementConfig(ber0=Fraction(10, SEGMENT_BITS))  # one whole segment
    profile = default_profile(channel=Bsc(p=1e-6, seed=1))
    session = dut_open_session(profile, InterfaceKind.G704, 256, 1450e6)
    tracemalloc.start()
    try:
        m = measure(session, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.transmitted_bits == SEGMENT_BITS and not m.sync_failed
    assert peak < 24 * 2**20


def test_fixed_mask_flips_exactly_listed_positions():
    bits = np.zeros(1000, np.uint8)
    out = open_stream(FixedMask(indices=(3, 500, 999))).apply(bits)
    assert np.flatnonzero(out).tolist() == [3, 500, 999]


def test_fixed_mask_double_apply_is_identity():
    bits = generate(PrbsSpec(), 5000)
    mask = FixedMask(indices=(0, 17, 4999))
    assert np.array_equal(open_stream(mask).apply(open_stream(mask).apply(bits)), bits)


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


def test_skip_clean_moves_past_every_bit_and_keeps_the_flips_for_apply():
    stream = open_stream(FixedMask(indices=(2, 10, 11)))
    assert stream.skip_clean(2) and stream.position == 2
    assert not stream.skip_clean(9) and stream.position == 11
    assert np.flatnonzero(stream.apply(np.zeros(9, np.uint8))).tolist() == [0, 8]
    assert not stream.skip_clean(10**6) and stream.position == 10**6 + 11
    # The kept flips are those of the whole pass: a piece of it is refused,
    # and the flips stay kept for the pass.
    with pytest.raises(ValueError, match="skip_clean drew a pass of 1000000 bits"):
        stream.apply(np.zeros(1, np.uint8))
    assert np.flatnonzero(stream.apply(np.zeros(10**6, np.uint8))).tolist() == [0]
    assert stream.skip_clean(10**6) and stream.position == 2 * 10**6 + 11
    for model in [
        Ideal(), Bsc(p=0.0), GilbertElliott(p_gb=0.1, p_bg=0.1, p_good=1.0, p_bad=1.0),
    ]:
        stream = open_stream(model)
        assert stream.skip_clean(100) and stream.position == 100


def test_bsc_skip_clean_is_true_exactly_when_the_pass_draws_no_flip():
    # A `bsc` stream draws the pass, at any flip probability: True means no
    # drawn flip, not that no flip could be drawn.
    seen = set()
    for p in (1e-9, 1e-6, 1e-4, 1e-2, 0.3):
        for seed in range(4):
            for offset in (0, 12_345):
                for n in (1, 7, 100, _CHUNK + 1, 3 * _CHUNK):
                    fresh = open_stream(Bsc(p=p, seed=seed))
                    fresh.apply(np.zeros(offset, np.uint8))
                    clean = not fresh.apply(np.zeros(n, np.uint8)).any()
                    stream = open_stream(Bsc(p=p, seed=seed))
                    stream.apply(np.zeros(offset, np.uint8))
                    assert stream.skip_clean(n) is clean
                    assert stream.position == offset + n
                    seen.add(clean)
    assert seen == {True, False}


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


def count_flips(stream, n: int) -> int:
    """The flips among the stream's next n bits, drawn 2**20 bits at a time."""
    return sum(len(stream.flips(min(1 << 20, n - lo))) for lo in range(0, n, 1 << 20))


def dwells(bad_bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bad and good dwell lengths, given the offsets of a stream's bad bits.

    The runs of offsets are the bad dwells, the gaps between them the good
    ones; the first and last run may be cut short, so they are left out.
    """
    cut = np.flatnonzero(np.diff(bad_bits) > 1)
    starts = np.concatenate((bad_bits[:1], bad_bits[cut + 1]))
    ends = np.concatenate((bad_bits[cut], bad_bits[-1:])) + 1
    return (ends - starts)[1:-1], (starts[1:] - ends[:-1])[1:]


def geometric_chi_square(lengths: np.ndarray, leave: float) -> tuple[float, int]:
    """Pearson's statistic of dwell lengths against the geometric law on
    {1, 2, ...} with parameter `leave`, and its degrees of freedom.

    The bins end at the law's quantiles j / 16, so none expects few dwells.
    """
    log_stay = math.log1p(-leave)
    edges = np.unique(np.ceil(np.log1p(-np.arange(1, 16) / 16) / log_stay))
    observed = np.bincount(np.searchsorted(edges, lengths), minlength=len(edges) + 1)
    below = -np.expm1(edges * log_stay)  # P(L <= edge)
    expected = len(lengths) * np.diff(np.concatenate(([0.0], below, [1.0])))
    return float(((observed - expected) ** 2 / expected).sum()), len(expected) - 1


def chi_square_bound(df: int) -> float:
    """The chi-square quantile at 1 - 1e-4, by Wilson and Hilferty (1931)."""
    z = 3.719  # the normal quantile at 1 - 1e-4
    return df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3


def test_gilbert_elliott_long_run_rate_matches_stationary_mix():
    # The flip count is about n * long_run_error_rate, with the variance of
    # a bursty stream: short dwells drawn through, long idle ones skipped,
    # both states flipping, and a dense stream.
    cases = [
        (GilbertElliott(p_gb=0.02, p_bg=0.05, p_good=0.9999, p_bad=0.95, seed=424242), 10**7),
        (GilbertElliott(p_gb=0.05, p_bg=0.3, p_good=1.0, p_bad=0.9995, seed=1), 1 << 24),
        (GilbertElliott(p_gb=1e-4, p_bg=1e-2, p_good=1.0, p_bad=0.99, seed=2), 1 << 25),
        (GilbertElliott(p_gb=0.3, p_bg=0.3, p_good=0.9, p_bad=0.7, seed=3), 1 << 21),
    ]
    for model, n in cases:
        errors = count_flips(open_stream(model), n)
        q = model.long_run_error_rate
        sigma = _ge_asymptotic_sigma(model, n)
        assert abs(errors / n - q) <= 3 * sigma, (model, errors)


@pytest.mark.parametrize(
    "model",
    [
        GilbertElliott(p_gb=0.01, p_bg=0.2, p_good=1.0, p_bad=0.0, seed=7),
        # Good dwells of about 10^4 bits, mostly skipped rather than drawn.
        GilbertElliott(p_gb=1e-4, p_bg=1e-2, p_good=1.0, p_bad=0.0, seed=8),
    ],
    ids=["short", "idle"],
)
def test_gilbert_elliott_share_of_bad_bits_matches_stationary_bad(model):
    # p_good=1 and p_bad=0 flip exactly the bad-state bits.
    n = 1 << 24
    share = count_flips(open_stream(model), n) / n
    assert abs(share - model.stationary_bad) <= 4 * _ge_asymptotic_sigma(model, n)


def test_gilbert_elliott_dwell_times_match_transition_probabilities():
    # p_good=1 and p_bad=0 flip exactly the bad-state bits, so the dwells
    # of both states show in the flips.  Each is geometric on {1, 2, ...}
    # with its leave probability, also where long good dwells are skipped.
    cases = [
        (GilbertElliott(p_gb=0.01, p_bg=0.2, p_good=1.0, p_bad=0.0, seed=7), 2 * 10**6),
        (GilbertElliott(p_gb=1e-4, p_bg=1e-2, p_good=1.0, p_bad=0.0, seed=8), 1 << 25),
    ]
    for model, n in cases:
        bad, good = dwells(open_stream(model).flips(n))
        for lengths, leave in ((bad, model.p_bg), (good, model.p_gb)):
            assert len(lengths) > 1000
            expect = 1 / leave
            assert abs(lengths.mean() - expect) <= 4 * lengths.std() / math.sqrt(len(lengths))
            stat, df = geometric_chi_square(lengths, leave)
            assert stat <= chi_square_bound(df), (model, leave, stat, df)


def test_gilbert_elliott_degenerate_probabilities():
    never_bad = GilbertElliott(p_gb=0.0, p_bg=1.0, p_good=1.0, p_bad=0.0, seed=3)
    bits = np.zeros(10_000, np.uint8)
    assert int(open_stream(never_bad).apply(bits).sum()) == 0
    always_err = GilbertElliott(p_gb=1.0, p_bg=0.0, p_good=0.0, p_bad=0.0, seed=3)
    assert int(open_stream(always_err).apply(bits).sum()) == 10_000


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


# ---------------------------------------------------------------------------
# The integer kernels against the reference kernels


#: Draw counts: one, a few, either side of a row of the counter table and
#: of a pass of the kernel, a pass whose last row holds one draw, several.
lengths = st.sampled_from((
    1, 7, _TABLE - 1, _TABLE, _TABLE + 1, _CHUNK - _TABLE + 1,
    _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK,
)) | st.integers(min_value=0, max_value=2 * _CHUNK + 3)


@settings(max_examples=60, deadline=None)
@given(
    p=probabilities,
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    start=st.integers(min_value=0, max_value=2**62),
    n=lengths,
)
def test_flip_kernel_matches_float_reference(p, seed, start, n):
    bits = generate(PrbsSpec(), n)
    want = bits.copy()
    reference_flip(want, seed, start, p)
    flip_below(bits, seed, start, _threshold(p))
    assert np.array_equal(bits, want)


@pytest.mark.parametrize("start", [0, 2**62 - 1])
def test_row_offsets_wrap_past_2_64(start):
    # At seed 2**64 - 1 the first row's offset is the largest uint64, so
    # every later row's, and the tail's, wraps past 2**64.
    seed = _MASK64
    for n in (_TABLE + 1, _CHUNK - _TABLE + 1, _CHUNK, 2 * _CHUNK + 3):
        want = reference_uniforms(seed, start, n) < 0.5
        bits = np.zeros(n, np.uint8)
        flip_below(bits, seed, start, _threshold(0.5))
        assert np.array_equal(bits, want)
        assert np.array_equal(_flips(seed, start, n, _threshold(0.5)), np.flatnonzero(want))


@settings(max_examples=30, deadline=None)
@given(
    p=probabilities,
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    cuts=segmentations(3 * _CHUNK),
)
def test_bsc_stream_matches_reference_under_any_segmentation(p, seed, cuts):
    bits = generate(PrbsSpec(), cuts[-1])
    want = bits.copy()
    reference_flip(want, seed, 0, p)
    assert np.array_equal(apply_in_pieces(open_stream(Bsc(p=p, seed=seed)), bits, cuts), want)


#: Thresholds on either side of an edge of `_cap` (a multiple of 2**22),
#: mostly where `_flips` is the draw, and the two ends.
thresholds = (
    st.integers(min_value=0, max_value=2**31)
    | st.integers(min_value=0, max_value=2**10)
).flatmap(
    lambda m: st.sampled_from((m * 2**22 - 1, m * 2**22, m * 2**22 + 1))
).filter(lambda t: 0 <= t <= 2**53) | st.sampled_from((0, 1, 2**53))


@settings(max_examples=200, deadline=None)
@given(t=thresholds, low=st.integers(min_value=0, max_value=2**33 - 1), step=st.integers(-2, 1))
def test_cap_bounds_every_draw_that_flips(t, low, step):
    # z2 is the value before the last step, its top 31 bits next to the cap's.
    top = (_cap(t) >> 33) + step
    assume(0 <= top < 2**31)
    z2 = top << 33 | low
    if (z2 ^ z2 >> 31) >> 11 < t:
        assert z2 < _cap(t)


@settings(max_examples=60, deadline=None)
@given(
    t=thresholds,
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    start=st.integers(min_value=0, max_value=2**62),
    n=lengths,
)
def test_flips_match_the_flip_kernel(t, seed, start, n):
    bits = np.zeros(n, np.uint8)
    flip_below(bits, seed, start, t)
    assert np.array_equal(_flips(seed, start, n, t), np.flatnonzero(bits))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    start=st.integers(min_value=0, max_value=2**62),
    n=st.integers(min_value=1, max_value=2 * _CHUNK + 3),
    above=st.booleans(),
)
def test_flips_are_exact_for_a_draw_at_the_threshold(seed, start, n, above):
    # The least draw of the pass sits at the threshold, or just below it.
    k = reference_uniforms(seed, start, n) * 2.0**53
    least = int(np.argmin(k))
    t = int(k[least]) + above
    assert (least in _flips(seed, start, n, t).tolist()) == above
    bits = np.zeros(n, np.uint8)
    flip_below(bits, seed, start, t)
    assert np.array_equal(_flips(seed, start, n, t), np.flatnonzero(bits))


#: Gilbert-Elliott shapes (p_gb, p_bg, p_good, p_bad): dwells of a few
#: bits, dwells longer than a pass, and flips in both states.
GE_SHAPES = (
    (0.05, 0.3, 1.0, 0.9),
    (1e-4, 1e-2, 1.0, 0.5),
    (0.05, 0.3, 0.999, 0.99),
)

seeds = st.integers(min_value=0, max_value=2**64 - 1)

#: A model of every kind: ideal, `bsc` from sparse flips to dense ones,
#: each Gilbert-Elliott shape, and a mask.
stream_models = st.one_of(
    st.builds(Ideal, seed=seeds),
    st.builds(Bsc, p=st.sampled_from((1e-6, 1e-3, 2.0**-6, 0.3)) | probabilities, seed=seeds),
    st.builds(
        lambda shape, seed: GilbertElliott(*shape, seed=seed), st.sampled_from(GE_SHAPES), seeds
    ),
    st.builds(
        FixedMask,
        indices=st.sets(st.integers(min_value=0, max_value=3 * _CHUNK)).map(sorted).map(tuple),
        seed=seeds,
    ),
)


def reference_apply(model, bits: np.ndarray) -> np.ndarray:
    """The bits a fresh stream of `model` returns, from the reference kernels."""
    if isinstance(model, GilbertElliott):
        return ReferenceGilbertElliott(model).apply(bits)
    out = bits.copy()
    if isinstance(model, FixedMask):
        out[[i for i in model.indices if i < len(bits)]] ^= 1
    else:
        reference_flip(out, model.seed, 0, model.p)
    return out


@settings(max_examples=60, deadline=None)
@given(
    model=stream_models,
    cuts=segmentations(3 * _CHUNK),
    modes=st.lists(st.sampled_from(("apply", "skip", "skip, then split")), min_size=6, max_size=6),
)
def test_passes_match_the_reference_under_any_cuts(model, cuts, modes):
    # A pass is applied whole, skipped when clean and applied otherwise as
    # `testbed.loopback` does, or, after `skip_clean` found flips, applied
    # in two pieces: the first is refused, and the whole pass then applied.
    bits = generate(PrbsSpec(), cuts[-1])
    stream = open_stream(model)
    parts = []
    for (a, b), mode in zip(zip(cuts, cuts[1:]), modes):
        if mode == "apply":
            parts.append(stream.apply(bits[a:b]))
        elif stream.skip_clean(b - a):
            parts.append(bits[a:b])
        else:
            if mode == "skip, then split":
                with pytest.raises(ValueError):
                    stream.apply(bits[a : (a + b) // 2])
            parts.append(stream.apply(bits[a:b]))
        assert stream.position == b
    assert np.array_equal(np.concatenate(parts), reference_apply(model, bits))


def test_kept_flips_survive_the_draws_of_other_streams():
    # Every stream draws into one scratch per process.  The offsets a `bsc`
    # stream keeps from `skip_clean` must not be a view of it, or the draws
    # of other streams before its `apply` would change them.
    n = 3 * _CHUNK + 17
    bits = generate(PrbsSpec(), n)
    model = Bsc(p=1e-3, seed=21)
    want = bits.copy()
    flip_below(want, model.seed, 0, _threshold(model.p))
    stream = open_stream(model)
    assert not stream.skip_clean(n)  # about 100 flips, drawn and kept
    other = open_stream(Bsc(p=1e-3, seed=22))
    assert not other.skip_clean(n)
    other.apply(bits)
    open_stream(GilbertElliott(p_gb=0.05, p_bg=0.3, p_good=0.99, p_bad=0.5, seed=23)).apply(bits)
    assert np.array_equal(stream.apply(bits), want)


def test_a_warm_draw_allocates_no_pass_sized_block():
    # Once the first draw has built the scratch, a 2**19-bit pass allocates
    # only its few flip offsets: nothing near glibc's 128 KiB mmap threshold.
    n, t = 1 << 19, _threshold(1e-6)
    bits = np.zeros(n, np.uint8)
    _flips(3, 0, 1, t)
    tracemalloc.start()
    try:
        _flips(3, 0, n, t)
        flip_below(bits, 3, 0, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10


def test_a_cold_draw_builds_less_than_600_kib():
    # The first draw builds the 64 KiB counter table and the scratch's two
    # 256 KiB buffers, and keeps its flip mask in the second of them.
    for cached in (channel._steps, channel._scratch):
        cached.cache_clear()
    tracemalloc.start()
    try:
        _flips(3, 0, 1 << 16, _threshold(1e-6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 600 * 2**10


def _campaign(model, ber0) -> CampaignConfig:
    """A campaign over G.704 at 256 kbit/s, G.703 and V.35."""
    return CampaignConfig(
        dut=default_profile(channel=model),
        interfaces=(InterfaceKind.G704, InterfaceKind.G703, InterfaceKind.V35),
        rates={InterfaceKind.G704: (256,)},
        measurement=MeasurementConfig(ber0=ber0),
    )


@pytest.mark.parametrize(
    "model",
    [Ideal(seed=1), FixedMask(indices=(1_000, 300_000, 5_000_000), seed=2)],
    ids=["ideal", "mask"],
)
def test_a_campaign_that_draws_nothing_builds_no_draw_buffers(monkeypatch, model):
    # The counter table and the scratch (about 580 KiB) are built by the
    # first draw, so a run that draws nothing, like framed-prbs23, never
    # holds them.
    monkeypatch.setattr(procedure, "_cpu_count", lambda: 1)
    for cached in (channel._steps, channel._scratch):
        cached.cache_clear()
    report = run_campaign(_campaign(model, "1e-5"))
    errors = sum(m.errored_bits for r in report.results for m in r.measurements)
    assert (errors > 0) == isinstance(model, FixedMask)  # the mask's flips were applied
    assert channel._steps.cache_info().currsize == 0
    assert channel._scratch.cache_info().currsize == 0
    run_campaign(_campaign(Bsc(p=1e-6, seed=3), "1e-5"))
    assert channel._steps.cache_info().currsize == 1
    assert channel._scratch.cache_info().currsize == 1


#: Runs one campaign per config, every job in this process, and one
#: Gilbert-Elliott `apply` whose bad state flips every bit.  Prints the Rss
#: of the process's libgcc_s mappings (None where none is mapped) after
#: its imports, after each campaign and after the `apply`.
UNWIND_CHILD = """
import json
import numpy as np
from berbench import procedure
from berbench.channel import Bsc, FixedMask, GilbertElliott, Ideal, open_stream
from berbench.core import InterfaceKind
from berbench.meter import MeasurementConfig
from berbench.testbed import default_profile

def libgcc_s_rss():
    kib, lib = None, False
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            field = line.split()
            if not field[0].endswith(":"):  # a mapping's first line
                lib = "libgcc_s" in line
            elif lib and field[0] == "Rss:":
                kib = (kib or 0) + int(field[1])
    return kib

procedure._cpu_count = lambda: 1
models = [
    Bsc(p=1e-6, seed=1),
    Bsc(p=0.3, seed=2),
    GilbertElliott(p_gb=0.05, p_bg=0.3, p_good=1.0, p_bad=0.9995, seed=3),
    FixedMask(indices=(1_000, 300_000, 5_000_000), seed=4),
    Ideal(seed=5),
]
rows = [["imports", libgcc_s_rss()]]
for ber0 in ("1e-5", "1e-6"):
    for model in models:
        procedure.run_campaign(procedure.CampaignConfig(
            dut=default_profile(channel=model),
            interfaces=(InterfaceKind.G704, InterfaceKind.G703, InterfaceKind.V35),
            rates={InterfaceKind.G704: (256,)},
            measurement=MeasurementConfig(ber0=ber0),
        ))
        rows.append([f"{model!r} at {ber0}", libgcc_s_rss()])
# A bad state that flips every bit: `_flips` returns a whole pass of offsets.
dense = GilbertElliott(p_gb=0.01, p_bg=0.2, p_good=1.0, p_bad=0.0, seed=6)
open_stream(dense).apply(np.zeros(1 << 17, np.uint8))
rows.append([f"{dense!r}, one apply", libgcc_s_rss()])
print(json.dumps(rows))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps"), reason="no /proc/self/smaps")
def test_no_campaign_pages_in_unwind_tables():
    # numpy checks its caller with glibc's backtrace() before it reuses a
    # fresh operand of 256 KiB or more, and the first such walk pages in
    # about 0.5 MB of unwind tables, libgcc_s's among them.  No drawing
    # path may hand numpy such an operand; the segments at these
    # resolutions are larger than that, so a segment-sized one shows too.
    # The child is a fresh process: nothing has walked its stack yet.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    child = subprocess.run(
        [sys.executable, "-c", UNWIND_CHILD],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    rows = json.loads(child.stdout)
    if all(kib is None for _, kib in rows):
        pytest.skip("libgcc_s is not mapped")
    grew = [(a, b) for a, b in zip(rows, rows[1:]) if (b[1] or 0) > (a[1] or 0)]
    assert not grew, rows


def test_threshold_is_exact_at_the_edges():
    # k * 2**-53 < p exactly when k < _threshold(p), for k on either side.
    for p in (*EDGE_P, 0.3, 1e-3, 2.0**-53, 3 * 2.0**-54):
        t = _threshold(p)
        for k in {max(t - 1, 0), t, min(t + 1, 2**53 - 1)}:
            assert (k * 2.0**-53 < p) == (k < t)
    assert _threshold(0.0) == 0 and _threshold(1.0) == 2**53


#: Leave probabilities: never, always, the least double, the least normal
#: double, long and short dwells.
leave_probabilities = st.sampled_from(
    (0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1e-4, 0.05, 0.3)
) | st.floats(
    min_value=0.0, max_value=1.0
)


@settings(max_examples=40, deadline=None)
@given(
    p_gb=leave_probabilities,
    p_bg=leave_probabilities,
    p_good=probabilities,
    p_bad=probabilities,
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    cuts=segmentations(_CHUNK + 200),
)
def test_gilbert_elliott_matches_per_dwell_reference(p_gb, p_bg, p_good, p_bad, seed, cuts):
    model = GilbertElliott(p_gb=p_gb, p_bg=p_bg, p_good=p_good, p_bad=p_bad, seed=seed)
    bits = generate(PrbsSpec(), cuts[-1])
    want = ReferenceGilbertElliott(model).apply(bits)
    assert np.array_equal(apply_in_pieces(open_stream(model), bits, cuts), want)


@pytest.mark.parametrize(
    "p_gb, p_bg",
    [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0), (0.3, 1.0), (1.0, 0.3), (0.0, 0.3),
     (0.3, 0.0), (0.05, 0.3)],
)
def test_gilbert_elliott_leave_edges_match_reference_across_passes(p_gb, p_bg):
    # The middle call spans a pass boundary.
    model = GilbertElliott(p_gb=p_gb, p_bg=p_bg, p_good=0.9, p_bad=0.2, seed=11)
    n = _CHUNK + 200
    bits = generate(PrbsSpec(), n)
    want = ReferenceGilbertElliott(model).apply(bits)
    got = apply_in_pieces(open_stream(model), bits, [0, 5, n - 3, n])
    assert np.array_equal(got, want)


def test_gilbert_elliott_least_normal_leave_probability_matches_reference():
    # Bad dwells near the largest double: their sum overflows unless capped.
    model = GilbertElliott(p_gb=1.0, p_bg=2.2250738585072014e-308, p_good=0.0, p_bad=0.0, seed=0)
    bits = generate(PrbsSpec(), 3 * _CHUNK)
    want = ReferenceGilbertElliott(model).apply(bits)
    assert np.array_equal(apply_in_pieces(open_stream(model), bits, [0, 1, 3 * _CHUNK]), want)


def test_gilbert_elliott_idle_dwells_match_reference():
    # Good dwells of about 10^4 bits flip nothing and are skipped, not drawn.
    model = GilbertElliott(p_gb=1e-4, p_bg=1e-2, p_good=1.0, p_bad=0.5, seed=5)
    n = 3 * _CHUNK
    bits = generate(PrbsSpec(), n)
    want = ReferenceGilbertElliott(model).apply(bits)
    assert np.count_nonzero(want ^ bits)
    assert np.array_equal(apply_in_pieces(open_stream(model), bits, [0, 1000, n]), want)


def test_a_call_inside_one_dwell_draws_once_per_pass(monkeypatch):
    # Both states flip, and a dwell lasts about 10^6 bits.  The first call
    # draws the first dwell; the second lies inside it, so each of its
    # three passes draws at that dwell's threshold alone.
    model = GilbertElliott(p_gb=1e-6, p_bg=1e-6, p_good=0.999, p_bad=0.9, seed=7)
    n = 2 * _CHUNK + 5
    bits = generate(PrbsSpec(), 1 + n)
    stream = open_stream(model)
    head = stream.apply(bits[:1])
    assert stream.remaining >= n
    drawn = []

    def counting_flips(seed, start, count, threshold):
        drawn.append((start, count, threshold))
        return _flips(seed, start, count, threshold)

    monkeypatch.setattr(channel, "_flips", counting_flips)
    rest = stream.apply(bits[1:])
    t = stream.threshold[stream.bad]
    assert drawn == [(1, _CHUNK, t), (1 + _CHUNK, _CHUNK, t), (1 + 2 * _CHUNK, 5, t)]
    want = ReferenceGilbertElliott(model).apply(bits)
    assert np.array_equal(np.concatenate((head, rest)), want)


@pytest.mark.parametrize(
    "model, flipped",
    [
        # Starts good (stationary_bad is about 2e-310) and stays there.
        (GilbertElliott(p_gb=1e-310, p_bg=0.5, p_good=1.0, p_bad=0.5, seed=3), 0),
        # Starts bad and stays there, flipping every bit.
        (GilbertElliott(p_gb=0.5, p_bg=1e-310, p_good=0.5, p_bad=0.0, seed=3), 1),
    ],
    ids=["good", "bad"],
)
def test_gilbert_elliott_denormal_leave_probability_is_an_endless_dwell(model, flipped):
    # log1p(-1e-310) is denormal, so the dwell's quotient overflows.
    bits = generate(PrbsSpec(), 3 * _CHUNK)
    stream = open_stream(model)
    out = apply_in_pieces(stream, bits, [0, 100, 3 * _CHUNK])
    assert np.array_equal(out, bits ^ flipped)
    assert np.array_equal(out, ReferenceGilbertElliott(model).apply(bits))
