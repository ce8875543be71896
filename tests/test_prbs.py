import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from berbench.prbs import (
    DEFAULT_TAPS,
    LOCK_THRESHOLD,
    PrbsSpec,
    SEARCHING,
    SyncState,
    count_errors,
    generate,
    step_register,
    synchronize,
)


def serial_bits(spec: PrbsSpec, n: int) -> np.ndarray:
    """Bit-at-a-time oracle straight from the register definition."""
    state = spec.seed
    out = np.empty(n, dtype=np.uint8)
    for i in range(n):
        state, out[i] = step_register(state, spec.order, spec.taps[1])
    return out


def test_spec_validation():
    with pytest.raises(ValueError):
        PrbsSpec(order=10)
    with pytest.raises(ValueError):
        PrbsSpec(order=15, seed=0)
    with pytest.raises(ValueError):
        PrbsSpec(order=15, seed=1 << 15)
    with pytest.raises(ValueError):
        PrbsSpec(order=15, taps=(14, 13))
    spec = PrbsSpec()
    assert (spec.order, spec.taps, spec.seed) == (15, (15, 14), (1 << 15) - 1)


@pytest.mark.parametrize("order", [9, 11, 15])
def test_state_cycle_is_maximal(order):
    # Walk the register until the state repeats: must take 2**order - 1 steps.
    spec = PrbsSpec(order=order, seed=1)
    state = spec.seed
    steps = 0
    while True:
        state, _ = step_register(state, order, spec.taps[1])
        steps += 1
        if state == spec.seed:
            break
        assert steps <= spec.period
    assert steps == spec.period


def test_period_and_balance_order_15():
    spec = PrbsSpec(order=15, seed=0x2B)
    two_periods = generate(spec, 2 * spec.period)
    assert np.array_equal(two_periods[: spec.period], two_periods[spec.period :])
    ones = int(two_periods[: spec.period].sum())
    assert ones == 16384
    assert spec.period - ones == 16383


def test_generate_is_deterministic():
    spec = PrbsSpec(seed=123)
    assert np.array_equal(generate(spec, 5000), generate(spec, 5000))


def test_generate_start_offset_slices_the_same_stream():
    spec = PrbsSpec(seed=777)
    whole = generate(spec, 40_000)
    assert np.array_equal(generate(spec, 10_000, start=7_000), whole[7_000:17_000])


def test_generate_empty_and_negative():
    assert len(generate(PrbsSpec(), 0)) == 0
    with pytest.raises(ValueError):
        generate(PrbsSpec(), -1)


@settings(max_examples=30)
@given(
    order=st.sampled_from([9, 11]),
    seed=st.integers(min_value=1, max_value=(1 << 9) - 1),
    n=st.integers(min_value=0, max_value=600),
)
def test_blocked_generation_matches_serial_register(order, seed, n):
    spec = PrbsSpec(order=order, seed=seed)
    assert np.array_equal(generate(spec, n), serial_bits(spec, n))


@pytest.mark.parametrize("order", [9, 11])
def test_shift_and_add_property(order):
    # XOR with a shifted copy of the sequence is another shift of it.
    spec = PrbsSpec(order=order, seed=3)
    period = generate(spec, spec.period)
    doubled = np.concatenate([period, period])
    for shift in (1, 5, 37, 101):
        mixed = period ^ doubled[shift : shift + spec.period]
        rotations = [
            np.array_equal(mixed, doubled[r : r + spec.period]) for r in range(spec.period)
        ]
        assert sum(rotations) == 1


def test_synchronize_clean_stream_locks_at_zero():
    spec = PrbsSpec()
    state = synchronize(spec, generate(spec, 4000))
    assert state.locked and state.offset == 0


def test_synchronize_all_zeros_never_locks():
    assert synchronize(PrbsSpec(), np.zeros(100_000, np.uint8)) == SEARCHING


def test_synchronize_short_stream_is_searching():
    spec = PrbsSpec()
    short = generate(spec, spec.order + LOCK_THRESHOLD - 1)
    assert synchronize(spec, short) == SEARCHING


def test_synchronize_skips_corrupted_head():
    spec = PrbsSpec(seed=99)
    stream = generate(spec, 5000)
    stream[:5] ^= 1
    state = synchronize(spec, stream)
    assert state.locked
    assert 0 < state.offset <= 5 + spec.order + LOCK_THRESHOLD


def test_count_errors_requires_lock():
    spec = PrbsSpec()
    with pytest.raises(ValueError):
        count_errors(spec, generate(spec, 1000), SEARCHING)


def test_count_errors_clean():
    spec = PrbsSpec()
    stream = generate(spec, 50_000)
    state = synchronize(spec, stream)
    compared, errored = count_errors(spec, stream, state)
    assert (compared, errored) == (50_000 - spec.order, 0)


def test_count_errors_exact_for_isolated_flips():
    spec = PrbsSpec(seed=0x1234)
    stream = generate(spec, 100_000)
    positions = np.arange(10) * 541 + 2000  # separated by far more than the order
    stream[positions] ^= 1
    state = synchronize(spec, stream)
    assert state.locked and state.offset == 0
    compared, errored = count_errors(spec, stream, state)
    assert errored == 10
    assert compared == 100_000 - spec.order


def test_count_errors_fully_inverted_post_lock():
    spec = PrbsSpec()
    n = 20_000
    stream = generate(spec, n)
    stream[spec.order :] ^= 1
    state = SyncState(locked=True, offset=0)
    compared, errored = count_errors(spec, stream, state)
    assert (compared, errored) == (n - spec.order, n - spec.order)


def test_count_errors_respects_max_bits():
    spec = PrbsSpec()
    stream = generate(spec, 10_000)
    state = synchronize(spec, stream)
    compared, errored = count_errors(spec, stream, state, max_bits=1234)
    assert (compared, errored) == (1234, 0)


@settings(max_examples=20)
@given(
    flips=st.lists(st.integers(min_value=0, max_value=999), min_size=0, max_size=8, unique=True)
)
def test_flip_mask_counts_exactly(flips):
    # Flips spaced more than `order` apart post-lock are counted one-for-one.
    spec = PrbsSpec(seed=0x55AA)
    base = spec.order + LOCK_THRESHOLD
    positions = sorted(base + 200 + f * (spec.order + 1) for f in flips)
    stream = generate(spec, 30_000)
    for p in positions:
        stream[p] ^= 1
    state = synchronize(spec, stream)
    assert state.locked and state.offset == 0
    _, errored = count_errors(spec, stream, state)
    assert errored == len(set(positions))


def test_prbs23_generates():
    spec = PrbsSpec(order=23)
    assert spec.taps == DEFAULT_TAPS[23]
    bits = generate(spec, 10_000)
    state = synchronize(spec, bits)
    assert state.locked and state.offset == 0
