import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from berbench import cli
from berbench.prbs import (
    DEFAULT_TAPS,
    LOCK_THRESHOLD,
    MAXIMAL_TAPS,
    PrbsSpec,
    SEARCHING,
    SyncState,
    count_errors,
    generate,
    synchronize,
)
import oracles
from oracles import step_register


def pattern(spec: PrbsSpec, n: int, history: np.ndarray | None = None) -> np.ndarray:
    """`n` pattern bits after the unpacked `history`: the packed generator, read back."""
    if history is None:
        return np.unpackbits(generate(spec, n), count=n)
    return np.unpackbits(generate(spec, n, np.packbits(history), len(history)), count=n)


def sync(spec: PrbsSpec, bits: np.ndarray) -> SyncState:
    """`synchronize` on unpacked bits."""
    return synchronize(spec, np.packbits(bits), len(bits))


def count(spec: PrbsSpec, bits: np.ndarray, state: SyncState, max_bits=None) -> tuple[int, int]:
    """`count_errors` on unpacked bits."""
    return count_errors(spec, np.packbits(bits), len(bits), state, max_bits)


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
    two_periods = pattern(spec, 2 * spec.period)
    assert np.array_equal(two_periods[: spec.period], two_periods[spec.period :])
    ones = int(two_periods[: spec.period].sum())
    assert ones == 16384
    assert spec.period - ones == 16383


def test_generate_is_deterministic():
    spec = PrbsSpec(seed=123)
    assert np.array_equal(pattern(spec, 5000), pattern(spec, 5000))


def test_generate_start_offset_slices_the_same_stream():
    spec = PrbsSpec(seed=777)
    whole = pattern(spec, 40_000)
    assert np.array_equal(pattern(spec, 10_000, whole[:7_000]), whole[7_000:17_000])


def test_generate_empty_and_negative():
    assert len(generate(PrbsSpec(), 0)) == 0
    with pytest.raises(ValueError):
        generate(PrbsSpec(), -1)


def test_generate_needs_a_full_register_of_history():
    spec = PrbsSpec()
    k = spec.order
    with pytest.raises(ValueError):
        generate(spec, 10, generate(spec, k - 1), k - 1)
    with pytest.raises(ValueError):
        generate(spec, 10, np.zeros(1, np.uint8))  # eight bits, all of the octet
    with pytest.raises(ValueError):
        generate(spec, 10, generate(spec, k), 8 * 2 + 1)  # more bits than octets hold
    assert len(generate(spec, 10, generate(spec, k), k)) == 2


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    order_tap=st.sampled_from([(k, t) for k, ts in MAXIMAL_TAPS.items() for t in ts]),
)
def test_generation_in_pieces_matches_one_call(data, order_tap):
    # Every tabled tap; each piece continues from the one before it.  The
    # first piece may end within a few pieces of a period boundary, so a
    # later piece crosses it.
    order, tap = order_tap
    seed = data.draw(st.integers(1, (1 << order) - 1))
    spec = PrbsSpec(order=order, taps=(order, tap), seed=seed)
    near_boundary = st.integers(max(order, spec.period - 600), spec.period)
    first = data.draw(near_boundary | st.integers(order, 600))
    rest = data.draw(st.lists(st.integers(order, 300), min_size=1, max_size=8))
    pieces = [generate(spec, first)]
    for n, before in zip(rest, [first, *rest]):
        pieces.append(generate(spec, n, pieces[-1], before))
    read = [np.unpackbits(p, count=n) for p, n in zip(pieces, [first, *rest])]
    whole = generate(spec, first + sum(rest))
    assert np.array_equal(np.packbits(np.concatenate(read)), whole)


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    order_tap=st.sampled_from([(k, t) for k, ts in MAXIMAL_TAPS.items() for t in ts]),
)
def test_packed_generation_matches_unpacked_oracle(data, order_tap):
    # Every tabled tap, from any history of any length (the recurrence runs
    # from any `order` bits), in pieces long and short enough to end inside
    # the unpacked head, at its edge, or far past it at any bit phase.
    order, tap = order_tap
    spec = PrbsSpec(order=order, taps=(order, tap))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    history = rng.integers(0, 2, data.draw(st.integers(order, 4 * order))).astype(np.uint8)
    head = 16 * order
    lengths = st.integers(0, 40) | st.integers(head - 9, head + 9) | st.integers(0, 20 * head)
    for n in data.draw(st.lists(lengths, min_size=1, max_size=4)):
        got = generate(spec, n, np.packbits(history), len(history))
        want = oracles.generate(spec, n, history)
        assert np.array_equal(got, np.packbits(want))
        history = np.concatenate((history, want))


def test_generate_deep_in_the_period_holds_only_its_block():
    # Only the last `order` bits of the history are read; the block does not
    # keep it alive or copy it.
    spec = PrbsSpec(order=23)
    history = generate(spec, 8_000_000)
    tracemalloc.start()
    try:
        octets = generate(spec, 10**6, history, 8_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(octets) == 10**6 // 8
    assert peak < 2 * 2**20


_SMALL_SPECS = st.sampled_from([(k, t) for k in (9, 11, 15) for t in MAXIMAL_TAPS[k]])


@settings(max_examples=40, deadline=None)
@given(data=st.data(), order_tap=_SMALL_SPECS)
def test_blocked_generation_matches_serial_register(data, order_tap):
    # Every maximal tap; continues from the seed or from a serial prefix
    # ending near 0 or one period in, so a window may cross the period
    # boundary.
    order, tap = order_tap
    seed = data.draw(st.integers(1, (1 << order) - 1))
    spec = PrbsSpec(order=order, taps=(order, tap), seed=seed)
    lap = data.draw(st.integers(0, 1))
    start = data.draw(
        st.just(0) | st.integers(max(order, lap * spec.period - 300), lap * spec.period + 300)
    )
    n = data.draw(st.integers(0, 700))
    serial = serial_bits(spec, start + n)
    history = serial[:start] if start else None
    assert np.array_equal(pattern(spec, n, history), serial[start:])


@pytest.mark.parametrize("order", [9, 11])
def test_shift_and_add_property(order):
    # XOR with a shifted copy of the sequence is another shift of it.
    spec = PrbsSpec(order=order, seed=3)
    period = pattern(spec, spec.period)
    doubled = np.concatenate([period, period])
    for shift in (1, 5, 37, 101):
        mixed = period ^ doubled[shift : shift + spec.period]
        rotations = [
            np.array_equal(mixed, doubled[r : r + spec.period]) for r in range(spec.period)
        ]
        assert sum(rotations) == 1


def test_synchronize_clean_stream_locks_at_zero():
    spec = PrbsSpec()
    state = sync(spec, pattern(spec, 4000))
    assert state.locked and state.offset == 0


def test_synchronize_all_zeros_never_locks():
    assert sync(PrbsSpec(), np.zeros(100_000, np.uint8)) == SEARCHING


def test_synchronize_short_stream_is_searching():
    spec = PrbsSpec()
    short = pattern(spec, spec.order + LOCK_THRESHOLD - 1)
    assert sync(spec, short) == SEARCHING


def test_synchronize_skips_corrupted_head():
    spec = PrbsSpec(seed=99)
    stream = pattern(spec, 5000)
    stream[:5] ^= 1
    state = sync(spec, stream)
    assert state.locked
    assert 0 < state.offset <= 5 + spec.order + LOCK_THRESHOLD


def test_count_errors_requires_lock():
    spec = PrbsSpec()
    with pytest.raises(ValueError):
        count(spec, pattern(spec, 1000), SEARCHING)


def test_receiver_refuses_a_bit_count_its_octets_cannot_hold():
    spec = PrbsSpec()
    stream = generate(spec, 1000)  # 125 octets
    locked = SyncState(locked=True, offset=0)
    for n_bits in (5000, 1001, -3, -5):
        with pytest.raises(ValueError, match=f"^125 octets cannot hold {n_bits} bits$"):
            synchronize(spec, stream, n_bits)
        with pytest.raises(ValueError, match=f"^125 octets cannot hold {n_bits} bits$"):
            count_errors(spec, stream, n_bits, locked)
    with pytest.raises(ValueError, match="max_bits must be nonnegative"):
        count_errors(spec, stream, 1000, locked, max_bits=-1)
    for offset in (-1, -5):
        with pytest.raises(ValueError, match=f"^lock offset must be nonnegative, got {offset}$"):
            count_errors(spec, stream, 1000, SyncState(locked=True, offset=offset))
    # The whole stream, and none of it, are still counts it holds.
    assert synchronize(spec, stream, 1000) == locked
    assert count_errors(spec, stream, 1000, locked) == (1000 - spec.order, 0)
    assert count_errors(spec, stream, 1000, locked, max_bits=0) == (0, 0)
    assert synchronize(spec, stream, 0) == SEARCHING


def test_count_errors_clean():
    spec = PrbsSpec()
    stream = pattern(spec, 50_000)
    state = sync(spec, stream)
    compared, errored = count(spec, stream, state)
    assert (compared, errored) == (50_000 - spec.order, 0)


def test_count_errors_exact_for_isolated_flips():
    spec = PrbsSpec(seed=0x1234)
    stream = pattern(spec, 100_000)
    positions = np.arange(10) * 541 + 2000  # separated by far more than the order
    stream[positions] ^= 1
    state = sync(spec, stream)
    assert state.locked and state.offset == 0
    compared, errored = count(spec, stream, state)
    assert errored == 10
    assert compared == 100_000 - spec.order


def test_count_errors_fully_inverted_post_lock():
    spec = PrbsSpec()
    n = 20_000
    stream = pattern(spec, n)
    stream[spec.order :] ^= 1
    state = SyncState(locked=True, offset=0)
    compared, errored = count(spec, stream, state)
    assert (compared, errored) == (n - spec.order, n - spec.order)


def test_count_errors_respects_max_bits():
    spec = PrbsSpec()
    stream = pattern(spec, 10_000)
    state = sync(spec, stream)
    compared, errored = count(spec, stream, state, max_bits=1234)
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
    stream = pattern(spec, 30_000)
    for p in positions:
        stream[p] ^= 1
    state = sync(spec, stream)
    assert state.locked and state.offset == 0
    _, errored = count(spec, stream, state)
    assert errored == len(set(positions))


def test_prbs23_generates():
    spec = PrbsSpec(order=23)
    assert spec.taps == DEFAULT_TAPS[23]
    bits = pattern(spec, 10_000)
    state = sync(spec, bits)
    assert state.locked and state.offset == 0


# ---------------------------------------------------------------------------
# the receiver's reference register and the tap table


def whole_stream_synchronize(spec: PrbsSpec, received: np.ndarray) -> SyncState:
    """The receiver lock computed over the whole stream at once, as a reference."""
    m = LOCK_THRESHOLD
    r = np.ascontiguousarray(received, dtype=np.uint8)
    k, t = spec.order, spec.taps[1]
    n = len(r)
    if n < k + m:
        return SEARCHING
    pred_err = r[k:] ^ r[: n - k] ^ r[k - t : n - t]
    clean = np.concatenate(([0], np.cumsum(pred_err == 0, dtype=np.int64)))
    run_ok = clean[m:] - clean[:-m] == m
    ones = np.concatenate(([0], np.cumsum(r, dtype=np.int64)))
    seed_ok = (ones[k:] - ones[:-k]) > 0
    candidates = run_ok & seed_ok[: len(run_ok)]
    if not candidates.any():
        return SEARCHING
    return SyncState(locked=True, offset=int(np.argmax(candidates)))


def random_window(data, order: int) -> np.ndarray:
    """A nonzero `order`-bit history: a random phase of a maximal pattern."""
    state = data.draw(st.integers(1, (1 << order) - 1))
    return (state >> np.arange(order) & 1).astype(np.uint8)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), order_tap=_SMALL_SPECS)
def test_synchronize_matches_whole_stream_reference(data, order_tap):
    # Errors every few bits up to a random point push the lock into a later
    # scan window, past the 2^16 window cap for the longer streams.
    order, tap = order_tap
    spec = PrbsSpec(order=order, taps=(order, tap))
    n = data.draw(st.integers(0, 300_000))
    received = pattern(spec, n, random_window(data, order))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    dirty_until = data.draw(st.integers(0, n))
    gap = data.draw(st.integers(1, 3 * LOCK_THRESHOLD))
    received[rng.integers(0, dirty_until, size=dirty_until // gap)] ^= 1
    if data.draw(st.booleans()):
        received[: data.draw(st.integers(0, n))] = 0  # zero windows never lock
    p = data.draw(st.sampled_from([0.0, 1e-4, 0.02, 0.5]))
    received ^= (rng.random(n) < p).astype(np.uint8)
    assert sync(spec, received) == whole_stream_synchronize(spec, received)


def stream_locking_at(spec: PrbsSpec, lock: int, gap: int, tail: int) -> np.ndarray:
    """A pattern stream whose first lock candidate is exactly `lock`.

    Flips at lock-1, lock-1-gap, ... spoil every earlier candidate when gap
    is at most order + LOCK_THRESHOLD; a gap above 23 never equals a tap
    distance, so no two flips cancel in one prediction.
    """
    stream = pattern(spec, lock + spec.order + LOCK_THRESHOLD + tail)
    stream[np.arange(lock - 1, -1, -gap)] ^= 1
    return stream


@pytest.mark.parametrize("order", [9, 23])
def test_synchronize_finds_every_lock_offset(order):
    # Every offset up to a few thousand, so each window boundary is hit.
    spec = PrbsSpec(order=order)
    for lock in range(3000):
        stream = stream_locking_at(spec, lock, gap=order + LOCK_THRESHOLD, tail=lock % 7)
        assert sync(spec, stream) == SyncState(locked=True, offset=lock)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), order_tap=_SMALL_SPECS)
def test_synchronize_finds_a_late_lock(data, order_tap):
    order, tap = order_tap
    spec = PrbsSpec(order=order, taps=(order, tap))
    lock = data.draw(st.integers(0, 300_000))
    gap = data.draw(st.integers(24, order + LOCK_THRESHOLD))
    stream = stream_locking_at(spec, lock, gap, tail=data.draw(st.integers(0, 1000)))
    assert sync(spec, stream) == SyncState(locked=True, offset=lock)


def test_synchronize_memory_stays_bounded():
    # An early error used to cost about 27 bytes per bit of the segment.
    spec = PrbsSpec()
    stream = generate(spec, 1 << 24)
    stream[0] ^= 0x04  # bit 5
    tracemalloc.start()
    try:
        state = synchronize(spec, stream, 1 << 24)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state == SyncState(locked=True, offset=6)
    assert peak < 8 * 2**20


def serial_count(spec: PrbsSpec, received: np.ndarray, offset: int, max_bits) -> tuple[int, int]:
    """Seed a serial register from the window at `offset`, let it run free, count errors."""
    k = spec.order
    state = 0
    for bit in received[offset : offset + k]:  # oldest bit ends up in the top position
        state = (state << 1) | int(bit)
    errors = compared = 0
    for bit in received[offset + k :]:
        if max_bits is not None and compared == max_bits:
            break
        state, expected = step_register(state, k, spec.taps[1])
        errors += int(bit) != expected
        compared += 1
    return compared, errors


@settings(max_examples=40, deadline=None)
@given(data=st.data(), order_tap=_SMALL_SPECS)
def test_count_errors_matches_serial_free_run(data, order_tap):
    order, tap = order_tap
    spec = PrbsSpec(order=order, taps=(order, tap))
    n = data.draw(st.integers(order, 1500))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    received = pattern(spec, n, random_window(data, order))
    p = data.draw(st.sampled_from([0.0, 1e-3, 0.05, 0.5]))
    received ^= (rng.random(n) < p).astype(np.uint8)
    offset = data.draw(st.integers(0, n - order))
    if data.draw(st.booleans()):
        received[offset : offset + order] = 0  # the all-zero window is a fixed point
    max_bits = data.draw(st.none() | st.integers(0, n))
    state = SyncState(locked=True, offset=offset)
    assert count(spec, received, state, max_bits) == serial_count(
        spec, received, offset, max_bits
    )


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    order_tap=st.sampled_from([(k, t) for k, ts in MAXIMAL_TAPS.items() for t in ts]),
    residue=st.integers(0, 7),
)
def test_packed_count_errors_matches_unpacked_oracle(data, order_tap, residue):
    # Lock offsets of every residue mod 8 put the first compared bit at
    # every phase of an octet; set bits past the bit count are not read.
    order, tap = order_tap
    spec = PrbsSpec(order=order, taps=(order, tap))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    offset = 8 * data.draw(st.integers(0, 40)) + residue
    n = offset + data.draw(st.integers(0, 40 * order) | st.integers(0, 20_000))
    received = oracles.generate(spec, n, random_window(data, order))
    p = data.draw(st.sampled_from([0.0, 1e-3, 0.05, 0.5]))
    received ^= (rng.random(n) < p).astype(np.uint8)
    max_bits = data.draw(st.none() | st.integers(0, n))
    packed = np.packbits(received)
    if n % 8:
        packed[-1] |= (1 << (8 - n % 8)) - 1
    state = SyncState(locked=True, offset=offset)
    assert count_errors(spec, packed, n, state, max_bits) == oracles.count_errors(
        spec, received, state, max_bits
    )


def _is_maximal(order: int, tap: int) -> bool:
    # The register state returns to the seed after exactly 2**order - 1 steps.
    state, steps = 1, 0
    while True:
        state, _ = step_register(state, order, tap)
        steps += 1
        if state == 1:
            return steps == (1 << order) - 1


@pytest.mark.parametrize("order", [9, 11, 15])
def test_spec_accepts_exactly_the_maximal_taps(order):
    maximal = [t for t in range(1, order) if _is_maximal(order, t)]
    assert sorted(MAXIMAL_TAPS[order]) == maximal
    assert DEFAULT_TAPS[order] == (order, MAXIMAL_TAPS[order][0])
    for first in (order - 1, order, order + 1):
        for second in range(-1, order + 2):
            if first == order and second in maximal:
                assert PrbsSpec(order=order, taps=(first, second)).taps == (first, second)
            else:
                with pytest.raises(ValueError):
                    PrbsSpec(order=order, taps=(first, second))


def test_non_maximal_taps_in_config_exit_3(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {"schema": "ber-campaign-config/1", "pattern": {"order": 15, "taps": [15, 13]}}
        )
    )
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "r")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
