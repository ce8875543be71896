import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from berbench.framing import (
    FAS_PATTERN,
    FRAME_BITS,
    HALF_BITS,
    IDLE_OCTET,
    LineCodeViolationError,
    FrameAlignmentError,
    MULTIFRAME_BITS,
    build_multiframes,
    crc4_check_bits,
    crc4_remainder,
    g704_align,
    hdb3_decode,
    hdb3_encode,
    line_positions,
)


def crc4_long_division(bits) -> int:
    """Independent oracle: shift-register long division of bits*x^4 by x^4+x+1."""
    reg = 0
    for b in list(bits) + [0, 0, 0, 0]:
        reg = (reg << 1) | int(b)
        if reg & 0x10:
            reg ^= 0x13
    return reg & 0xF


def random_payload(rng, n=1):
    """Payload bits filling `n` multiframes of all 31 timeslots."""
    return np.unpackbits(rng.integers(0, 256, size=(n, 16, 31)).astype(np.uint8))


# ---------------------------------------------------------------------------
# CRC-4


def test_crc4_matches_long_division_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        half = rng.integers(0, 2, HALF_BITS).astype(np.uint8)
        bits = crc4_check_bits(half)
        value = bits[0] << 3 | bits[1] << 2 | bits[2] << 1 | bits[3]
        assert int(value) == crc4_long_division(half)
        assert crc4_remainder(half) == crc4_long_division(half)


def test_crc4_of_zero_half_is_zero():
    assert crc4_remainder(np.zeros(HALF_BITS, np.uint8)) == 0


def test_crc4_rejects_wrong_length():
    with pytest.raises(ValueError):
        crc4_check_bits(np.zeros(100, np.uint8))


# ---------------------------------------------------------------------------
# multiframe build / align


def test_multiframe_carries_oracle_checked_remainders():
    # Each half carries the check of the other half, computed with the
    # check-bit positions zeroed.
    rng = np.random.default_rng(2)
    for payload in (np.zeros(16 * 31 * 8, np.uint8), random_payload(rng)):
        mf = build_multiframes(payload)
        check_pos_first = [f * FRAME_BITS for f in (0, 2, 4, 6)]
        check_pos_second = [f * FRAME_BITS for f in (8, 10, 12, 14)]
        first = mf[:HALF_BITS].copy()
        second = mf[HALF_BITS:].copy()
        stored_first = first[[0, 512, 1024, 1536]].copy()
        stored_second = second[[0, 512, 1024, 1536]].copy()
        first[[0, 512, 1024, 1536]] = 0
        second[[0, 512, 1024, 1536]] = 0
        c_first = crc4_long_division(second)
        c_second = crc4_long_division(first)
        assert [int(b) for b in stored_first] == [(c_first >> s) & 1 for s in (3, 2, 1, 0)]
        assert [int(b) for b in stored_second] == [(c_second >> s) & 1 for s in (3, 2, 1, 0)]
        assert check_pos_first == [0, 512, 1024, 1536]
        assert check_pos_second == [2048, 2560, 3072, 3584]


def test_every_even_frame_carries_the_alignment_signal():
    rng = np.random.default_rng(3)
    mf = build_multiframes(random_payload(rng))
    for f in range(0, 16, 2):
        octet = mf[f * FRAME_BITS : f * FRAME_BITS + 8]
        assert octet[1:].tolist() == list(FAS_PATTERN)
    for f in range(1, 16, 2):
        assert mf[f * FRAME_BITS + 1] == 1


def test_build_rejects_wrong_payload_shape():
    with pytest.raises(ValueError):
        build_multiframes(np.zeros((16, 31 * 8), np.uint8))
    with pytest.raises(ValueError):
        build_multiframes(np.uint8(1))
    for timeslots in (0, 32):
        with pytest.raises(ValueError):
            build_multiframes(np.zeros(8, np.uint8), timeslots)
        with pytest.raises(ValueError):
            g704_align(build_multiframes(np.zeros(8, np.uint8)), timeslots)
        with pytest.raises(ValueError):
            line_positions(np.array([0]), timeslots)


def test_align_build_roundtrip():
    rng = np.random.default_rng(4)
    payload = random_payload(rng, 3)
    stream = build_multiframes(payload)
    offset, recovered = g704_align(stream)
    assert offset == 0
    assert np.array_equal(recovered, payload)


def test_align_reports_junk_prefix_offset():
    rng = np.random.default_rng(5)
    stream = build_multiframes(random_payload(rng))
    prefixed = np.concatenate([np.zeros(17, np.uint8), stream])
    offset, _ = g704_align(prefixed)
    assert offset == 17


def test_align_shift_equivariance():
    rng = np.random.default_rng(6)
    stream = build_multiframes(random_payload(rng))
    for k in range(0, 256, 7):
        offset, _ = g704_align(np.concatenate([np.zeros(k, np.uint8), stream]))
        assert offset == k


def test_align_loses_frame_on_featureless_bits():
    # Seed chosen so the random stream contains no confirmed alignment word.
    rng = np.random.default_rng(123)
    noise = rng.integers(0, 2, 3 * FRAME_BITS).astype(np.uint8)
    with pytest.raises(FrameAlignmentError):
        g704_align(noise)


def test_align_needs_three_frames():
    with pytest.raises(FrameAlignmentError):
        g704_align(np.zeros(2 * FRAME_BITS, np.uint8))


def test_multiframe_length():
    assert MULTIFRAME_BITS == 4096
    assert len(build_multiframes(np.zeros(2 * 16 * 31 * 8, np.uint8))) == 8192
    # Zero-padded to whole multiframes, with at least one.
    assert len(build_multiframes(np.zeros(0, np.uint8))) == 4096
    assert len(build_multiframes(np.zeros(16 * 4 * 8 + 1, np.uint8), 4)) == 8192


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=31),
    st.integers(min_value=0, max_value=3 * 16 * 31 * 8),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
def test_fractional_layout_roundtrips_and_maps_flips(timeslots, n_bits, seed, where):
    payload = np.random.default_rng(seed).integers(0, 2, n_bits).astype(np.uint8)
    line = build_multiframes(payload, timeslots)
    per_mf = 16 * timeslots * 8
    padded = np.zeros(max(1, -(-n_bits // per_mf)) * per_mf, np.uint8)
    padded[:n_bits] = payload
    offset, recovered = g704_align(line, timeslots)
    assert offset == 0 and np.array_equal(recovered, padded)
    # Unequipped timeslots carry the idle octet.
    idle = line.reshape(-1, 32, 8)[:, timeslots + 1 :]
    assert (np.packbits(idle, axis=2) == IDLE_OCTET).all()
    # A flip at a payload bit's line position comes back at that bit.
    i = int(where * len(padded))
    line[line_positions(i, timeslots)] ^= 1
    _, flipped = g704_align(line, timeslots)
    assert np.flatnonzero(flipped != padded).tolist() == [i]


# ---------------------------------------------------------------------------
# HDB3


def test_hdb3_ami_alternation():
    assert hdb3_encode(np.array([1, 1, 0, 1], np.uint8)).tolist() == [1, -1, 0, 1]
    assert hdb3_encode(np.array([1, 1, 0, 1], np.uint8), start_polarity=-1).tolist() == [
        -1,
        1,
        0,
        -1,
    ]


def test_hdb3_single_substitution_after_odd_marks():
    # One mark since the start: 000V with the violation repeating polarity.
    assert hdb3_encode(np.array([1, 0, 0, 0, 0], np.uint8)).tolist() == [1, 0, 0, 0, 1]


def test_hdb3_substitution_after_even_marks_inserts_balancing_pulse():
    # Two marks: B00V, with the balancing pulse taking the next polarity.
    assert hdb3_encode(np.array([1, 1, 0, 0, 0, 0], np.uint8)).tolist() == [1, -1, 1, 0, 0, 1]


def test_hdb3_leading_zero_run_uses_balancing_pulse():
    assert hdb3_encode(np.array([0, 0, 0, 0], np.uint8)).tolist() == [1, 0, 0, 1]


def test_hdb3_consecutive_violations_alternate():
    sym = hdb3_encode(np.zeros(8, np.uint8))
    assert sym.tolist() == [1, 0, 0, 1, -1, 0, 0, -1]


def test_hdb3_start_polarity_validated():
    with pytest.raises(ValueError):
        hdb3_encode(np.array([1], np.uint8), start_polarity=0)


@settings(max_examples=60)
@given(st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=400))
def test_hdb3_roundtrip(bits):
    x = np.array(bits, np.uint8)
    assert np.array_equal(hdb3_decode(hdb3_encode(x)), x)


@settings(max_examples=40)
@given(
    st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=400),
    st.sampled_from([1, -1]),
)
def test_hdb3_no_four_zero_symbols_and_bounded_rds(bits, polarity):
    sym = hdb3_encode(np.array(bits, np.uint8), start_polarity=polarity)
    run = worst = 0
    for v in sym:
        run = run + 1 if v == 0 else 0
        worst = max(worst, run)
    assert worst <= 3
    assert int(np.max(np.abs(np.cumsum(sym)))) <= 2 if len(sym) else True


def test_hdb3_decode_empty():
    assert len(hdb3_decode(np.zeros(0, np.int8))) == 0


def test_hdb3_decode_flags_flipped_pulse():
    sym = hdb3_encode(np.ones(32, np.uint8))
    sym[5] = -sym[5]  # breaks alternation with no room for a substitution
    with pytest.raises(LineCodeViolationError):
        hdb3_decode(sym)


def test_hdb3_decode_flags_plain_zero_run():
    with pytest.raises(LineCodeViolationError) as err:
        hdb3_decode(np.array([1, 0, 0, 0, 0, -1], np.int8))
    assert err.value.position == 4  # the fourth plain zero after the mark


def test_hdb3_decode_flags_all_zero_stream():
    with pytest.raises(LineCodeViolationError):
        hdb3_decode(np.zeros(4, np.int8))
    assert hdb3_decode(np.zeros(3, np.int8)).tolist() == [0, 0, 0]


def test_hdb3_decode_flags_bad_alphabet():
    with pytest.raises(LineCodeViolationError):
        hdb3_decode(np.array([1, 2, 0], np.int8))


def test_hdb3_decode_flags_violation_leaning_on_a_violation():
    # A violation three after a previous violation would steal it as a
    # balancing pulse; no encoder emits that.
    sym = np.array([1, 0, 0, 0, 1, 0, 0, 1], np.int8)
    with pytest.raises(LineCodeViolationError):
        hdb3_decode(sym)


def test_single_bit_flip_changes_crc_spot_check():
    # Exhaustive single-flip coverage runs in the acceptance suite; this is
    # a fast sample across the half.
    rng = np.random.default_rng(8)
    half = rng.integers(0, 2, HALF_BITS).astype(np.uint8)
    base = crc4_remainder(half)
    for i in range(0, HALF_BITS, 31):
        flipped = half.copy()
        flipped[i] ^= 1
        assert crc4_remainder(flipped) != base
