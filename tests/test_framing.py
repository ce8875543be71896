import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from berbench import framing
from berbench.framing import (
    FAS_PATTERN,
    FRAME_BITS,
    HALF_BITS,
    IDLE_OCTET,
    LineCodeViolationError,
    FrameAlignmentError,
    MULTIFRAME_BITS,
    _crc4_octets,
    build_multiframes,
    g704_align,
    hdb3_decode,
    hdb3_encode,
)
import oracles
from oracles import line_positions


def build_bits(payload, timeslots=31):
    """`build_multiframes` on unpacked payload bits, read back as unpacked line bits."""
    return np.unpackbits(build_multiframes(np.packbits(payload), timeslots))


def align_bits(stream, timeslots=31):
    """`g704_align` on unpacked line bits: (offset, unpacked payload bits)."""
    offset, payload = g704_align(np.packbits(stream), timeslots, len(stream))
    return offset, np.unpackbits(payload)


def crc4_long_division(bits) -> int:
    """Independent oracle: shift-register long division of bits*x^4 by x^4+x+1."""
    reg = 0
    for b in list(bits) + [0, 0, 0, 0]:
        reg = (reg << 1) | int(b)
        if reg & 0x10:
            reg ^= 0x13
    return reg & 0xF


def crc4_remainder(half_bits) -> int:
    """The program's table CRC-4 of one unpacked half (bit 3 = first check bit)."""
    return int(_crc4_octets(np.packbits(half_bits)))


def random_payload(rng, n=1):
    """Payload bits filling `n` multiframes of all 31 timeslots."""
    return np.unpackbits(rng.integers(0, 256, size=(n, 16, 31)).astype(np.uint8))


def _reference_crc_contrib():
    # Bit i of a half contributes x^(HALF_BITS-1-i+4) mod x^4+x+1.
    residues = [1]
    for _ in range(14):
        v = residues[-1] << 1
        residues.append(v ^ 0x13 if v & 0x10 else v)
    exps = (HALF_BITS + 3 - np.arange(HALF_BITS)) % 15
    return (np.array(residues, np.uint8)[exps][:, None] >> np.array([3, 2, 1, 0], np.uint8)) & 1


_REFERENCE_CRC_CONTRIB = _reference_crc_contrib()


def reference_crc4_check_bits(half_bits):
    """Check bits as a uint8 matrix product over the unpacked half, C1 first."""
    return np.asarray(half_bits, np.uint8) @ _REFERENCE_CRC_CONTRIB & 1


def _reference_ts0():
    ts0 = np.zeros((16, 8), np.uint8)
    ts0[1::2] = (1, 1, 0, 1, 1, 1, 1, 1)
    ts0[0::2, 1:] = FAS_PATTERN
    ts0[1:12:2, 0] = (0, 0, 1, 0, 1, 1)
    ts0[13::2, 0] = 1
    return ts0


def reference_build_multiframes(payload, timeslots=31):
    """The multiframe build on unpacked bits, one uint8 per line bit."""
    payload = np.asarray(payload, np.uint8)
    per_mf = 16 * timeslots * 8
    n = max(1, -(-len(payload) // per_mf))
    padded = np.zeros(n * per_mf, np.uint8)
    padded[: len(payload)] = payload
    bits = np.empty((n, 16, 32, 8), np.uint8)
    bits[:, :, 0] = _reference_ts0()
    bits[:, :, 1 : timeslots + 1] = padded.reshape(n, 16, timeslots, 8)
    bits[:, :, timeslots + 1 :] = np.unpackbits(np.array([IDLE_OCTET], np.uint8))
    flat = bits.reshape(n, MULTIFRAME_BITS)
    c_first = reference_crc4_check_bits(flat[:, HALF_BITS:])
    c_second = reference_crc4_check_bits(flat[:, :HALF_BITS])
    flat[:, [f * FRAME_BITS for f in (0, 2, 4, 6)]] = c_first
    flat[:, [f * FRAME_BITS for f in (8, 10, 12, 14)]] = c_second
    return flat.reshape(-1)


# ---------------------------------------------------------------------------
# CRC-4


def test_crc4_matches_long_division_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        half = rng.integers(0, 2, HALF_BITS).astype(np.uint8)
        assert crc4_remainder(half) == crc4_long_division(half)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_table_crc_matches_long_division(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if data.draw(st.booleans()):
        half = rng.integers(0, 2, HALF_BITS).astype(np.uint8)
    else:  # a half cut from a real multiframe, check bits as sent
        timeslots = data.draw(st.integers(1, 31))
        n_bits = data.draw(st.integers(0, 2 * 16 * timeslots * 8))
        line = build_bits(rng.integers(0, 2, n_bits).astype(np.uint8), timeslots)
        start = HALF_BITS * data.draw(st.integers(0, len(line) // HALF_BITS - 1))
        half = line[start : start + HALF_BITS]
    want = crc4_long_division(half)
    assert crc4_remainder(half) == want
    assert reference_crc4_check_bits(half).tolist() == [(want >> s) & 1 for s in (3, 2, 1, 0)]


def test_crc4_of_zero_half_is_zero():
    assert crc4_remainder(np.zeros(HALF_BITS, np.uint8)) == 0


# ---------------------------------------------------------------------------
# multiframe build / align


def test_multiframe_carries_oracle_checked_remainders():
    # Each half carries the check of the other half, computed with the
    # check-bit positions zeroed.
    rng = np.random.default_rng(2)
    for payload in (np.zeros(16 * 31 * 8, np.uint8), random_payload(rng)):
        mf = build_bits(payload)
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
    mf = build_bits(random_payload(rng))
    for f in range(0, 16, 2):
        octet = mf[f * FRAME_BITS : f * FRAME_BITS + 8]
        assert octet[1:].tolist() == list(FAS_PATTERN)
    for f in range(1, 16, 2):
        assert mf[f * FRAME_BITS + 1] == 1


def test_build_rejects_wrong_payload_shape():
    with pytest.raises(ValueError):
        build_multiframes(np.zeros((16, 31), np.uint8))
    with pytest.raises(ValueError):
        build_multiframes(np.uint8(1))
    for timeslots in (0, 32):
        with pytest.raises(ValueError):
            build_multiframes(np.zeros(1, np.uint8), timeslots)
        with pytest.raises(ValueError):
            g704_align(build_multiframes(np.zeros(1, np.uint8)), timeslots)
    with pytest.raises(ValueError):  # more bits than the octets hold
        g704_align(np.zeros(400, np.uint8), 31, 8 * 400 + 1)


def test_align_build_roundtrip():
    rng = np.random.default_rng(4)
    payload = random_payload(rng, 3)
    stream = build_bits(payload)
    offset, recovered = align_bits(stream)
    assert offset == 0
    assert np.array_equal(recovered, payload)


def test_align_reports_junk_prefix_offset():
    rng = np.random.default_rng(5)
    stream = build_bits(random_payload(rng))
    prefixed = np.concatenate([np.zeros(17, np.uint8), stream])
    offset, _ = align_bits(prefixed)
    assert offset == 17


def test_align_shift_equivariance():
    rng = np.random.default_rng(6)
    stream = build_bits(random_payload(rng))
    for k in range(0, 256, 7):
        offset, _ = align_bits(np.concatenate([np.zeros(k, np.uint8), stream]))
        assert offset == k


def test_align_loses_frame_on_featureless_bits():
    # Seed chosen so the random stream contains no confirmed alignment word.
    rng = np.random.default_rng(123)
    noise = rng.integers(0, 2, 3 * FRAME_BITS).astype(np.uint8)
    with pytest.raises(FrameAlignmentError):
        align_bits(noise)


def test_align_needs_three_frames():
    with pytest.raises(FrameAlignmentError):
        align_bits(np.zeros(2 * FRAME_BITS, np.uint8))


def whole_stream_align(stream, timeslots=31):
    """Frame alignment searched over the whole stream at once, as a reference."""
    s = np.ascontiguousarray(stream, dtype=np.uint8)
    n = len(s)
    if n < 3 * FRAME_BITS:
        raise FrameAlignmentError("short")
    fas_at = np.ones(n - 7, dtype=bool)
    for j, bit in enumerate(FAS_PATTERN):
        fas_at &= s[1 + j : n - 7 + 1 + j] == bit
    limit = n - 2 * FRAME_BITS - 7
    good = (
        fas_at[:limit]
        & (s[FRAME_BITS + 1 : FRAME_BITS + 1 + limit] == 1)
        & fas_at[2 * FRAME_BITS : 2 * FRAME_BITS + limit]
    )
    candidates = np.flatnonzero(good)
    if len(candidates) == 0:
        raise FrameAlignmentError("none")
    phases = np.unique(candidates % (2 * FRAME_BITS))
    votes = [int(fas_at[int(p) :: 2 * FRAME_BITS].sum()) for p in phases]
    offset = int(phases[int(np.argmax(votes))])
    frames = (n - offset) // FRAME_BITS
    slots = s[offset : offset + frames * FRAME_BITS].reshape(frames, 32 * 8)
    return offset, slots[:, 8 : 8 * (timeslots + 1)].reshape(-1)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), timeslots=st.integers(1, 31))
def test_align_in_passes_matches_whole_stream_reference(data, timeslots):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

    def bits(n):
        return rng.integers(0, 2, n).astype(np.uint8)

    shape = data.draw(st.sampled_from(["framed", "two-phases", "featureless"]))
    if shape == "framed":
        line = build_bits(bits(data.draw(st.integers(0, 6000))), timeslots)
        prefix = bits(data.draw(st.integers(0, 600)))
        kept = len(prefix) + data.draw(st.integers(0, len(line)))
        stream = np.concatenate([prefix, line])[:kept]
    elif shape == "two-phases":  # two framings whose votes tie or nearly tie
        n = data.draw(st.integers(1, 3000))
        first, second = (build_bits(bits(n), timeslots) for _ in range(2))
        gap = bits(data.draw(st.integers(1, 2 * FRAME_BITS - 1)))
        stream = np.concatenate([first, gap, second])
        stream = stream[: len(stream) - data.draw(st.integers(0, 4 * FRAME_BITS))]
    else:
        stream = bits(data.draw(st.integers(0, 5000)))
    p = data.draw(st.sampled_from([0.0, 1e-3, 0.02, 0.3, 0.5]))
    stream ^= (rng.random(len(stream)) < p).astype(np.uint8)
    line = np.packbits(stream)
    if len(stream) % 8:  # set bits past the bit count are not read
        line[-1] |= (1 << (8 - len(stream) % 8)) - 1
    saved = framing._ALIGN_PASS
    framing._ALIGN_PASS = data.draw(st.integers(16, 3000))  # many pass boundaries
    try:
        got = g704_align(line, timeslots, len(stream))
    except FrameAlignmentError:
        got = None
    finally:
        framing._ALIGN_PASS = saved
    try:
        want = whole_stream_align(stream, timeslots)
    except FrameAlignmentError:
        want = None
    try:
        oracle = oracles.g704_align(stream, timeslots)
    except FrameAlignmentError:
        oracle = None
    assert (got is None) == (want is None) == (oracle is None)
    if got is not None:
        assert got[0] == want[0] == oracle[0]
        assert np.array_equal(np.unpackbits(got[1]), want[1])
        assert np.array_equal(got[1], np.packbits(oracle[1]))


@pytest.mark.parametrize("pass_bits", [1, 7, 2 * FRAME_BITS, 4096])
def test_align_counts_each_signal_match_once(monkeypatch, pass_bits):
    # The first framing sits at phase 17, the second at phase 0 with one
    # frame pair fewer: phase 17 wins the vote only if no pass boundary
    # counts a signal match twice.
    first = build_bits(np.zeros(2 * 16 * 31 * 8, np.uint8))  # stray signals at phase 253 only
    second = first[: -2 * FRAME_BITS]
    stream = np.concatenate(
        [np.zeros(17, np.uint8), first, np.zeros(2 * FRAME_BITS - 17, np.uint8), second]
    )
    monkeypatch.setattr(framing, "_ALIGN_PASS", pass_bits)
    assert align_bits(stream)[0] == whole_stream_align(stream)[0] == 17


def two_framings(first_phase, first, second_phase, second):
    """Line bits: zeros, framing `first` from bit `first_phase`, zeros, then
    framing `second` from a bit at frame-pair phase `second_phase`."""
    gap = (second_phase - first_phase - len(first)) % (2 * FRAME_BITS)
    zeros = np.zeros(max(first_phase, gap), np.uint8)
    return np.concatenate([zeros[:first_phase], first, zeros[:gap], second])


def counting_recounts(monkeypatch):
    """Record the phases whose votes the stopping rule counts over the whole line."""
    recounted = []
    count = framing._phase_votes

    def spy(line, phase, end):
        recounted.append(phase)
        return count(line, phase, end)

    monkeypatch.setattr(framing, "_phase_votes", spy)
    return recounted


def test_align_leader_after_the_first_pass_can_lose(monkeypatch):
    # Phase 17 for 1.5 passes, phase 0 for the 2.5 after: phase 17 leads
    # with a majority after the first pass, and only the rest of the line
    # shows that phase 0 wins.
    rng = np.random.default_rng(13)
    per_pass = framing._ALIGN_PASS // MULTIFRAME_BITS  # multiframes
    stream = two_framings(
        17, build_bits(random_payload(rng, 3 * per_pass // 2)),
        0, build_bits(random_payload(rng, 5 * per_pass // 2)),
    )
    recounted = counting_recounts(monkeypatch)
    offset, payload = align_bits(stream)
    want = oracles.g704_align(stream)
    assert offset == want[0] == 0
    assert np.array_equal(payload, want[1])
    assert recounted[0] == 17


def ones_framing(multiframes):
    """Line bits of framing whose payload is all ones: it holds no stray signal."""
    return build_bits(np.ones(multiframes * 16 * 31 * 8, np.uint8))


def voting_phases(stream):
    """{frame-pair phase: signal matches} of unpacked line bits, for phases with any."""
    match = np.ones(len(stream) - 7, dtype=bool)
    for j, bit in enumerate(FAS_PATTERN):
        match &= stream[1 + j : len(stream) - 6 + j] == bit
    votes = np.bincount(np.flatnonzero(match) % (2 * FRAME_BITS), minlength=2 * FRAME_BITS)
    return {p: int(v) for p, v in enumerate(votes) if v}


def test_align_late_tie_goes_to_the_lower_phase(monkeypatch):
    # Phase 300 leads for two passes; phase 0 draws level only with the
    # last frame pair of the line.  Three passes in, phase 0 could at most
    # tie, counting the one position it has left past the last whole
    # frame pair, so only a rule that gives a tie to the lower phase and
    # counts every position left keeps scanning.
    per_pass = framing._ALIGN_PASS // MULTIFRAME_BITS
    framed = ones_framing(2 * per_pass)
    stream = two_framings(300, framed, 0, framed)
    assert voting_phases(stream) == {0: 2 * per_pass * 8, 300: 2 * per_pass * 8}
    recounted = counting_recounts(monkeypatch)
    offset, payload = align_bits(stream)
    want = oracles.g704_align(stream)
    assert offset == want[0] == 0
    assert np.array_equal(payload, want[1])
    assert recounted[0] == 300


def test_align_reads_no_signal_past_the_bit_count():
    # Phases 100 and 300 tie within the bit count, and the bits after it
    # hold one more signal at phase 300.
    stream = two_framings(100, ones_framing(1), 300, ones_framing(2))
    n = 100 + 16 * FRAME_BITS + 200 + 8 * 2 * FRAME_BITS + 7  # all but the ninth signal's last bit
    assert voting_phases(stream[:n]) == {100: 8, 300: 8}
    assert voting_phases(stream)[300] == 16
    offset, payload = g704_align(np.packbits(stream), 31, n)
    want = oracles.g704_align(stream[:n])
    assert offset == want[0] == 100
    assert np.array_equal(np.unpackbits(payload), want[1])


class Windows:
    """A packed line as `g704_align` reads a received line: re-iterable,
    in consecutive windows of the given octet counts (the last repeats)."""

    def __init__(self, line, sizes):
        self.line, self.sizes, self.reads = line, sizes, 0

    def __len__(self):
        return len(self.line)

    def __iter__(self):
        self.reads += 1
        lo, i = 0, 0
        while lo < len(self.line):
            size = self.sizes[min(i, len(self.sizes) - 1)]
            yield self.line[lo : lo + size].copy()  # the reader may not keep a view
            lo, i = lo + size, i + 1


@settings(max_examples=150, deadline=None)
@given(data=st.data(), timeslots=st.integers(1, 31))
def test_align_over_windows_matches_whole_line_and_oracle(data, timeslots):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

    def bits(n):
        return rng.integers(0, 2, n).astype(np.uint8)

    def framed(multiframes):
        return build_bits(bits(multiframes * 16 * timeslots * 8), timeslots)

    phase = st.integers(0, 2 * FRAME_BITS - 1)
    shape = data.draw(st.sampled_from(["framed", "late-leader", "late-tie", "featureless"]))
    if shape == "framed":
        prefix = bits(data.draw(phase))
        stream = np.concatenate([prefix, framed(data.draw(st.integers(1, 12)))])
    elif shape == "late-leader":  # a first framing leads, a longer second one wins
        first = data.draw(st.integers(2, 6))
        second = first + data.draw(st.integers(0, 3))
        stream = two_framings(data.draw(phase), framed(first), data.draw(phase), framed(second))
    elif shape == "late-tie":  # the second framing draws level with the first at the end
        n = data.draw(st.integers(2, 6))
        stream = two_framings(data.draw(phase), ones_framing(n), data.draw(phase), ones_framing(n))
    else:
        stream = bits(data.draw(st.integers(3 * FRAME_BITS, 30_000)))
    stream = stream[: len(stream) - data.draw(st.integers(0, FRAME_BITS))]
    p = data.draw(st.sampled_from([0.0, 0.0, 1e-3, 0.02, 0.5]))
    stream ^= (rng.random(len(stream)) < p).astype(np.uint8)
    n = len(stream)
    line = np.packbits(stream)
    sizes = data.draw(st.lists(st.integers(1, 3000), min_size=1, max_size=6))
    # Passes of whole frame pairs let the vote settle on a leader early.
    pass_bits = data.draw(st.one_of(st.integers(1, 40).map(lambda k: 512 * k), st.integers(16, 3000)))
    saved = framing._ALIGN_PASS
    framing._ALIGN_PASS = pass_bits
    try:
        results = []
        for source in (line, Windows(line, sizes)):
            try:
                results.append(g704_align(source, timeslots, n))
            except FrameAlignmentError:
                results.append(None)
    finally:
        framing._ALIGN_PASS = saved
    try:
        oracle = oracles.g704_align(stream, timeslots)
    except FrameAlignmentError:
        oracle = None
    whole, windowed = results
    assert (whole is None) == (windowed is None) == (oracle is None)
    if oracle is not None:
        assert whole[0] == windowed[0] == oracle[0]
        assert np.array_equal(whole[1], windowed[1])
        assert np.array_equal(np.unpackbits(windowed[1]), oracle[1])


def test_align_reads_an_intact_line_once():
    line = build_multiframes(np.random.default_rng(3).integers(0, 256, 40_000).astype(np.uint8))
    windows = Windows(line, [4096])
    offset, payload = g704_align(windows)
    assert offset == 0 and np.array_equal(payload, g704_align(line)[1])
    assert windows.reads == 1


def test_align_reads_again_for_a_late_winner_and_a_later_phase(monkeypatch):
    # Phase 17 leads for a pass and a half, and the vote settles on it; phase
    # 0 wins with the rest of the line.  One read votes again in full; the
    # payload at phase 0 comes from the first.
    rng = np.random.default_rng(13)
    per_pass = framing._ALIGN_PASS // MULTIFRAME_BITS
    stream = two_framings(
        17, build_bits(random_payload(rng, 3 * per_pass // 2)),
        0, build_bits(random_payload(rng, 5 * per_pass // 2)),
    )
    windows = Windows(np.packbits(stream), [5000])
    recounted = counting_recounts(monkeypatch)
    offset, payload = g704_align(windows, 31, len(stream))
    assert offset == 0 and recounted[0] == 17
    assert np.array_equal(np.unpackbits(payload), oracles.g704_align(stream)[1])
    assert windows.reads == 2
    # A line whose frames start 17 bits in: the vote settles on phase 17 in
    # the first read, and a second one extracts the payload there.
    shifted = np.concatenate([np.zeros(17, np.uint8), build_bits(random_payload(rng, 40))])
    windows = Windows(np.packbits(shifted), [5000])
    offset, payload = g704_align(windows, 31, len(shifted))
    assert offset == 17
    assert np.array_equal(np.unpackbits(payload), oracles.g704_align(shifted)[1])
    assert windows.reads == 2


def test_align_on_a_full_segment_line_holds_no_line_sized_copy():
    # A 2^25-bit segment at 256 kbit/s is a 2^28-bit (32 MiB) line.
    payload = np.random.default_rng(9).integers(0, 256, 1 << 22).astype(np.uint8)
    line = build_multiframes(payload, 4)
    assert 8 * len(line) == 1 << 28
    tracemalloc.start()
    try:
        offset, recovered = g704_align(line, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert offset == 0 and np.array_equal(recovered, payload)
    assert peak - recovered.nbytes < 4 * 2**20  # beyond the returned payload


def test_align_memory_stays_bounded():
    # The search used to hold about two bytes per line bit in temporaries.
    payload = np.random.default_rng(8).integers(0, 256, 10**6 // 8).astype(np.uint8)
    line = build_multiframes(payload, 4)  # 256 kbit/s: 8 line bits per payload bit
    tracemalloc.start()
    try:
        offset, recovered = g704_align(line, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert offset == 0 and np.array_equal(recovered[: len(payload)], payload)
    assert peak < 4 * 2**20


@settings(max_examples=100, deadline=None)
@given(data=st.data(), timeslots=st.integers(1, 31))
def test_build_matches_unpacked_reference(data, timeslots):
    n_bits = data.draw(st.integers(0, 3 * 16 * timeslots * 8))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    payload = rng.integers(0, 2, n_bits).astype(np.uint8)
    line = build_multiframes(np.packbits(payload), timeslots)
    assert line.dtype == np.uint8
    want = reference_build_multiframes(payload, timeslots)
    assert np.array_equal(want, oracles.build_multiframes(payload, timeslots))
    assert np.array_equal(line, np.packbits(want))


@pytest.mark.parametrize("timeslots", [4, 31])
def test_build_memory_stays_bounded(timeslots):
    # The unpacked build peaked at about 2 bytes per line bit at 31 timeslots;
    # the packed one holds no line-sized temporary beside its result: the
    # peak is the line and the build's temporaries (about 0.1 line here).
    payload = np.random.default_rng(9).integers(0, 256, 10**6 // 8).astype(np.uint8)
    build_multiframes(payload[:1], timeslots)  # tables built on first use
    tracemalloc.start()
    try:
        line = build_multiframes(payload, timeslots)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - line.nbytes < 0.5 * len(line)


def test_multiframe_length():
    assert MULTIFRAME_BITS == 4096
    assert len(build_bits(np.zeros(2 * 16 * 31 * 8, np.uint8))) == 8192
    # Zero-padded to whole multiframes, with at least one.
    assert len(build_bits(np.zeros(0, np.uint8))) == 4096
    assert len(build_bits(np.zeros(16 * 4 * 8 + 1, np.uint8), 4)) == 8192


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=31),
    st.integers(min_value=0, max_value=3 * 16 * 31 * 8),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
def test_fractional_layout_roundtrips_and_maps_flips(timeslots, n_bits, seed, where):
    payload = np.random.default_rng(seed).integers(0, 2, n_bits).astype(np.uint8)
    line = build_bits(payload, timeslots)
    per_mf = 16 * timeslots * 8
    padded = np.zeros(max(1, -(-n_bits // per_mf)) * per_mf, np.uint8)
    padded[:n_bits] = payload
    offset, recovered = align_bits(line, timeslots)
    assert offset == 0 and np.array_equal(recovered, padded)
    # Unequipped timeslots carry the idle octet.
    idle = line.reshape(-1, 32, 8)[:, timeslots + 1 :]
    assert (np.packbits(idle, axis=2) == IDLE_OCTET).all()
    # A flip at a payload bit's line position comes back at that bit.
    i = int(where * len(padded))
    line[line_positions(i, timeslots)] ^= 1
    _, flipped = align_bits(line, timeslots)
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


@pytest.mark.parametrize(
    "symbols, position",
    [([0, 0, 0, 0, 1], 3), ([1, 0, 0, 0, 0], 4)],
    ids=["four-empty-before-the-first-pulse", "four-empty-after-the-last-pulse"],
)
def test_hdb3_decode_flags_zero_run_at_either_end(symbols, position):
    with pytest.raises(LineCodeViolationError) as info:
        hdb3_decode(np.array(symbols, np.int8))
    assert info.value.position == position


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
