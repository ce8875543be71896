"""Reference models the tests check the program against.

They restate definitions bit by bit, so they stay slow and plain: the
channel's flip rule over every draw, the serial PRBS register, where
`build_multiframes` puts each payload bit, and the pipeline on unpacked
bits, one uint8 per bit, up to the whole measurement.
"""
import math

import numpy as np

from berbench import framing, meter, prbs
from berbench.channel import _CHUNK, _scratch, _top53
from berbench.core import BerValue, InterfaceKind
from berbench.framing import FRAME_BITS, PAYLOAD_SLOTS


def step_register(state: int, order: int, tap: int) -> tuple[int, int]:
    """One serial register step; returns (next_state, output_bit)."""
    bit = ((state >> (order - 1)) ^ (state >> (tap - 1))) & 1
    return ((state << 1) | bit) & ((1 << order) - 1), bit


def flip_below(bits: np.ndarray, seed: int, start: int, threshold: int):
    """XOR (top 53 bits of draw start+i of stream `seed`) < threshold into bits[i].

    The flip rule over every draw, the mask that `channel._flips` must
    match offset for offset.  `threshold` is one int from
    `channel._threshold`; 0 flips nothing and 2**53 flips every bit.
    """
    n = len(bits)
    z, tmp = _scratch()
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        c = hi - lo
        k = _top53(seed, start + lo, z[:c], tmp[:c])
        hit = tmp.view(bool)[:c]
        np.less(k, threshold, out=hit)
        np.bitwise_xor(bits[lo:hi], hit.view(np.uint8), out=bits[lo:hi])


def line_positions(payload_indices, timeslots: int = PAYLOAD_SLOTS) -> np.ndarray:
    """Line positions of payload bits laid out by `build_multiframes`."""
    frame, within = np.divmod(np.asarray(payload_indices, dtype=np.int64), 8 * timeslots)
    return frame * FRAME_BITS + 8 + within  # skip timeslot 0 of each frame


def payload_line_positions(session, payload_indices) -> np.ndarray:
    """Line positions of a session's payload bits; the identity when unframed.

    Fault masks built from them hit (or avoid) chosen payload bits.
    """
    if session.iface is not InterfaceKind.G704:
        return np.array(payload_indices, dtype=np.int64)
    return line_positions(payload_indices, session.payload_timeslots)


# ---------------------------------------------------------------------------
# The unpacked pipeline, one uint8 per bit: the pattern generator, the error
# counter, the multiframe build, frame alignment and the session loopback.
# The packed layers must equal `np.packbits` of these.


def _extend(history: np.ndarray, order: int, tap: int, count: int) -> np.ndarray:
    """The `count` output bits after `history` (oldest-first, exactly `order` bits)."""
    out = np.empty(order + count, dtype=np.uint8)
    out[:order] = history
    i, end, step = order, order + count, 1
    while i < end:
        while 2 * order * step <= i:
            step *= 2
        c = min(tap * step, end - i)
        a, b = i - order * step, i - tap * step
        np.bitwise_xor(out[a : a + c], out[b : b + c], out=out[i : i + c])
        i += c
    return out[order:]


def generate(spec, n: int, history: np.ndarray | None = None) -> np.ndarray:
    """The `n` pattern bits after the unpacked `history` (None: the seed)."""
    k = spec.order
    if history is None:
        history = np.array([(spec.seed >> (k - 1 - j)) & 1 for j in range(k)], dtype=np.uint8)
    return _extend(np.asarray(history, dtype=np.uint8)[-k:], k, spec.taps[1], n)


def count_errors(spec, received: np.ndarray, sync, max_bits=None) -> tuple[int, int]:
    """(compared, errored) against a reference seeded at the lock offset."""
    r = np.ascontiguousarray(received, dtype=np.uint8)
    k = spec.order
    compared = r[sync.offset + k :]
    if max_bits is not None:
        compared = compared[:max_bits]
    if len(compared) == 0:
        return 0, 0
    reference = _extend(r[sync.offset : sync.offset + k], k, spec.taps[1], len(compared))
    return len(compared), int(np.count_nonzero(compared ^ reference))


def build_multiframes(payload: np.ndarray, timeslots: int = PAYLOAD_SLOTS) -> np.ndarray:
    """Check multiframes carrying unpacked payload bits, as unpacked line bits."""
    payload = np.asarray(payload, dtype=np.uint8)
    per_mf = framing.FRAMES_PER_MULTIFRAME * timeslots
    n = max(1, -(-len(payload) // (8 * per_mf)))
    padded = np.zeros(n * per_mf, dtype=np.uint8)
    padded[: -(-len(payload) // 8)] = np.packbits(payload)
    octets = np.empty((n, framing.FRAMES_PER_MULTIFRAME, 32), dtype=np.uint8)
    octets[:, :, 0] = framing._TS0
    octets[:, :, 1 : timeslots + 1] = padded.reshape(n, framing.FRAMES_PER_MULTIFRAME, timeslots)
    octets[:, :, timeslots + 1 :] = framing.IDLE_OCTET
    remainders = framing._crc4_octets(octets.reshape(n, 2, framing.HALF_BITS // 8))
    check = framing._nibble_bits(remainders[:, ::-1]).reshape(n, 8)
    octets[:, 0::2, 0] |= check << 7
    return np.unpackbits(octets)


def g704_align(stream: np.ndarray, timeslots: int = PAYLOAD_SLOTS) -> tuple[int, np.ndarray]:
    """G.706 frame alignment on unpacked line bits: (first offset, unpacked payload bits).

    Searching from a bit, the receiver aligns at the first position p
    whose seven bits after it are the alignment signal, whose bit p + 257
    (bit 2 of the next frame) is 1, and whose bits p + 513.. repeat the
    signal.  Aligned, it delivers timeslots 1..k of each whole frame, as
    payload frame t // 256 for a frame from bit t, checking the signal of
    every second frame; at the third errored signal in a row it delivers
    nothing more and searches again from the next frame.  Frames it does
    not deliver are zeros.
    """
    s = np.ascontiguousarray(stream, dtype=np.uint8)
    n = len(s)
    if n < 3 * FRAME_BITS:
        raise framing.FrameAlignmentError("short")
    signal = np.ones(n - 7, dtype=bool)  # signal[p]: the signal in bits p + 1 .. p + 7
    for j, bit in enumerate(framing.FAS_PATTERN):
        signal &= s[1 + j : n - 6 + j] == bit
    m = n - 2 * FRAME_BITS - 7
    found = np.flatnonzero(
        signal[:m] & (s[FRAME_BITS + 1 : FRAME_BITS + 1 + m] == 1) & signal[2 * FRAME_BITS :]
    ).tolist()
    out = np.zeros((n // FRAME_BITS, 8 * timeslots), dtype=np.uint8)
    first, start = None, 0
    while True:
        later = [p for p in found if p >= start]
        if not later:
            break
        phase = later[0]
        first = phase if first is None else first
        errored, t = 0, phase
        while t + FRAME_BITS <= n:
            if (t - phase) % (2 * FRAME_BITS) == 0:
                errored = 0 if signal[t] else errored + 1
                if errored == 3:
                    break
            out[t // FRAME_BITS] = s[t + 8 : t + 8 * (timeslots + 1)]
            t += FRAME_BITS
        start = t + FRAME_BITS
    if first is None:
        raise framing.FrameAlignmentError("none")
    return first, out.reshape(-1)


def loopback(session, bits: np.ndarray) -> np.ndarray:
    """The session loopback on unpacked bits, the whole line in one call."""
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    if session.iface is not InterfaceKind.G704:
        return session._stream.apply(bits)
    n_ts = session.payload_timeslots
    rx_line = session._stream.apply(build_multiframes(bits, n_ts))
    try:
        return g704_align(rx_line, n_ts)[1][: len(bits)]
    except framing.FrameAlignmentError:
        return np.zeros(len(bits), dtype=np.uint8)


def lock(spec, received: np.ndarray) -> int | None:
    """The receiver's lock offset in unpacked `received`, found bit by bit.

    The first offset o whose seed window received[o:o+order] is not all
    zeros and is followed by `LOCK_THRESHOLD` bits that each equal the
    XOR of the received bits `order` and `tap` before them; None if
    there is none.
    """
    r = np.asarray(received, dtype=np.uint8).tolist()
    k, t, m = spec.order, spec.taps[1], prbs.LOCK_THRESHOLD
    run = 0  # clean predictions in a row, ending at bit i
    for i in range(k, len(r)):
        run = run + 1 if r[i] == r[i - k] ^ r[i - t] else 0
        if run >= m and any(r[i + 1 - m - k : i + 1 - m]):
            return i + 1 - m - k
    return None


def measure(session, config) -> meter.BerMeasurement:
    """`meter.measure` on unpacked bits, in segments of `meter.SEGMENT_BITS`.

    Each segment sends its share of the budget plus the lock allowance,
    continuing the pattern of the one before, through `loopback`; it is
    locked by `lock` and counted by `count_errors`, at most its share.
    """
    spec = config.pattern
    remaining = math.ceil(10 / config.ber0)  # the budget: ten errors at BER_0
    allowance = spec.order + 4 * prbs.LOCK_THRESHOLD
    sent = None
    compared = errored = 0
    sync_failed = False
    while remaining > 0:
        share = min(remaining, meter.SEGMENT_BITS)
        sent = generate(spec, share + allowance, sent)
        received = loopback(session, sent)
        offset = lock(spec, received)
        if offset is None:
            got, bad, sync_failed = share, share, True
        else:
            got, bad = count_errors(spec, received, prbs.SyncState(True, offset), share)
        compared += got
        errored += bad
        remaining -= share
    ber = BerValue.point(errored, compared) if errored else BerValue.upper_bound(config.ber0)
    duration = meter.required_duration(session.rate_kbps, config.ber0)
    return meter.BerMeasurement(
        compared, errored, ber, duration, session.rate_kbps, session.freq_hz, sync_failed
    )
