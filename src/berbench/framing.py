"""Bit-exact 2048 kbit/s framing and HDB3 line coding.

A frame is 32 timeslots of 8 bits; timeslot 0 alternates between the
frame alignment signal (FAS, bits 2-8 = 0011011) and a not-FAS octet
whose bit 2 is 1.  Sixteen frames form a check multiframe: bit 1 of the
FAS octets carries a 4-bit cyclic check (polynomial x^4 + x + 1) over a
2048-bit half, and bit 1 of the first six not-FAS octets carries the
multiframe alignment signal 001011.  Within a standalone multiframe each
half carries the check of the other half (computed with the check bits
zeroed), so every emitted multiframe is self-consistent on its own.
CRC-4 is always on.

Remaining not-FAS bits are fixed (bit 3 = 0, spares = 1) to keep golden
streams stable.

Payload is a flat 0/1 bit array.  At n x 64 kbit/s it fills timeslots
1..n of every frame in order, and the other timeslots carry the idle
octet; only this module knows that layout.

The layout is octet-aligned, so the multiframe build runs on octets: the
payload is packed (a set byte reads as 1), placed beside the timeslot-0
and idle octets, and unpacked once at the end.  CRC-4 is linear, and x
has order 15 modulo x^4 + x + 1, so octets 15 apart (120 bits) add the
same remainder for the same value: a half's 256 octets XOR-fold into 15
columns, and a 15 x 256 table of 4-bit remainders, XOR-reduced over the
columns, gives the check.

The line code is alternate-mark-inversion with high-density substitution:
every run of four zeros becomes 000V or B00V such that successive
violation pulses alternate polarity, so the wire never carries four
consecutive empty symbols and stays DC balanced.
"""
from __future__ import annotations

import functools

import numpy as np

FRAME_BITS = 256
FRAMES_PER_MULTIFRAME = 16
MULTIFRAME_BITS = FRAME_BITS * FRAMES_PER_MULTIFRAME
PAYLOAD_SLOTS = 31
HALF_BITS = MULTIFRAME_BITS // 2

#: FAS bits 2-8.
FAS_PATTERN = (0, 0, 1, 1, 0, 1, 1)
#: Bit-1 sequence of the first six not-FAS octets in a check multiframe.
MULTIFRAME_ALIGNMENT = (0, 0, 1, 0, 1, 1)

#: Idle fill for unequipped payload timeslots in fractional operation.
IDLE_OCTET = 0x55


class FrameAlignmentError(Exception):
    """Frame alignment signal not found (loss of frame)."""


class LineCodeViolationError(Exception):
    """Ternary stream does not match any valid substitution pattern."""

    def __init__(self, position: int, message: str | None = None):
        self.position = int(position)
        super().__init__(message or f"line code violation at symbol {position}")


def _ts0_octets() -> np.ndarray:
    ts0 = np.zeros((FRAMES_PER_MULTIFRAME, 8), dtype=np.uint8)
    # Not-FAS octet: [bit1, 1, 0, 1, 1, 1, 1, 1]; bit 3 = 0, spares = 1.
    ts0[1::2] = (1, 1, 0, 1, 1, 1, 1, 1)
    ts0[0::2, 1:] = FAS_PATTERN  # bit 1 stays 0: check-bit placeholder
    ts0[1:12:2, 0] = MULTIFRAME_ALIGNMENT
    ts0[13::2, 0] = 1  # remote check-result bits, fixed to 1
    return np.packbits(ts0, axis=1)[:, 0]


_TS0 = _ts0_octets()

#: Octets per check half (8 frames of 32 timeslots).
_HALF_OCTETS = HALF_BITS // 8
#: x has order 15 modulo x^4+x+1, and octets 15 apart shift exponents by
#: 120, a multiple of 15: a half folds into 15 octet columns.
_FOLD = 15
_FOLD_ROWS = -(-_HALF_OCTETS // _FOLD)


def _residue_table() -> np.ndarray:
    # x^e mod x^4+x+1 for e = 0..14 (x is a primitive root, order 15),
    # as 4-bit values with bit 3 = x^3.
    vals = []
    v = 1
    for _ in range(15):
        vals.append(v)
        v <<= 1
        if v & 0x10:
            v ^= 0x13  # x^4 == x + 1
    return np.array(vals, dtype=np.uint8)


@functools.cache
def _crc_table() -> np.ndarray:
    # Bit b (MSB = 0) of octet p in a half (first transmitted = highest
    # degree) contributes x^(HALF_BITS+3-8p-b) mod x^4+x+1 to the
    # remainder of message*x^4.  Entry [j, v] is the remainder octet value
    # v adds at any p = j (mod 15).
    exps = (HALF_BITS + 3 - 8 * np.arange(_FOLD)[:, None] - np.arange(8)) % _FOLD
    residues = _residue_table()[exps]  # (column, bit)
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).astype(bool)
    return np.bitwise_xor.reduce(np.where(bits, residues[:, None, :], 0), axis=2)


def _crc4_octets(halves: np.ndarray) -> np.ndarray:
    """4-bit remainders (bit 3 = first check bit) of octet halves (..., 256)."""
    folded = np.zeros(halves.shape[:-1] + (_FOLD_ROWS * _FOLD,), dtype=np.uint8)
    folded[..., :_HALF_OCTETS] = halves
    columns = np.bitwise_xor.reduce(
        folded.reshape(halves.shape[:-1] + (_FOLD_ROWS, _FOLD)), axis=-2
    )
    return np.bitwise_xor.reduce(_crc_table()[np.arange(_FOLD), columns], axis=-1)


def _half_octets(half_bits: np.ndarray) -> np.ndarray:
    half = np.asarray(half_bits, dtype=np.uint8)
    if half.shape[-1] != HALF_BITS:
        raise ValueError(f"a check half is {HALF_BITS} bits, got {half.shape[-1]}")
    return np.packbits(half, axis=-1)


def _nibble_bits(remainders: np.ndarray) -> np.ndarray:
    """The 4 low bits of each remainder, bit 3 first."""
    return np.unpackbits(remainders[..., None], axis=-1)[..., 4:]


def crc4_check_bits(half_bits: np.ndarray) -> np.ndarray:
    """Remainder of (half * x^4) mod x^4+x+1 as 4 bits, C1 first."""
    return _nibble_bits(_crc4_octets(_half_octets(half_bits)))


def crc4_remainder(half_bits: np.ndarray) -> int:
    """The 4-bit remainder as an integer (bit 3 = first check bit)."""
    return int(_crc4_octets(_half_octets(half_bits)))


def _check_timeslots(timeslots: int) -> None:
    if not 1 <= timeslots <= PAYLOAD_SLOTS:
        raise ValueError(f"payload timeslots must be 1..{PAYLOAD_SLOTS}, got {timeslots}")


def _multiframe_octets(payload: np.ndarray, timeslots: int) -> np.ndarray:
    """Multiframe octets (n, 16, 32) carrying `payload`, check bits zero."""
    per_mf = FRAMES_PER_MULTIFRAME * timeslots
    n = max(1, -(-len(payload) // (8 * per_mf)))
    padded = np.zeros(n * per_mf, dtype=np.uint8)
    padded[: -(-len(payload) // 8)] = np.packbits(payload)  # zero-pads the last octet
    octets = np.empty((n, FRAMES_PER_MULTIFRAME, 32), dtype=np.uint8)
    octets[:, :, 0] = _TS0
    octets[:, :, 1 : timeslots + 1] = padded.reshape(n, FRAMES_PER_MULTIFRAME, timeslots)
    octets[:, :, timeslots + 1 :] = IDLE_OCTET
    return octets


def build_multiframes(payload: np.ndarray, timeslots: int = PAYLOAD_SLOTS) -> np.ndarray:
    """Emit check multiframes carrying a flat 0/1 payload bit array.

    The payload is zero-padded to whole multiframes (at least one) and
    fills timeslots 1..`timeslots` of every frame in order; the others
    carry the idle octet.  Returns the transmitted bit stream (4096 bits
    per multiframe).  Each multiframe's two halves carry each other's
    check bits, computed over the half with its check bits zeroed.
    """
    payload = np.asarray(payload, dtype=np.uint8)
    if payload.ndim != 1:
        raise ValueError(f"payload must be a flat bit array, got shape {payload.shape}")
    _check_timeslots(timeslots)
    # The payload's temporaries are freed before the line-sized unpack.
    octets = _multiframe_octets(payload, timeslots)
    n = len(octets)
    # Both checks run over halves whose check bits are still zero.
    remainders = _crc4_octets(octets.reshape(n, 2, _HALF_OCTETS))
    # Bit 1 of the FAS octets of frames 0, 2, 4, 6 carries the check of
    # the second half; that of frames 8, 10, 12, 14 the check of the first.
    check = _nibble_bits(remainders[:, ::-1]).reshape(n, FRAMES_PER_MULTIFRAME // 2)
    octets[:, 0::2, 0] |= check << 7
    return np.unpackbits(octets)


#: Signal positions searched per pass of `g704_align`; bounds its temporaries.
_ALIGN_PASS = 1 << 16


def g704_align(stream: np.ndarray, timeslots: int = PAYLOAD_SLOTS) -> tuple[int, np.ndarray]:
    """Locate frame alignment and extract the payload bits.

    Candidates come from the standard confirmation rule: alignment signal
    found, bit 2 of the following frame is 1, and the signal repeats one
    frame later.  The frame phase is then chosen by majority vote of
    signal matches over the whole stream, so sparse corruption of a few
    alignment octets cannot slip the alignment by a frame.  Returns (bit
    offset of the first frame in phase, timeslots 1..`timeslots` of every
    whole frame from there, as one flat bit array).  Raises
    FrameAlignmentError when no alignment exists.
    """
    _check_timeslots(timeslots)
    s = np.ascontiguousarray(stream, dtype=np.uint8)
    n = len(s)
    if n < 3 * FRAME_BITS:
        raise FrameAlignmentError(f"stream of {n} bits is shorter than three frames")
    # A pass holds the signal positions [a, a + _ALIGN_PASS) and the next
    # frame pair, so each candidate's confirmation lies inside its pass.
    period = 2 * FRAME_BITS
    votes = np.zeros(period, dtype=np.int64)  # signal matches per frame-pair phase
    confirmed = np.zeros(period, dtype=bool)
    for a in range(0, n - 7, _ALIGN_PASS):
        stop = min(a + _ALIGN_PASS + period, n - 7)
        fas = np.ones(stop - a, dtype=bool)  # the signal follows position a + i
        for j, bit in enumerate(FAS_PATTERN):
            fas &= s[a + 1 + j : stop + 1 + j] == bit
        votes += np.bincount((a + np.flatnonzero(fas[:_ALIGN_PASS])) % period, minlength=period)
        c = max(len(fas) - period, 0)
        good = fas[:c] & fas[period:] & (s[FRAME_BITS + 1 + a : FRAME_BITS + 1 + a + c] == 1)
        confirmed[(a + np.flatnonzero(good)) % period] = True
    phases = np.flatnonzero(confirmed)
    if len(phases) == 0:
        raise FrameAlignmentError("no frame alignment found")
    offset = int(phases[int(np.argmax(votes[phases]))])
    frames = (n - offset) // FRAME_BITS
    slots = s[offset : offset + frames * FRAME_BITS].reshape(frames, 32 * 8)
    return offset, slots[:, 8 : 8 * (timeslots + 1)].reshape(-1)


def line_positions(payload_indices: np.ndarray, timeslots: int = PAYLOAD_SLOTS) -> np.ndarray:
    """Line positions of payload bits laid out by `build_multiframes`."""
    _check_timeslots(timeslots)
    frame, within = np.divmod(np.asarray(payload_indices, dtype=np.int64), 8 * timeslots)
    return frame * FRAME_BITS + 8 + within  # skip timeslot 0 of each frame


def hdb3_encode(bits: np.ndarray, start_polarity: int = 1) -> np.ndarray:
    """Line-code a bit stream into ternary symbols (+1, 0, -1).

    `start_polarity` is the polarity the first mark would take.  Each run
    of four zeros becomes 000V when an odd number of pulses was sent since
    the previous substitution, else B00V; the balancing pulse keeps
    successive violations alternating.
    """
    if start_polarity not in (1, -1):
        raise ValueError("start polarity must be +1 or -1")
    b = np.ascontiguousarray(bits, dtype=np.uint8)
    n = len(b)
    if n == 0:
        return np.zeros(0, dtype=np.int8)
    ones_pos = np.flatnonzero(b).astype(np.int64)

    # Substitution blocks: greedy groups of four inside each zero run.
    edges = np.concatenate(([-1], ones_pos, [n]))
    run_start = edges[:-1] + 1
    run_len = edges[1:] - edges[:-1] - 1
    counts = run_len // 4
    keep = counts > 0
    run_start, counts = run_start[keep], counts[keep]
    total = int(counts.sum())
    if total:
        first = np.repeat(run_start, counts)
        offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        block_start = first + 4 * offsets
    else:
        block_start = np.zeros(0, dtype=np.int64)
    v_pos = block_start + 3

    # 000V when the pulse count since the previous violation is odd.
    prev_v = np.concatenate(([-1], v_pos[:-1]))
    ones_since = np.searchsorted(ones_pos, block_start) - np.searchsorted(ones_pos, prev_v + 1)
    needs_b = (ones_since % 2) == 0
    b_pos = block_start[needs_b]

    # Marks and balancing pulses advance the polarity; violations repeat
    # the previous pulse.  A pulse whose 1-based rank among polarity
    # advances is odd takes the start polarity, so each group's polarity
    # follows from its own index plus its rank among the other groups.
    symbols = np.zeros(n, dtype=np.int8)
    plus, minus = np.int8(start_polarity), np.int8(-start_polarity)
    ones_rank = np.arange(1, len(ones_pos) + 1) + np.searchsorted(b_pos, ones_pos)
    symbols[ones_pos] = np.where(ones_rank & 1, plus, minus)
    b_rank = np.arange(1, len(b_pos) + 1) + np.searchsorted(ones_pos, b_pos)
    symbols[b_pos] = np.where(b_rank & 1, plus, minus)
    v_rank = np.searchsorted(ones_pos, v_pos) + np.searchsorted(b_pos, v_pos)
    symbols[v_pos] = np.where(v_rank & 1, plus, minus)
    return symbols


def hdb3_decode(symbols: np.ndarray) -> np.ndarray:
    """Reverse the line code, flagging anything no encoder would emit.

    Violation pulses are recognized as a repeat of the previous pulse
    polarity; they must terminate a 000V or B00V block.  Four plain zeros,
    a violation without room for its block, or a violation leaning on a
    consumed pulse raise LineCodeViolationError with the symbol position.
    """
    s = np.ascontiguousarray(symbols, dtype=np.int8)
    n = len(s)
    bad_value = np.flatnonzero((s != 0) & (s != 1) & (s != -1))
    if len(bad_value):
        raise LineCodeViolationError(bad_value[0], f"symbol out of alphabet at {bad_value[0]}")
    pulses = np.flatnonzero(s).astype(np.int64)
    if len(pulses) == 0:
        if n >= 4:
            raise LineCodeViolationError(3, "four consecutive empty symbols")
        return np.zeros(n, dtype=np.uint8)

    errors: list[int] = []
    if pulses[0] >= 4:
        errors.append(3)
    if n - 1 - pulses[-1] >= 4:
        errors.append(int(pulses[-1]) + 4)

    signs = s[pulses]
    viol = np.zeros(len(pulses), dtype=bool)
    viol[1:] = signs[1:] == signs[:-1]
    gap = np.diff(pulses)

    crowded = viol[1:] & (gap <= 2)
    b00v = viol[1:] & (gap == 3)
    plain_v = viol[1:] & (gap >= 4)
    # The balancing pulse of B00V must be an ordinary mark, not a violation.
    stolen = b00v & viol[:-1]
    # Zero runs an encoder would have substituted: 4 plain zeros, or more
    # than 3 zeros left over before a 000V block.
    too_long = (~viol[1:] & (gap >= 5)) | (plain_v & (gap >= 8))

    for mask, at in (
        (crowded, pulses[1:]),
        (stolen, pulses[:-1]),
        (too_long, pulses[:-1] + 4),
    ):
        if mask.any():
            errors.extend(at[mask].tolist())
    if errors:
        position = min(errors)
        raise LineCodeViolationError(position)

    out = np.zeros(n, dtype=np.uint8)
    out[pulses] = 1
    block = b00v | plain_v
    out[pulses[1:][block]] = 0
    out[pulses[1:][b00v] - 3] = 0
    return out
