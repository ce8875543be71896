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

Payload and line are packed (see `berbench.core`): uint8 octets, most
significant bit first (`np.packbits` order); a line of whole multiframes
needs no bit count, and `g704_align` takes one for any other length.  At
n x 64 kbit/s the payload fills timeslots
1..n of every frame in order, and the other timeslots carry the idle
octet; only this module knows that layout.

The layout is octet-aligned, so the multiframe build places payload
octets beside the timeslot-0 and idle octets and returns the packed
line.  CRC-4 is linear, and x has order 15 modulo x^4 + x + 1, so octets
15 apart (120 bits) add the same remainder for the same value: a half's
256 octets XOR-fold into 15 columns, and a 15 x 256 table of 4-bit
remainders, XOR-reduced over the columns, gives the check.

Frame alignment reads the packed line in passes, never unpacking it: a
table maps each 16-bit window of two neighbouring octets to the bit
shifts at which the alignment signal starts.  A frame pair is 64 octets,
so the vote of every bit phase is one octet column and one bit.  After
each pass the leading confirmed phase is counted over the whole line
from its column alone, and the search stops when no other phase could
still beat that count.  The payload octets are then extracted at the
chosen bit phase straight from the packed line.  The line may hold any
number of bits.

The line code is alternate-mark-inversion with high-density substitution:
every run of four zeros becomes 000V or B00V such that successive
violation pulses alternate polarity, so the wire never carries four
consecutive empty symbols and stays DC balanced.
"""
from __future__ import annotations

import functools
import mmap

import numpy as np

from .core import check_bit_count

FRAME_BITS = 256
FRAMES_PER_MULTIFRAME = 16
MULTIFRAME_BITS = FRAME_BITS * FRAMES_PER_MULTIFRAME
MULTIFRAME_OCTETS = MULTIFRAME_BITS // 8
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
#: Octets of a half in whole fold rows; the one octet left over is column 0.
_FOLDED = _HALF_OCTETS // _FOLD * _FOLD


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
    # Row by row and column by column: a reduce over the strided rows, or
    # one fancy index over all columns, would make line-sized temporaries.
    rows = halves[..., :_FOLDED].reshape(halves.shape[:-1] + (-1, _FOLD))
    columns = rows[..., 0, :].copy()
    for i in range(1, rows.shape[-2]):
        columns ^= rows[..., i, :]
    columns[..., : _HALF_OCTETS - _FOLDED] ^= halves[..., _FOLDED:]
    remainders = np.zeros(halves.shape[:-1], dtype=np.uint8)
    for j, table in enumerate(_crc_table()):
        remainders ^= table[columns[..., j]]
    return remainders


def _nibble_bits(remainders: np.ndarray) -> np.ndarray:
    """The 4 low bits of each remainder, bit 3 first."""
    return np.unpackbits(remainders[..., None], axis=-1)[..., 4:]


def _check_timeslots(timeslots: int) -> None:
    if not 1 <= timeslots <= PAYLOAD_SLOTS:
        raise ValueError(f"payload timeslots must be 1..{PAYLOAD_SLOTS}, got {timeslots}")


def _multiframe_octets(payload: np.ndarray, timeslots: int) -> np.ndarray:
    """Multiframe octets (n, 16, 32) carrying payload octets, check bits zero."""
    per_mf = FRAMES_PER_MULTIFRAME * timeslots
    whole, left = divmod(len(payload), per_mf)
    n = max(1, whole + (left > 0))
    # A line in a mapping of its own goes back to the system when freed; from
    # the C heap, a freed line just under 32 MiB stayed resident beside the
    # next, longer one (111 MB instead of 79 for three 256 kbit/s jobs).
    line = np.frombuffer(mmap.mmap(-1, n * MULTIFRAME_OCTETS), dtype=np.uint8)
    octets = line.reshape(n, FRAMES_PER_MULTIFRAME, 32)
    octets[:, :, 0] = _TS0
    body = octets[:, :, 1 : timeslots + 1]
    body[:whole] = payload[: whole * per_mf].reshape(whole, FRAMES_PER_MULTIFRAME, timeslots)
    if whole < n:  # the last multiframe is zero-padded
        last = np.zeros(per_mf, dtype=np.uint8)
        last[:left] = payload[whole * per_mf :]
        body[whole] = last.reshape(FRAMES_PER_MULTIFRAME, timeslots)
    octets[:, :, timeslots + 1 :] = IDLE_OCTET
    return octets


def build_multiframes(payload: np.ndarray, timeslots: int = PAYLOAD_SLOTS) -> np.ndarray:
    """Emit check multiframes carrying packed payload octets.

    The payload is zero-padded to whole multiframes (at least one) and
    fills timeslots 1..`timeslots` of every frame in order; the others
    carry the idle octet.  A multiframe carries 16 * `timeslots` payload
    octets.  Returns the packed line, `MULTIFRAME_OCTETS` octets per
    multiframe.  Each multiframe's two halves carry each other's check
    bits, computed over the half with its check bits zeroed.
    """
    payload = np.asarray(payload, dtype=np.uint8)
    if payload.ndim != 1:
        raise ValueError(f"payload must be a flat octet array, got shape {payload.shape}")
    _check_timeslots(timeslots)
    octets = _multiframe_octets(payload, timeslots)
    n = len(octets)
    # Both checks run over halves whose check bits are still zero.
    remainders = _crc4_octets(octets.reshape(n, 2, _HALF_OCTETS))
    # Bit 1 of the FAS octets of frames 0, 2, 4, 6 carries the check of
    # the second half; that of frames 8, 10, 12, 14 the check of the first.
    check = _nibble_bits(remainders[:, ::-1]).reshape(n, FRAMES_PER_MULTIFRAME // 2)
    octets[:, 0::2, 0] |= check << 7
    return octets.reshape(-1)


#: Line bits per pass of `g704_align`, in its search and in its payload
#: extraction; bounds its temporaries.
_ALIGN_PASS = 1 << 19

#: Line octets per frame pair, the period of the frame-alignment vote.
_PAIR_OCTETS = 2 * FRAME_BITS // 8


@functools.cache
def _fas_table() -> np.ndarray:
    # Entry a << 8 | b has bit 7-k set when the octet that starts k bits
    # into octet a, and ends in octet b, has FAS in bits 2-8.
    fas = int("".join(map(str, FAS_PATTERN)), 2)
    windows = np.arange(1 << 16, dtype=np.uint16)  # small temporaries: built mid-campaign
    table = np.zeros(1 << 16, dtype=np.uint8)
    for k in range(8):
        table |= (((windows >> (8 - k)) & 0x7F) == fas).astype(np.uint8) << (7 - k)
    return table


def _fas_masks(heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """Per octet of `heads`, bit 7-k set when FAS follows its bit k.

    `tails` holds the line octet after each head.  It is one short when
    the last head ends the line; the missing octet then reads as zeros.
    """
    windows = heads.astype(np.uint16)
    windows <<= 8
    windows[: len(tails)] |= tails
    return _fas_table()[windows]


def _phases(first: int, masks: np.ndarray) -> np.ndarray:
    """Frame-pair phase 8 * (i % 64) + k of each bit 7-k set in masks[i - first]."""
    i = np.flatnonzero(masks)
    bits = np.unpackbits(masks[i, None], axis=1).view(bool)  # column k
    return (((first + i) % _PAIR_OCTETS * 8)[:, None] + np.arange(8))[bits]


def _positions_below(stop: int) -> np.ndarray:
    """Per frame-pair phase p, the number of signal positions p + 512 j below `stop`."""
    period = 2 * FRAME_BITS
    return np.maximum(0, -(-(stop - np.arange(period)) // period))


def _phase_votes(line: np.ndarray, phase: int, end: int) -> int:
    """Signal matches at the positions `phase` + 512 j below `end`."""
    first, k = divmod(phase, 8)
    stop = first + _PAIR_OCTETS * int(_positions_below(end)[phase])
    masks = _fas_masks(line[first:stop:_PAIR_OCTETS], line[first + 1 : stop + 1 : _PAIR_OCTETS])
    return int(np.count_nonzero(masks & (0x80 >> k)))


def _leader(votes: np.ndarray, confirmed: np.ndarray) -> int | None:
    """The confirmed phase with the most votes, the lowest of a tie."""
    phases = np.flatnonzero(confirmed)
    return int(phases[np.argmax(votes[phases])]) if len(phases) else None


def _proven(
    line: np.ndarray, q: int, votes: np.ndarray, scanned: int, end: int, exact: dict[int, int]
) -> bool:
    """Whether confirmed phase `q` wins the vote over all positions below `end`.

    `votes` counts the positions below `scanned`.  Every other phase p,
    even with a match at each position it has left, must end below q's
    count over the whole line, or level with it when p > q.  `exact`
    caches that count per phase.  A phase matching at no more than half
    its scanned positions is not counted, so a line without framing does
    not pay for a count on every pass.
    """
    seen = _positions_below(scanned)
    if 2 * votes[q] <= seen[q]:
        return False
    if q not in exact:
        exact[q] = _phase_votes(line, q, end)
    best = votes + _positions_below(end) - seen
    beaten = best < exact[q]
    beaten[q + 1 :] |= best[q + 1 :] == exact[q]
    beaten[q] = True
    return bool(beaten.all())


def g704_align(
    line: np.ndarray, timeslots: int = PAYLOAD_SLOTS, n_bits: int | None = None
) -> tuple[int, np.ndarray]:
    """Locate frame alignment and extract the payload octets.

    `line` is packed and holds `n_bits` bits (all its octets when None).
    Candidates come from the standard confirmation rule: alignment signal
    found, bit 2 of the following frame is 1, and the signal repeats one
    frame later.  The frame phase is then chosen by majority vote of
    signal matches over the whole line, so sparse corruption of a few
    alignment octets cannot slip the alignment by a frame; a tie goes to
    the lowest phase.  The search stops at the first pass after which no
    other phase can win.  Returns (bit offset of the first frame in phase,
    timeslots 1..`timeslots` of every whole frame from there, as packed
    octets).  Raises FrameAlignmentError when no alignment exists.
    """
    _check_timeslots(timeslots)
    line = np.ascontiguousarray(line, dtype=np.uint8)
    n = 8 * len(line) if n_bits is None else n_bits
    check_bit_count(line, n)
    if n < 3 * FRAME_BITS:
        raise FrameAlignmentError(f"stream of {n} bits is shorter than three frames")
    end = n - 7  # signal positions: the seven signal bits lie inside the line
    octets = -(-end // 8)  # line octets holding a signal position
    votes = np.zeros(2 * FRAME_BITS, dtype=np.int64)  # signal matches per frame-pair phase
    confirmed = np.zeros(2 * FRAME_BITS, dtype=bool)
    exact: dict[int, int] = {}
    step = -(-_ALIGN_PASS // 8)
    for lo in range(0, octets, step):
        # A pass votes for the positions in octets [lo, hi) and confirms
        # them against the next frame pair, 64 octets on.
        hi = min(lo + step, octets)
        ahead = min(hi + _PAIR_OCTETS, octets)
        masks = _fas_masks(line[lo:ahead], line[lo + 1 : ahead + 1])
        if ahead == octets and end % 8:  # no signal at or past `end`
            masks[-1] &= 0xFF << (8 - end % 8) & 0xFF
        votes += np.bincount(_phases(lo, masks[: hi - lo]), minlength=len(votes))
        # Octets whose signal positions have a next frame pair in the line.
        c = max(min(hi, octets - _PAIR_OCTETS) - lo, 0)
        # Bit 7-k of `bit2` is line bit 8i+k+257: bit 2 of timeslot 0 in
        # the frame after a signal at 8i+k.
        bit2 = line[lo + 32 : lo + 32 + c] << 1 | line[lo + 33 : lo + 33 + c] >> 7
        confirmed[_phases(lo, masks[:c] & masks[_PAIR_OCTETS : _PAIR_OCTETS + c] & bit2)] = True
        q = _leader(votes, confirmed)
        if q is not None and _proven(line, q, votes, min(8 * hi, end), end, exact):
            break
    if q is None:
        raise FrameAlignmentError("no frame alignment found")
    return q, _payload_octets(line, q, (n - q) // FRAME_BITS, timeslots)


def _payload_octets(line: np.ndarray, offset: int, frames: int, timeslots: int) -> np.ndarray:
    """Timeslots 1..`timeslots` of `frames` frames from line bit `offset`, packed."""
    first, shift = divmod(offset, 8)
    out = np.empty((frames, timeslots), dtype=np.uint8)
    rows = max(1, _ALIGN_PASS // FRAME_BITS)  # frames per pass
    for f in range(0, frames, rows):
        lo, g = first + 32 * f, min(rows, frames - f)
        slots = line[lo : lo + 32 * g].reshape(g, 32)[:, 1 : timeslots + 1]
        if shift:
            # Each payload octet straddles two line octets.  The frames end
            # by bit n, so octet lo + 32*g exists when the phase is not 0.
            after = line[lo + 1 : lo + 1 + 32 * g].reshape(g, 32)[:, 1 : timeslots + 1]
            slots = (slots << shift) | (after >> (8 - shift))
        out[f : f + g] = slots
    return out.reshape(-1)


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
