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
octet; only this module knows that layout, so it also gives a payload's
line octets and a line window's payload octets.

The layout is octet-aligned, so the multiframe build places payload
octets beside the timeslot-0 and idle octets and returns the packed
line.  CRC-4 is linear, and x has order 15 modulo x^4 + x + 1, so octets
15 apart (120 bits) add the same remainder for the same value: a half's
256 octets XOR-fold, 15 uint64 words at a time, into 15 columns, and a
15 x 256 table of 4-bit remainders, XOR-reduced over the columns, gives
the check.  The checks are computed 64 multiframes at a time.

Frame alignment reads the packed line once, window by window, never
unpacking it and never needing it whole: the line is an array or an
iterable of windows, such as a received line whose flips are drawn as it
is read.  The reader is a receiver as ITU-T G.706 section 4.1 describes
one.  It searches for the alignment signal confirmed by bit 2 of the
next frame and the signal one frame pair later, holds alignment until
three signals in a row are errored, and then searches again.  A table
maps each 16-bit window of two neighbouring octets to the bit shifts at
which the signal starts, so the search reads octets, not bits.  The
framing sent has the signal at phase 0 in every frame pair, so while
alignment holds there a signal is errored exactly when a flip lands in
its seven bits: a received window's flips and its share of the payload
then give its signal checks and its payload, and the window need not be
built.  The payload of a frame held in alignment is read from it; the
payload of every other frame reads as zeros.  The line may hold any
number of bits.

The line code is alternate-mark-inversion with high-density substitution:
every run of four zeros becomes 000V or B00V such that successive
violation pulses alternate polarity, so the wire never carries four
consecutive empty symbols and stays DC balanced.
"""
from __future__ import annotations

import functools

import numpy as np

from .core import check_bit_count

FRAME_BITS = 256
FRAMES_PER_MULTIFRAME = 16
MULTIFRAME_BITS = FRAME_BITS * FRAMES_PER_MULTIFRAME
MULTIFRAME_OCTETS = MULTIFRAME_BITS // 8
_FRAME_OCTETS = FRAME_BITS // 8
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


#: Index of column j's row in the flattened `_crc_table`.
_COLUMN_ROWS = 256 * np.arange(_FOLD, dtype=np.uint16)


def _crc4_octets(halves: np.ndarray) -> np.ndarray:
    """4-bit remainders (bit 3 = first check bit) of octet halves (..., 256)."""
    # Octets 120 apart are 15 apart, 15 uint64 words: the half folds into
    # 15 words (its last 16 octets onto the first), then its 120 octets
    # into 15 columns.  The temporaries are half the size of `halves`.
    words = np.ascontiguousarray(halves).reshape(-1, _HALF_OCTETS).view(np.uint64)
    folded = words[:, :_FOLD] ^ words[:, _FOLD : 2 * _FOLD]
    folded[:, : _HALF_OCTETS // 8 - 2 * _FOLD] ^= words[:, 2 * _FOLD :]
    columns = folded.view(np.uint8)
    for width in (4 * _FOLD, 2 * _FOLD, _FOLD):
        columns = columns[:, :width] ^ columns[:, width:]
    remainders = _crc_table().reshape(-1)[_COLUMN_ROWS + columns]
    return np.bitwise_xor.reduce(remainders, axis=-1).reshape(halves.shape[:-1])


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
    octets = np.empty((n, FRAMES_PER_MULTIFRAME, 32), dtype=np.uint8)
    octets[:, :, 0] = _TS0
    body = octets[:, :, 1 : timeslots + 1]
    body[:whole] = payload[: whole * per_mf].reshape(whole, FRAMES_PER_MULTIFRAME, timeslots)
    if whole < n:  # the last multiframe is zero-padded
        last = np.zeros(per_mf, dtype=np.uint8)
        last[:left] = payload[whole * per_mf :]
        body[whole] = last.reshape(FRAMES_PER_MULTIFRAME, timeslots)
    octets[:, :, timeslots + 1 :] = IDLE_OCTET
    return octets


#: Multiframes whose check bits `build_multiframes` computes at a time (a
#: 2**18-bit line window); bounds its temporaries.
_CHECK_BLOCK = 64


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
    for lo in range(0, len(octets), _CHECK_BLOCK):
        block = octets[lo : lo + _CHECK_BLOCK]
        # Both checks run over halves whose check bits are still zero.
        remainders = _crc4_octets(block.reshape(-1, 2, _HALF_OCTETS))
        # Bit 1 of the FAS octets of frames 0, 2, 4, 6 carries the check of
        # the second half; that of frames 8, 10, 12, 14 the check of the first.
        check = _nibble_bits(remainders[:, ::-1]).reshape(-1, FRAMES_PER_MULTIFRAME // 2)
        block[:, 0::2, 0] |= check << 7
    return octets.reshape(-1)


def line_octets(payload_octets: int, timeslots: int) -> int:
    """Octets of the line `build_multiframes` makes of this many payload octets."""
    per_mf = FRAMES_PER_MULTIFRAME * timeslots
    return max(1, -(-payload_octets // per_mf)) * MULTIFRAME_OCTETS


#: Line bits per window of a line read by `g704_align`, and per pass of its
#: search, its signal checks and its payload extraction; bounds their
#: temporaries.
_ALIGN_PASS = 1 << 18


def window_payload_octets(timeslots: int) -> int:
    """Payload octets of a frame window: the multiframes of an `_ALIGN_PASS`."""
    return max(1, _ALIGN_PASS // MULTIFRAME_BITS) * FRAMES_PER_MULTIFRAME * timeslots


#: Line bits and octets per frame pair, the period of the alignment signal.
_PAIR_BITS = 2 * FRAME_BITS
_PAIR_OCTETS = _PAIR_BITS // 8
#: Bits 2-8 of an octet that carries the alignment signal.
_FAS_WORD = int("".join(map(str, FAS_PATTERN)), 2)


@functools.cache
def _fas_table() -> np.ndarray:
    # Entry a << 8 | b has bit 7-k set when the octet that starts k bits
    # into octet a, and ends in octet b, has FAS in bits 2-8.
    windows = np.arange(1 << 16, dtype=np.uint16)  # small temporaries: built mid-campaign
    table = np.zeros(1 << 16, dtype=np.uint8)
    for k in range(8):
        table |= (((windows >> (8 - k)) & 0x7F) == _FAS_WORD).astype(np.uint8) << (7 - k)
    return table


def _signals(line: np.ndarray, at: int, count: int) -> np.ndarray:
    """Bits 2-8 of the octets that start at bits at, at + 512, ... of `line`."""
    first, shift = divmod(at, 8)
    words = line[first : first + _PAIR_OCTETS * count : _PAIR_OCTETS]
    if shift:
        words = words << shift | line[first + 1 :: _PAIR_OCTETS][:count] >> (8 - shift)
    return words & 0x7F


class _Receiver:
    """G.706 section 4.1 frame alignment of a line of `n` bits, read in order.

    Searching, it aligns at the first position p from `at` on where the
    signal starts, bit 2 of the next frame is 1 and the signal starts
    again one frame pair later.  Aligned, it checks the signal of every
    frame pair from `at` on, and loses alignment at the third errored
    signal in a row: it then searches again from the next frame.  It
    delivers timeslots 1..k of each whole frame it holds alignment
    through, from line bit t say, to row t // 256 of `out`; the rows of
    frames outside alignment stay zeros.
    """

    def __init__(self, n: int, timeslots: int):
        self.n = n
        self.out = np.zeros((n // FRAME_BITS, timeslots), dtype=np.uint8)
        self.first: int | None = None  # the line bit of the first alignment
        self.aligned = False
        self.at = 0  # the next position to search, or the next signal to check
        self.frame = 0  # aligned: the next frame to deliver, never past `at`
        self.errored = 0  # errored signals in a row, fewer than three

    def read(self, line: np.ndarray, base: int, end: int) -> None:
        """Go as far as line bits [8 * base, end) allow, `line` their octets."""
        while self.aligned or self._search(line, base, end):
            stop = min(end, self.at + max(_ALIGN_PASS, _PAIR_BITS))
            signals = _signals(line, self.at - 8 * base, self._due(stop))
            offset = self.frame - 8 * base
            _payload_octets(line, offset, self._hold(signals, stop))
            if self.aligned and stop == end:
                return

    def read_flips(self, window) -> bool:
        """Hold alignment through a frame window that starts at bits `at`
        and `frame` (see `g704_align`), from its flips and payload: the
        signals sent there are all intact.  False when it is lost there."""
        end = min(self.at + 8 * len(window), self.n)
        count = self._due(end)
        flips = window.flips
        signals = np.full(count, _FAS_WORD, dtype=np.uint8)
        if flips is not None:
            signals ^= flips[: _PAIR_OCTETS * count : _PAIR_OCTETS] & 0x7F
        _flipped_payload(window.payload, flips, self._hold(signals, end))
        return self.aligned

    def _due(self, end: int) -> int:
        """The signals from `at` whose seven bits lie below line bit `end`."""
        return max(0, (end - 8 - self.at) // _PAIR_BITS + 1)

    def _search(self, line: np.ndarray, base: int, end: int) -> bool:
        """Search positions from `at` whose rule reads only bits below `end`."""
        stop = end - _PAIR_BITS - 7
        # Octets per pass: a frame pair's at first, doubled up to an `_ALIGN_PASS`.
        most = -(-_ALIGN_PASS // 8)
        step = min(_PAIR_OCTETS, most)
        while self.at < stop:
            lo = self.at // 8
            hi = min(lo + step, -(-stop // 8))  # octets holding the positions of a pass
            # The octets the pass reads, zeros past the line's.
            chunk = np.zeros(hi - lo + _PAIR_OCTETS + 2, dtype=np.uint8)
            part = line[lo - base : hi - base + _PAIR_OCTETS + 2]
            chunk[: len(part)] = part
            # Each octet and the one after it, read in place as one big-endian word.
            masks = _fas_table()[np.ndarray((len(chunk) - 1,), ">u2", chunk, 0, (1,))]
            c = hi - lo
            # Bit 7-k of `bit2` is bit 2 of timeslot 0 in the frame after a
            # signal from bit k of its octet.
            bit2 = chunk[32 : 32 + c] << 1 | chunk[33 : 33 + c] >> 7
            rule = masks[:c] & masks[_PAIR_OCTETS : _PAIR_OCTETS + c] & bit2
            i = np.flatnonzero(rule)
            bits = np.unpackbits(rule[i, None], axis=1).view(bool)
            found = ((8 * (lo + i))[:, None] + np.arange(8))[bits]
            found = found[(found >= self.at) & (found < stop)]
            if len(found):
                self.at = self.frame = int(found[0])
                self.aligned = True
                if self.first is None:
                    self.first = self.at
                return True
            self.at = min(8 * hi, stop)
            step = min(2 * step, most)
        return False

    def _hold(self, signals: np.ndarray, end: int) -> np.ndarray:
        """Check `signals`, those from `at`, and move past them.  Returns the
        rows of the frames from `frame` they deliver: up to the third
        errored signal in a row, else those that end by line bit `end`."""
        errored = np.concatenate((np.ones(self.errored, dtype=bool), signals != _FAS_WORD))
        lost = np.flatnonzero(errored[:-2] & errored[1:-1] & errored[2:])
        if len(lost):
            end = self.at + _PAIR_BITS * (int(lost[0]) + 2 - self.errored)
            self.aligned, self.at, self.errored = False, end + FRAME_BITS, 0
        else:
            clean = np.flatnonzero(~errored)
            self.errored = len(errored) - 1 - int(clean[-1]) if len(clean) else len(errored)
            self.at += _PAIR_BITS * len(signals)
        first = self.frame // FRAME_BITS
        frames = max(0, (end - self.frame) // FRAME_BITS)
        self.frame += FRAME_BITS * frames
        return self.out[first : first + frames]


def g704_align(
    line, timeslots: int = PAYLOAD_SLOTS, n_bits: int | None = None
) -> tuple[int, np.ndarray]:
    """Find and hold frame alignment, and extract the payload octets.

    `line` is packed and holds `n_bits` bits (all its octets when None).
    It is an array, or an iterable whose `len` is the line's octets and
    which yields those octets once, in consecutive windows: the line is
    then never held whole.  A window is an array of octets or a frame
    window: whole check multiframes, as received, of the `payload`
    octets that follow the previous window's, framed from phase 0, whose
    `flips` are the window XOR the framing sent (None: all zeros) and
    whose `octets()` are the window.

    The line is read once, in order, by a G.706 receiver (see
    `_Receiver`).  While it holds alignment at phase 0 from the start
    of a frame window, the window's flips give its signal checks and its
    payload, so the window need not be built.  Returns (the line bit
    where alignment is first found, timeslots 1..`timeslots` of every
    whole frame of the line as packed octets): frame t // 256 is the one
    that starts at line bit t, and zeros where no frame was held in
    alignment.  Raises FrameAlignmentError when the line never aligns.
    """
    _check_timeslots(timeslots)
    if isinstance(line, np.ndarray):
        line = np.ascontiguousarray(line, dtype=np.uint8)
    n = 8 * len(line) if n_bits is None else n_bits
    check_bit_count(line, n)
    if n < 3 * FRAME_BITS:
        raise FrameAlignmentError(f"stream of {n} bits is shorter than three frames")
    _fas_table()  # built before the payload array, so their peaks do not add
    receiver = _Receiver(n, timeslots)
    # The octets still needed, from line octet `base`, end where the next window starts.
    base, kept = 0, np.zeros(0, dtype=np.uint8)
    for window in [line] if isinstance(line, np.ndarray) else line:
        if hasattr(window, "flips"):
            if receiver.aligned and receiver.at == receiver.frame == 8 * base and not len(kept):
                if receiver.read_flips(window):
                    base += len(window)
                    continue
            window = window.octets()
        window = np.ascontiguousarray(window, dtype=np.uint8)
        buf = np.concatenate((kept, window)) if len(kept) else window
        kept = window = None  # free the parts before the passes
        receiver.read(buf, base, min(8 * (base + len(buf)), n))
        # The octets from the first bit the receiver still reads; a copy,
        # so that no window outlives its turn.
        needed = min(receiver.at, receiver.frame) if receiver.aligned else receiver.at
        keep = min(needed // 8, base + len(buf))
        kept, base = buf[keep - base :].copy(), keep
        del buf
    if receiver.first is None:
        raise FrameAlignmentError("no frame alignment found")
    return receiver.first, receiver.out.reshape(-1)


def _payload_octets(line: np.ndarray, offset: int, out: np.ndarray) -> None:
    """Timeslots 1..k of frames from line bit `offset`, packed, into `out` (frames, k)."""
    first, shift = divmod(offset, 8)
    frames, timeslots = out.shape
    rows = max(1, _ALIGN_PASS // FRAME_BITS)  # frames per pass
    for f in range(0, frames, rows):
        lo, g = first + _FRAME_OCTETS * f, min(rows, frames - f)
        slots = line[lo : lo + 32 * g].reshape(g, 32)[:, 1 : timeslots + 1]
        if shift:
            # Each payload octet straddles two line octets.  The frames end
            # by bit n, so octet lo + 32*g exists when the phase is not 0.
            after = line[lo + 1 : lo + 1 + 32 * g].reshape(g, 32)[:, 1 : timeslots + 1]
            slots = (slots << shift) | (after >> (8 - shift))
        out[f : f + g] = slots


def _flipped_payload(payload: np.ndarray, flips: np.ndarray | None, out: np.ndarray) -> None:
    """Fill zeroed `out` (frames, k) with timeslots 1..k of the frames that
    carry `payload` (zero-padded) and differ from the framing sent by the
    set bits of `flips`, their octets (None: by none)."""
    share = payload[: out.size]
    out.reshape(-1)[: len(share)] = share
    if flips is not None:
        out ^= flips.reshape(-1, _FRAME_OCTETS)[: len(out), 1 : out.shape[1] + 1]


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
