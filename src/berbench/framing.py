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
256 octets XOR-fold, 15 uint64 words at a time, into 15 columns, and a
15 x 256 table of 4-bit remainders, XOR-reduced over the columns, gives
the check.  The checks are computed 64 multiframes at a time.

Frame alignment reads the packed line window by window, never unpacking
it and never needing it whole: the line is an array or a re-iterable of
windows, such as a received line rebuilt on each read.  A table maps
each 16-bit window of two neighbouring octets to the bit shifts at which
the alignment signal starts.  A frame pair is 64 octets, so the vote of
every bit phase is one octet column and one bit.  The first read votes
on every phase and extracts the payload octets at phase 0 as it goes.
The framing sent has the signal at phase 0 in every frame pair, so once
phase 0 clearly leads in a received line's window, the bits that flip in
the rest of it and in each later window give phase 0's count and, with
the payload they carry, the payload: those windows need not be built.
A second read votes in full only when that count shows that some other
phase could still beat phase 0, and a last one extracts the payload when
the winner is not phase 0.  The line may hold any number of bits.

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


#: Line bits per window of a line read by `g704_align`, and per pass of its
#: vote and its payload extraction; bounds its temporaries.  A vote pass over
#: 2**18 bits holds about 0.2 MiB of them on a line of random payload.
_ALIGN_PASS = 1 << 18

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


def _fas_masks(line: np.ndarray, start: int, stop: int, step: int = 1) -> np.ndarray:
    """Per octet of line[start:stop:step], bit 7-k set when FAS follows its bit k.

    `line` is contiguous; the octet after its last reads as zeros.
    """
    heads = range(start, min(stop, len(line)), step)
    paired = range(start, min(stop, len(line) - 1), step)  # heads with an octet after them
    # Each such head and the octet after it, read in place as one big-endian word.
    words = np.ndarray((len(paired),), ">u2", line, start if paired else 0, (step,))
    masks = _fas_table()[words]
    if len(paired) < len(heads):
        masks = np.append(masks, _fas_table()[int(line[-1]) << 8])
    return masks


def _phases(first: int, masks: np.ndarray) -> np.ndarray:
    """Frame-pair phase 8 * (i % 64) + k of each bit 7-k set in masks[i - first]."""
    i = np.flatnonzero(masks != 0)  # numpy scans bools several times faster
    bits = np.unpackbits(masks[i, None], axis=1).view(bool)  # column k
    columns = ((first + i) % _PAIR_OCTETS * 8).astype(np.int16)
    return (columns[:, None] + np.arange(8, dtype=np.int16))[bits]


def _positions_below(stop: int) -> np.ndarray:
    """Per frame-pair phase p, the number of signal positions p + 512 j below `stop`."""
    period = 2 * FRAME_BITS
    return np.maximum(0, -(-(stop - np.arange(period)) // period))


def _leader(votes: np.ndarray, confirmed: np.ndarray) -> int | None:
    """The confirmed phase with the most votes, the lowest of a tie."""
    phases = np.flatnonzero(confirmed)
    return int(phases[np.argmax(votes[phases])]) if len(phases) else None


class _Vote:
    """The frame-phase vote over one read of a line of `n` bits, pass by pass.

    Candidates come from the standard confirmation rule: alignment signal
    found, bit 2 of the following frame is 1, and the signal repeats one
    frame later.  Every phase's signal matches are counted, pass by pass.
    A pass that ends in a frame window (see `g704_align`) may settle the
    vote, once phase 0 is confirmed and leads by more than twice the misses
    it would make over the rest of the line at its rate so far.  From
    there on only phase 0 counts, from the flips (`feed_flips`), starting
    with the rest of that window; `proven` then says whether it wins.
    """

    def __init__(self, n: int):
        self.end = n - 7  # signal positions: the seven signal bits lie inside the line
        self.octets = -(-self.end // 8)  # line octets holding a signal position
        self.votes = np.zeros(2 * FRAME_BITS, dtype=np.int64)  # matches per frame-pair phase
        self.confirmed = np.zeros(2 * FRAME_BITS, dtype=bool)
        self.lo = 0  # the first line octet whose positions are not yet counted
        self.scanned = 0  # signal positions below this have every phase's votes
        self.matches: int | None = None  # phase 0's, once it alone counts

    def feed(self, line: np.ndarray, base: int, last: bool, window=None) -> None:
        """Count every position `line` holds the octets for.

        `line` holds the line's octets from octet `base`, up to its end
        when `last`.  A count reads some octets past its positions, so
        positions near the end of a window wait for the next one.  When
        `line` ends with the octets of frame window `window`, the vote may
        settle at the end of a pass in it, and the window's flips count
        the rest.
        """
        have = base + len(line)
        step = -(-_ALIGN_PASS // 8)
        while self.lo < self.octets:
            # A pass reads 65 octets past its own: the next frame pair and
            # one.  Short of that, it ends on the last whole frame pair it
            # can read, so a window need not wait for the next.
            lo = self.lo
            hi = min(lo + step, self.octets)
            if not last and hi + _PAIR_OCTETS + 1 > have:
                hi = (have - _PAIR_OCTETS - 1) // _PAIR_OCTETS * _PAIR_OCTETS
                if hi <= lo:
                    return
            self._pass(line, base, lo, hi)
            self.lo = hi
            rest = have - hi  # octets of `line` past the pass
            if window is not None and rest <= len(window) and self._settles():
                self.matches = int(self.votes[0])
                flips = window.flips
                self.feed_flips(hi, rest, None if flips is None else flips[len(window) - rest :])
                return

    def feed_flips(self, base: int, size: int, flips: np.ndarray | None) -> None:
        """Count phase 0's matches in line octets [base, base + size).

        The line there is framed from phase 0 and differs from the framing
        sent by the set bits of `flips`, its octets (None: by none), and
        every count so far ends at `base`, a frame pair's first octet.  A
        position matches unless a flip lands in the signal bits after it,
        the low seven bits of its octet.
        """
        hi = min(base + size, self.octets)
        pairs = max(0, -(-(min(8 * hi, self.end) - 8 * base) // (2 * FRAME_BITS)))
        if flips is not None:
            pairs -= np.count_nonzero(flips[: _PAIR_OCTETS * pairs : _PAIR_OCTETS] & 0x7F)
        self.matches += int(pairs)
        self.lo = hi

    def _pass(self, line: np.ndarray, base: int, lo: int, hi: int) -> None:
        # A pass votes for the positions in octets [lo, hi) and confirms
        # them against the next frame pair, 64 octets on.
        octets, end = self.octets, self.end
        ahead = min(hi + _PAIR_OCTETS, octets)
        at = lo - base
        masks = _fas_masks(line, at, ahead - base)
        if ahead == octets and end % 8:  # no signal at or past `end`
            masks[-1] &= 0xFF << (8 - end % 8) & 0xFF
        self.votes += np.bincount(_phases(lo, masks[: hi - lo]), minlength=len(self.votes))
        # Octets whose signal positions have a next frame pair in the line.
        c = max(min(hi, octets - _PAIR_OCTETS) - lo, 0)
        # Bit 7-k of `bit2` is line bit 8i+k+257: bit 2 of timeslot 0 in
        # the frame after a signal at 8i+k.
        bit2 = line[at + 32 : at + 32 + c] << 1 | line[at + 33 : at + 33 + c] >> 7
        confirmed = masks[:c] & masks[_PAIR_OCTETS : _PAIR_OCTETS + c] & bit2
        self.confirmed[_phases(lo, confirmed)] = True
        self.scanned = min(8 * hi, end)

    def _settles(self) -> bool:
        """Whether the count stops at a frame pair short of the line's end,
        where phase 0 is confirmed and leads by more than twice the misses
        it would make over the rest of the line at its rate so far."""
        if self.lo % _PAIR_OCTETS or self.lo >= self.octets or not self.confirmed[0]:
            return False
        period = 2 * FRAME_BITS
        seen = -(-self.scanned // period)  # phase 0's positions so far
        rest = -(-self.end // period) - seen
        votes = int(self.votes[0])
        return (votes - int(self.votes[1:].max())) * seen > 2 * (seen - votes + 1) * rest

    def proven(self) -> bool:
        """Whether settled phase 0 wins: every other phase, even with a match
        at each position it has left, ends no higher (a tie goes to the
        lower phase)."""
        best = self.votes + _positions_below(self.end) - _positions_below(self.scanned)
        return bool((best[1:] <= self.matches).all())

    def winner(self) -> int | None:
        """The phase the vote chose: phase 0 once settled, else the confirmed
        phase with the most votes; None when no phase is confirmed."""
        return 0 if self.matches is not None else _leader(self.votes, self.confirmed)


def _read(
    line, n: int, timeslots: int, vote: _Vote | None, phase: int | None
) -> np.ndarray | None:
    """Read `line` (see `g704_align`) once, window by window.

    Feeds `vote`, when given, and returns timeslots 1..`timeslots` of
    every whole frame from line bit `phase`, as (frames, timeslots)
    octets, when `phase` is not None.  Only the octets that the vote or
    the extraction still needs are kept from one window to the next.  The
    vote settles only in a read that also extracts at phase 0, whose
    payload the flips of a frame window then give too.
    """
    total = len(line)
    if phase is not None:
        first, shift = divmod(phase, 8)
        out = np.zeros(((n - phase) // FRAME_BITS, timeslots), dtype=np.uint8)
        done = 0  # frames extracted
    base, kept = 0, np.zeros(0, dtype=np.uint8)
    for window in [line] if isinstance(line, np.ndarray) else line:
        frame = None
        if hasattr(window, "flips"):  # a frame window (see `g704_align`)
            if phase == 0 and vote.matches is not None:
                # Phase 0 alone counts, and every count and frame so far
                # ends here: the flips give the window's count and payload.
                size = len(window)
                vote.feed_flips(base, size, window.flips)
                frames = min(size // _FRAME_OCTETS, len(out) - done)
                _flipped_payload(window.payload, window.flips, out[done : done + frames])
                base, done = base + size, done + frames
                continue
            frame = window if phase == 0 else None
            window = window.octets()
        window = np.ascontiguousarray(window, dtype=np.uint8)
        buf = np.concatenate((kept, window)) if len(kept) else window
        kept = window = None  # free the parts before the passes
        have = base + len(buf)
        last = have >= total
        keep = have
        if vote is not None:
            vote.feed(buf, base, last, frame)
            keep = vote.lo
        if phase is not None:
            # A frame reads one octet past its own when the phase is not 0.
            ready = len(out)
            if not last:
                ready = min(ready, (have - first - (shift > 0)) // _FRAME_OCTETS)
            if ready > done:
                at = 8 * (first + _FRAME_OCTETS * done - base) + shift
                _payload_octets(buf, at, out[done:ready])
                done = ready
            keep = min(keep, first + _FRAME_OCTETS * done)
        # A copy, so that no window outlives its turn.
        kept, base = buf[keep - base :].copy(), keep
        del buf, frame
    return out if phase is not None else None


def g704_align(
    line, timeslots: int = PAYLOAD_SLOTS, n_bits: int | None = None
) -> tuple[int, np.ndarray]:
    """Locate frame alignment and extract the payload octets.

    `line` is packed and holds `n_bits` bits (all its octets when None).
    It is an array, or a re-iterable whose `len` is the line's octets and
    whose every iteration yields those octets again, in consecutive
    windows: the line is then never held whole.  A window is an array of
    octets or a frame window: whole check multiframes, as received, of
    the `payload` octets that follow the previous window's, framed from
    phase 0, whose `flips` are the window XOR the framing sent (None: all
    zeros) and whose `octets()` are the window.

    The frame phase is chosen by majority vote of signal matches over the
    whole line among confirmed candidates (see `_Vote`), so sparse
    corruption of a few alignment octets cannot slip the alignment by a
    frame; a tie goes to the lowest phase.  One read votes and keeps the
    payload at phase 0, the phase an intact line keeps; a line of plain
    arrays is voted in full there.  In frame windows, once phase 0
    clearly leads, the read counts only phase 0 and takes both its count
    and the payload from the flips.  The line is read again only to vote
    in full when phase 0 does not then win for certain, and to extract
    the payload when the winner is not phase 0.  Returns (bit offset of
    the first frame in phase, timeslots 1..`timeslots` of every whole
    frame from there, as packed octets).  Raises FrameAlignmentError when
    no alignment exists.
    """
    _check_timeslots(timeslots)
    if isinstance(line, np.ndarray):
        line = np.ascontiguousarray(line, dtype=np.uint8)
    n = 8 * len(line) if n_bits is None else n_bits
    check_bit_count(line, n)
    if n < 3 * FRAME_BITS:
        raise FrameAlignmentError(f"stream of {n} bits is shorter than three frames")
    _fas_table()  # built before the payload array, so their peaks do not add
    vote = _Vote(n)
    payload = _read(line, n, timeslots, vote, 0)
    if vote.matches is not None and not vote.proven():
        vote = _Vote(n)
        _read(line, n, timeslots, vote, None)
    q = vote.winner()
    if q is None:
        raise FrameAlignmentError("no frame alignment found")
    if q:
        payload = _read(line, n, timeslots, None, q)
    return q, payload.reshape(-1)


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
