"""Maximal-length PRBS generation, receiver lock, and error counting.

The register convention is the usual serial-tester wiring: the output bit
is the XOR of the two tap positions and is also the bit shifted back into
the register, so the output stream obeys

    s[n] = s[n - taps[0]] ^ s[n - taps[1]]

and any `order` consecutive output bits reveal the full register state.
That is what lets the receiver seed itself from the incoming stream and
then verify its own predictions until it declares lock.

Streams are packed (see `berbench.core`): uint8 octets, most significant
bit first (`np.packbits` order), with the bit count passed alongside.

Generation runs the recurrence with a doubling stride: over GF(2)
squaring the feedback polynomial gives s[n] = s[n - order*2^j] ^
s[n - tap*2^j], so one XOR may produce tap*2^j bits at once.  The first
16*order bits come from the recurrence on unpacked bits; from there the
stride is at least 8, both read offsets are whole octets, and every chunk
is one XOR of packed octet slices.  No pattern table is kept: the
generator and the receiver's reference register both run the recurrence
from their own seed window.  The receiver unpacks only the windows it
scans for lock, and counts errors as the popcount of the received octets
XOR the reference octets.  Tests pin bit-exact equivalence with the
serial register definition.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import check_bit_count, check_int, clear_tail, unpack_bits

#: Second taps that give a maximal-length sequence, per order; the first
#: tap is always the order.  The ITU-T O.150 choice comes first and is the
#: default.  PRBS-15 is the default test pattern for serial rates up to
#: 2048 kbit/s; PRBS-23 suits Ethernet-rate runs.
MAXIMAL_TAPS: dict[int, tuple[int, ...]] = {
    9: (5, 4),
    11: (9, 2),
    15: (14, 1, 4, 7, 8, 11),
    23: (18, 5, 9, 14),
}

DEFAULT_TAPS: dict[int, tuple[int, int]] = {k: (k, ts[0]) for k, ts in MAXIMAL_TAPS.items()}

#: Consecutive verified predictions required before declaring lock.
#: A false lock then has probability 2**-64.
LOCK_THRESHOLD = 64


@dataclass(frozen=True)
class PrbsSpec:
    """Pattern choice: register order, feedback taps, starting state."""

    order: int = 15
    taps: tuple[int, int] | None = None
    seed: int | None = None

    def __post_init__(self):
        if check_int(self.order, "the pattern order") not in DEFAULT_TAPS:
            raise ValueError(
                f"unsupported order {self.order}; choose one of {sorted(DEFAULT_TAPS)}"
            )
        taps = self.taps if self.taps is not None else DEFAULT_TAPS[self.order]
        taps = tuple(check_int(t, "a pattern tap") for t in taps)
        if len(taps) != 2 or taps[0] != self.order or taps[1] not in MAXIMAL_TAPS[self.order]:
            pairs = ", ".join(f"({self.order}, {t})" for t in MAXIMAL_TAPS[self.order])
            raise ValueError(
                f"taps {taps} do not give a maximal-length PRBS-{self.order}; "
                f"choose one of {pairs}"
            )
        seed = self.seed if self.seed is not None else (1 << self.order) - 1
        if not 0 < check_int(seed, "the pattern seed") < (1 << self.order):
            raise ValueError(f"seed must be a nonzero {self.order}-bit value, got {seed}")
        object.__setattr__(self, "taps", taps)
        object.__setattr__(self, "seed", seed)

    @property
    def period(self) -> int:
        return (1 << self.order) - 1


@dataclass(frozen=True)
class SyncState:
    """Receiver state: searching, or locked at a stream offset."""

    locked: bool
    offset: int = 0


SEARCHING = SyncState(locked=False, offset=0)


def _seed_history(spec: PrbsSpec) -> np.ndarray:
    # Register bit j holds the output from j+1 steps ago, so the oldest-first
    # history of the last `order` outputs reads the seed MSB down.
    k = spec.order
    return np.array([(spec.seed >> (k - 1 - j)) & 1 for j in range(k)], dtype=np.uint8)


def _extend(history: np.ndarray, order: int, tap: int, count: int) -> np.ndarray:
    """The `count` output bits after `history` (oldest-first, exactly `order` bits)."""
    out = np.empty(order + count, dtype=np.uint8)
    out[:order] = history
    # With `order` history bits, s[i] = s[i - order*2^j] ^ s[i - tap*2^j]
    # holds for i >= order*2^j, and a chunk up to tap*2^j long never reads
    # a bit that has not been produced yet.
    i, end, step = order, order + count, 1
    while i < end:
        while 2 * order * step <= i:
            step *= 2
        c = min(tap * step, end - i)
        a, b = i - order * step, i - tap * step
        np.bitwise_xor(out[a : a + c], out[b : b + c], out=out[i : i + c])
        i += c
    return out[order:]


def _extend_packed(history: np.ndarray, order: int, tap: int, count: int) -> np.ndarray:
    """The `count` output bits after `history` (as for `_extend`), packed."""
    out = np.empty(-(-count // 8), dtype=np.uint8)
    head = _extend(history, order, tap, min(count, 16 * order))
    out[: -(-len(head) // 8)] = np.packbits(head)
    # Counting octets o of the output alone (bit i = 8*o), the stride rule
    # 2*order*step <= i reads 2*order*s <= o for step = 8*s: after the
    # 16*order head bits every stride is whole octets.
    o, end, s = 2 * order, len(out), 1
    while o < end:
        while 2 * order * s <= o:
            s *= 2
        c = min(tap * s, end - o)
        a, b = o - order * s, o - tap * s
        np.bitwise_xor(out[a : a + c], out[b : b + c], out=out[o : o + c])
        o += c
    clear_tail(out, count)
    return out


def generate(
    spec: PrbsSpec, n: int, history: np.ndarray | None = None, history_bits: int | None = None
) -> np.ndarray:
    """The `n` pattern bits after `history`, packed into -(-n // 8) octets.

    `history` is the packed stream sent so far, `history_bits` long (all
    its octets when None); its last `order` bits are the most recent ones.
    None starts at the seed.
    """
    if n < 0:
        raise ValueError("bit counts must be nonnegative")
    k = spec.order
    if history is None:
        window = _seed_history(spec)
    else:
        if history_bits is None:
            history_bits = 8 * len(history)
        if not k <= history_bits <= 8 * len(history):
            raise ValueError(
                f"history must hold at least {k} bits, got {history_bits} "
                f"in {len(history)} octets"
            )
        window = unpack_bits(history, history_bits - k, history_bits)
    return _extend_packed(window, k, spec.taps[1], n)


#: Largest window `synchronize` scans at once; bounds its temporaries.
_SCAN_BITS = 1 << 16


def synchronize(spec: PrbsSpec, received: np.ndarray, n_bits: int) -> SyncState:
    """Self-seed from the stream and lock once predictions hold.

    `received` is packed and holds `n_bits` bits.  Every incoming bit is
    checked against the prediction from the previous `order` received
    bits; lock is declared at the first run of `LOCK_THRESHOLD`
    consecutive clean predictions whose seed window is not all zeros (the
    all-zero state is a register fixed point and never a valid pattern).
    `offset` is the start of that seed window.  Windows of doubling size,
    overlapping by all but one bit of a candidate's span, are unpacked
    one at a time, which keeps the scan's memory bounded and a clean head
    cheap.
    """
    check_bit_count(received, n_bits)
    k, t, m = spec.order, spec.taps[1], LOCK_THRESHOLD
    start, size = 0, k + m  # k + m bits decide one candidate offset
    while start + k + m <= n_bits:
        w = unpack_bits(received, start, min(start + size, n_bits))
        pred_ok = (w[k:] ^ w[: len(w) - k] ^ w[k - t : len(w) - t]) == 0
        clean = np.concatenate(([0], np.cumsum(pred_ok, dtype=np.int32)))
        run_ok = clean[m:] - clean[:-m] == m
        ones = np.concatenate(([0], np.cumsum(w, dtype=np.int32)))
        candidates = run_ok & (ones[k:] - ones[:-k] > 0)[: len(run_ok)]
        if candidates.any():
            return SyncState(locked=True, offset=start + int(np.argmax(candidates)))
        start += size - k - m + 1
        size = min(2 * size, _SCAN_BITS)
    return SEARCHING


def count_errors(
    spec: PrbsSpec,
    received: np.ndarray,
    n_bits: int,
    sync: SyncState,
    max_bits: int | None = None,
) -> tuple[int, int]:
    """Compare post-lock bits against a free-running reference register.

    `received` is packed and holds `n_bits` bits.  Returns
    (compared_bits, errored_bits).  The reference is seeded from the
    window at the lock offset and then runs free, so errors are counted
    one-for-one with no aliasing.  Its first few bits, up to the next
    octet boundary of the stream, are compared unpacked; the rest is
    generated packed in step with the received octets.
    """
    check_bit_count(received, n_bits)
    if max_bits is not None and max_bits < 0:
        raise ValueError(f"max_bits must be nonnegative, got {max_bits}")
    if not sync.locked:
        raise ValueError("receiver is not locked")
    if sync.offset < 0:
        raise ValueError(f"lock offset must be nonnegative, got {sync.offset}")
    k = spec.order
    first = sync.offset + k  # the first compared bit
    length = max(n_bits - first, 0)
    if max_bits is not None:
        length = min(length, max_bits)
    if length == 0:
        return 0, 0
    seed_window = unpack_bits(received, sync.offset, first)
    aligned = min(-(-first // 8) * 8, first + length)
    head = _extend(seed_window, k, spec.taps[1], aligned - first)
    errored = int(np.count_nonzero(unpack_bits(received, first, aligned) != head))
    rest = first + length - aligned
    if rest:
        window = np.concatenate((seed_window, head))[-k:]
        diff = _extend_packed(window, k, spec.taps[1], rest)
        np.bitwise_xor(diff, received[aligned // 8 : aligned // 8 + len(diff)], out=diff)
        clear_tail(diff, rest)
        whole = len(diff) - len(diff) % 8  # popcount eight octets at a time
        errored += int(np.bitwise_count(diff[:whole].view(np.uint64)).sum())
        errored += int(np.bitwise_count(diff[whole:]).sum())
    return length, errored
