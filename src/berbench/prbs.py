"""Maximal-length PRBS generation, receiver lock, and error counting.

The register convention is the usual serial-tester wiring: the output bit
is the XOR of the two tap positions and is also the bit shifted back into
the register, so the output stream obeys

    s[n] = s[n - taps[0]] ^ s[n - taps[1]]

and any `order` consecutive output bits reveal the full register state.
That is what lets the receiver seed itself from the incoming stream and
then verify its own predictions until it declares lock.

Generation runs the recurrence over numpy arrays, doubling its stride as
the stream grows: over GF(2) squaring the feedback polynomial gives
s[n] = s[n - order*2^j] ^ s[n - tap*2^j], so one XOR may produce tap*2^j
bits at once.  No pattern table is kept: the generator and the receiver's
reference register both run the recurrence from their own seed window.
Tests pin bit-exact equivalence with the serial register definition.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import check_int

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


def generate(spec: PrbsSpec, n: int, history: np.ndarray | None = None) -> np.ndarray:
    """The `n` pattern bits after `history`, as a uint8 array of 0/1.

    `history` is the stream sent so far: any 0/1 array whose last `order`
    bits are the most recent ones.  None starts at the seed.
    """
    if n < 0:
        raise ValueError("bit counts must be nonnegative")
    k = spec.order
    if history is None:
        history = _seed_history(spec)
    elif len(history) < k:
        raise ValueError(f"history must hold at least {k} bits, got {len(history)}")
    return _extend(history[-k:], k, spec.taps[1], n)


#: Largest window `synchronize` scans at once; bounds its temporaries.
_SCAN_BITS = 1 << 16


def synchronize(spec: PrbsSpec, received: np.ndarray) -> SyncState:
    """Self-seed from the stream and lock once predictions hold.

    Every incoming bit is checked against the prediction from the previous
    `order` received bits; lock is declared at the first run of
    `LOCK_THRESHOLD` consecutive clean predictions whose seed window is not
    all zeros (the all-zero state is a register fixed point and never a
    valid pattern).  `offset` is the start of that seed window.  Windows
    of doubling size, overlapping by all but one bit of a candidate's span,
    keep the scan's memory bounded and a clean head cheap.
    """
    r = np.ascontiguousarray(received, dtype=np.uint8)
    k, t, m = spec.order, spec.taps[1], LOCK_THRESHOLD
    start, size = 0, k + m  # k + m bits decide one candidate offset
    while start + k + m <= len(r):
        w = r[start : start + size]
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
    spec: PrbsSpec, received: np.ndarray, sync: SyncState, max_bits: int | None = None
) -> tuple[int, int]:
    """Compare post-lock bits against a free-running reference register.

    Returns (compared_bits, errored_bits).  The reference is seeded from
    the verified window at the lock offset and then runs free, so errors
    are counted one-for-one with no aliasing.
    """
    if not sync.locked:
        raise ValueError("receiver is not locked")
    r = np.ascontiguousarray(received, dtype=np.uint8)
    k = spec.order
    compared = r[sync.offset + k :]
    if max_bits is not None:
        compared = compared[:max_bits]
    if len(compared) == 0:
        return 0, 0
    seed_window = r[sync.offset : sync.offset + k]
    reference = _extend(seed_window, k, spec.taps[1], len(compared))
    return len(compared), int(np.count_nonzero(compared ^ reference))
