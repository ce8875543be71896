"""Maximal-length PRBS generation, receiver lock, and error counting.

The register convention is the usual serial-tester wiring: the output bit
is the XOR of the two tap positions and is also the bit shifted back into
the register, so the output stream obeys

    s[n] = s[n - taps[0]] ^ s[n - taps[1]]

and any `order` consecutive output bits reveal the full register state.
That is what lets the receiver seed itself from the incoming stream and
then verify its own predictions until it declares lock.

Generation is blocked (word-at-a-time over numpy arrays); tests pin its
bit-exact equivalence with the serial register definition.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Standard feedback pairs per order.  PRBS-15 is the default test pattern
#: for serial rates up to 2048 kbit/s; PRBS-23 suits Ethernet-rate runs.
DEFAULT_TAPS: dict[int, tuple[int, int]] = {
    9: (9, 5),
    11: (11, 9),
    15: (15, 14),
    23: (23, 18),
}

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
        if self.order not in DEFAULT_TAPS:
            raise ValueError(
                f"unsupported order {self.order}; choose one of {sorted(DEFAULT_TAPS)}"
            )
        taps = self.taps if self.taps is not None else DEFAULT_TAPS[self.order]
        taps = (int(taps[0]), int(taps[1]))
        if len(taps) != 2 or taps[0] != self.order or not 0 < taps[1] < self.order:
            raise ValueError(f"taps {taps} invalid for order {self.order}")
        seed = self.seed if self.seed is not None else (1 << self.order) - 1
        if not 0 < seed < (1 << self.order):
            raise ValueError(f"seed must be a nonzero {self.order}-bit value, got {seed}")
        object.__setattr__(self, "taps", taps)
        object.__setattr__(self, "seed", int(seed))

    @property
    def period(self) -> int:
        return (1 << self.order) - 1


@dataclass(frozen=True)
class SyncState:
    """Receiver state: searching, or locked at a stream offset."""

    locked: bool
    offset: int = 0


SEARCHING = SyncState(locked=False, offset=0)


def step_register(state: int, order: int, tap: int) -> tuple[int, int]:
    """One serial register step; returns (next_state, output_bit)."""
    bit = ((state >> (order - 1)) ^ (state >> (tap - 1))) & 1
    return ((state << 1) | bit) & ((1 << order) - 1), bit


def _seed_history(spec: PrbsSpec) -> np.ndarray:
    # Register bit j holds the output from j+1 steps ago, so the oldest-first
    # history of the last `order` outputs reads the seed MSB down.
    k = spec.order
    return np.array([(spec.seed >> (k - 1 - j)) & 1 for j in range(k)], dtype=np.uint8)


def _extend(history: np.ndarray, order: int, tap: int, count: int) -> np.ndarray:
    """Append `count` output bits after `history` (oldest-first, len >= order)."""
    n0 = len(history)
    out = np.empty(n0 + count, dtype=np.uint8)
    out[:n0] = history
    # s[i] = s[i-order] ^ s[i-tap]; chunks up to `tap` long never read
    # a bit that has not been produced yet.
    i = n0
    end = n0 + count
    while i < end:
        c = min(tap, end - i)
        np.bitwise_xor(out[i - order : i - order + c], out[i - tap : i - tap + c], out=out[i : i + c])
        i += c
    return out[n0:]


_PERIOD_CACHE: dict[tuple[int, tuple[int, int], int], np.ndarray] = {}


def _period_bits(spec: PrbsSpec) -> np.ndarray:
    key = (spec.order, spec.taps, spec.seed)
    cached = _PERIOD_CACHE.get(key)
    if cached is None:
        cached = _extend(_seed_history(spec), spec.order, spec.taps[1], spec.period)
        cached.setflags(write=False)
        _PERIOD_CACHE[key] = cached
    return cached


def _tile_period(period: np.ndarray, start: int, n: int) -> np.ndarray:
    m = len(period)
    lo = start % m
    reps = (lo + n + m - 1) // m
    return np.tile(period, reps)[lo : lo + n].copy()


def generate(spec: PrbsSpec, n: int, start: int = 0) -> np.ndarray:
    """Bits `start .. start+n` of the pattern, as a uint8 array of 0/1."""
    if n < 0 or start < 0:
        raise ValueError("bit counts must be nonnegative")
    if n == 0:
        return np.zeros(0, dtype=np.uint8)
    return _tile_period(_period_bits(spec), start, n)


def _phase_after_window(period: np.ndarray, window: np.ndarray) -> int:
    """Index into the period right after the unique spot matching `window`.

    Every nonzero register window occurs exactly once per period of a
    maximal-length sequence, so a register seeded from `window` free-runs
    the period from that phase on.
    """
    k = len(window)
    doubled = np.concatenate([period, period[: k - 1]])
    match = np.ones(len(period), dtype=bool)
    for j, bit in enumerate(window):
        match &= doubled[j : j + len(period)] == bit
    spots = np.flatnonzero(match)
    if len(spots) != 1:
        raise ValueError("window does not identify a unique phase; taps not maximal?")
    return (int(spots[0]) + k) % len(period)


def synchronize(spec: PrbsSpec, received: np.ndarray) -> SyncState:
    """Self-seed from the stream and lock once predictions hold.

    Every incoming bit is checked against the prediction from the previous
    `order` received bits; lock is declared at the first run of
    `LOCK_THRESHOLD` consecutive clean predictions whose seed window is not
    all zeros (the all-zero state is a register fixed point and never a
    valid pattern).  `offset` is the start of that seed window.
    """
    m = LOCK_THRESHOLD
    r = np.ascontiguousarray(received, dtype=np.uint8)
    k, t = spec.order, spec.taps[1]
    n = len(r)
    if n < k + m:
        return SEARCHING
    # Fast path: a clean head locks at offset 0 without scanning the stream.
    head = r[k : k + m] ^ r[:m] ^ r[k - t : k - t + m]
    if not head.any() and r[:k].any():
        return SyncState(locked=True, offset=0)
    pred_err = r[k:] ^ r[: n - k] ^ r[k - t : n - t]
    clean = np.concatenate(([0], np.cumsum(pred_err == 0, dtype=np.int64)))
    run_ok = clean[m:] - clean[:-m] == m
    ones = np.concatenate(([0], np.cumsum(r, dtype=np.int64)))
    seed_ok = (ones[k:] - ones[:-k]) > 0
    candidates = run_ok & seed_ok[: len(run_ok)]
    if not candidates.any():
        return SEARCHING
    offset = int(np.argmax(candidates))
    return SyncState(locked=True, offset=offset)


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
    if not seed_window.any():
        # The all-zero state is a fixed point: the reference stays zero.
        return len(compared), int(np.count_nonzero(compared))
    period = _period_bits(spec)
    phase = _phase_after_window(period, seed_window)
    reference = _tile_period(period, phase, len(compared))
    return len(compared), int(np.count_nonzero(compared ^ reference))
