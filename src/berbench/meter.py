"""Measurement sizing and execution.

A run that must resolve a ratio of BER_0 needs 10/BER_0 pattern bits (ten
expected errors at the resolution limit), which at B kbit/s takes

    t0 = 10 / (1000 * B * BER_0)   seconds, rounded half-up.

The meter transmits that budget plus a small lock allowance through the
session loopback, self-synchronizes on the returned stream, and counts
errors against a free-running reference.  Lock-acquisition bits are spent
on top of the budget, never counted inside it.  Long runs go in segments
of `SEGMENT_BITS`, each locked and counted on its own; one free-running
pattern spans them, as the meter carries its `PrbsSpec` from a segment to
the next, seeded where the last one left the register.  The pattern
travels packed (uint8 octets, most significant bit first as in
`np.packbits`, with the segment's bit count alongside; see
`berbench.core`), so a segment's stream is about SEGMENT_BITS / 8 octets
wherever it is held.  On G.704 the loopback builds and flips a segment's
line window by window, so no segment's line is held whole (see
`berbench.testbed`).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import prbs
from .core import BerValue, check_rate_kbps, exact_fraction
from .prbs import PrbsSpec
from .testbed import Session, loopback

#: Bits processed per pass; bounds working memory on long runs.
SEGMENT_BITS = 1 << 25


class SelfTestError(Exception):
    """The analyzer's own pattern loop did not come back clean."""


def _check_ber0(ber0) -> Fraction:
    """The resolution BER_0 as an exact fraction in (0, 1)."""
    ber0 = exact_fraction(ber0)
    if not 0 < ber0 < 1:
        raise ValueError(f"resolution must be in (0, 1), got {ber0}")
    return ber0


@dataclass(frozen=True)
class MeasurementConfig:
    """Resolution and pattern for one measurement."""

    ber0: Fraction = Fraction(1, 10**8)
    pattern: PrbsSpec = PrbsSpec()

    def __post_init__(self):
        object.__setattr__(self, "ber0", _check_ber0(self.ber0))


@dataclass(frozen=True)
class BerMeasurement:
    transmitted_bits: int
    errored_bits: int
    ber: BerValue
    duration_s: int
    rate_kbps: int
    freq_hz: float
    sync_failed: bool = False

    def __post_init__(self):
        if not 0 <= self.errored_bits <= self.transmitted_bits:
            raise ValueError("errored bits exceed transmitted bits")


def required_duration(rate_kbps: int, ber0) -> int:
    """Whole seconds for one measurement, rounded half-up."""
    check_rate_kbps(rate_kbps)
    ber0 = _check_ber0(ber0)
    t = Fraction(10) / (Fraction(1000 * rate_kbps) * ber0)
    return int(t + Fraction(1, 2))


def required_bits(ber0) -> int:
    """Pattern bits needed to resolve `ber0`, independent of rate."""
    ber0 = _check_ber0(ber0)
    return -(-10 // ber0)  # ceil(10 / ber0) in exact arithmetic


def _lock_allowance(pattern: PrbsSpec) -> int:
    # Seed window plus four lock windows of slack, so channel errors during
    # acquisition rarely eat into the compared budget.
    return pattern.order + 4 * prbs.LOCK_THRESHOLD


def measured_ber(errored: int, compared: int, ber0) -> BerValue:
    """A point estimate when any bit erred, else the bound `< BER_0`."""
    return BerValue.point(errored, compared) if errored else BerValue.upper_bound(ber0)


def measure(session: Session, config: MeasurementConfig) -> BerMeasurement:
    """Run one sized measurement through the session loopback.

    Deterministic for a fixed (profile, channel seed, pattern, config).
    A receiver that never locks yields a full-budget error count with
    `sync_failed` set, which downstream verdicts read as a failure.
    """
    budget = required_bits(config.ber0)
    allowance = _lock_allowance(config.pattern)
    duration = required_duration(session.rate_kbps, config.ber0)

    pattern = config.pattern
    compared = errored = 0
    sync_failed = False
    remaining = budget
    # `tx` and `rx` live until the next segment: freed early, they cut peak RSS
    # but slow a campaign on one CPU, likely as glibc returns and refaults pages.
    while remaining > 0:
        seg = min(remaining, SEGMENT_BITS)
        n_bits = seg + allowance
        tx = prbs.generate(pattern, n_bits)
        rx = loopback(session, tx, n_bits)
        state = prbs.synchronize(pattern, rx, n_bits)
        if state.locked:
            got, bad = prbs.count_errors(pattern, rx, n_bits, state, max_bits=seg)
        else:
            got, bad, sync_failed = seg, seg, True
        compared += got
        errored += bad
        remaining -= seg
        pattern = pattern.after(tx, n_bits)  # the next segment continues this one

    return BerMeasurement(
        transmitted_bits=compared,
        errored_bits=errored,
        ber=measured_ber(errored, compared, config.ber0),
        duration_s=duration,
        rate_kbps=session.rate_kbps,
        freq_hz=session.freq_hz,
        sync_failed=sync_failed,
    )


def analyzer_self_test(pattern: PrbsSpec | None = None) -> None:
    """Pattern generator looped straight into the receiver must be clean."""
    pattern = pattern or PrbsSpec()
    n = _lock_allowance(pattern) + (1 << 16)
    stream = prbs.generate(pattern, n)
    state = prbs.synchronize(pattern, stream, n)
    if not state.locked or state.offset != 0:
        raise SelfTestError("pattern receiver failed to lock on its own generator")
    _, errors = prbs.count_errors(pattern, stream, n, state)
    if errors:
        raise SelfTestError(f"self-loop produced {errors} errors")
