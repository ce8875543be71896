"""Seeded, reproducible fault models for the loopback path.

All randomness derives from the splitmix64 mixer used in counter mode:
draw ``i`` of stream ``seed`` is ``mix(seed + (i+1) * 0x9E3779B97F4A7C15)``
with

    mix(z): z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
            z ^= z >> 27;  z *= 0x94D049BB133111EB
            z ^= z >> 31

(all arithmetic mod 2**64).  Uniform doubles take the top 53 bits.  The
constants are fixed here so that identical configurations reproduce
identical error streams in any implementation.

A bit flips when its uniform ``u = k * 2**-53`` (k the top 53 bits) is
below the flip probability p.  The kernel compares integers instead:
k is an integer, so ``k < p * 2**53`` holds exactly when
``k < ceil(p * 2**53)``, and scaling p by a power of two is exact.  The
flips are therefore those of the float rule, bit for bit; a threshold of
0 flips nothing and p = 1 (threshold 2**53) flips every bit.

A flip needs ``z < t << 11`` for the finished draw z, and the last step
``z ^= z >> 31`` leaves the top 31 bits of its input z2 as they are.  So
a draw that flips has ``z2 >> 33 <= ((t << 11) - 1) >> 33``, that is
``z2 < cap = ((((t << 11) - 1) >> 33) + 1) << 33``.  `_flips` compares
z2 with the cap and finishes the mix only below it, which keeps a share
of the draws only 2**-31 above p.  Its flips are still exactly those of
the plain rule, which the tests restate as a mask over every draw.

A model is an immutable configuration; `open_stream` turns it into a
stateful stream that consumes bits sequentially (bit positions are global
across calls, so a long run may be fed in segments).  A stream draws in
one method, ``flips(n)``: the distinct offsets of the bits that flip
among its next n bits, which it moves past.  `_Stream` builds the rest
on it.  ``flipped(line, n_bits)`` flips the first n_bits bits of a
packed line (None: a line of zeros) in passes of `_LINE_PASS` bits,
each unpacked, flipped through ``apply`` and packed again only when it
holds a flip; it returns a copy of the line, made at the first flip, or
None when no bit flipped.  ``apply(bits)`` returns unpacked bits with
their flips applied.  A stream only moves forward.  An ideal channel is
a `bsc` stream at p = 0, which never draws.

The kernels draw into one scratch per process, built by the first draw
(`_scratch`), so a pass allocates no block above 128 KiB, glibc's
default mmap threshold (but see `_CHUNK`), and takes no fresh pages.
Nothing a kernel returns is a view of the scratch, so the flips a
stream keeps survive the draws of other streams.

No drawing path hands a binary operator a fresh array of 256 KiB or
more (numpy's ``NPY_MIN_ELIDE_BYTES``).  The pass-sized arrays are the
scratch's two buffers, worked in place or through ufuncs with ``out=``,
and the candidates and offsets of `_flips` and a mask pass, worked in
place too: a flip probability near 1 fills a pass with them.  The
other operands (the 64 KiB counter table of `_steps`, a pass's dwells)
are far smaller.  numpy reuses such an operand for the result only after
walking the C stack with glibc's ``backtrace()`` to check that Python
called it, and the first walk of a process pages in about 0.5 MB of
unwind tables that stay resident: measured on x86-64 Linux, 180 KiB of
libc, 148 KiB of libpython, 128 KiB of numpy's ``_multiarray_umath``
and 44 KiB of libgcc_s.
"""
from __future__ import annotations

import bisect
import dataclasses
import functools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import check_int, check_json, check_keys, check_real, refusal

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Fork a substream seed; index 0 returns a distinct value too."""
    return mix64((seed + (index + 1) * _GOLDEN) & _MASK64)


#: Draws per pass of the flip kernels.  Their buffers are the per-process
#: `_scratch`, allocated once, and what a pass still allocates at a flip
#: probability well below 1 stays below 128 KiB, glibc's default mmap
#: threshold: a larger block is mapped, zero-filled and unmapped again by
#: every call.  Near p = 1 a pass gathers up to 2**15 candidates in
#: `_flips`.  With 1 MiB of fresh buffers per call
#: at 2**16 draws, a warm campaign-bsc run in one process took 16 274
#: minor faults; with the scratch at 2**15 draws it takes 99.
_CHUNK = 1 << 15


#: Counters in the table of `_steps`.  `_mixed` fills a pass row by row,
#: each row the table plus one offset, so the table takes 64 KiB where a
#: table of a whole pass took 256 KiB.  In an in-process A/B a 32 KiB
#: table made the kernels about 3% slower; this one was within its noise.
_TABLE = 1 << 13


@functools.cache
def _steps() -> tuple[np.ndarray, np.ndarray]:
    """The counters of one row of `_mixed`, and a column of row offsets.

    ``(i+1) * GOLDEN`` for i < _TABLE, and ``r * _TABLE * GOLDEN`` for each
    row r of a pass, all mod 2**64.  Built on first use, so a run that
    never draws does not hold them.  The multiplies are in place, as no
    drawing path hands numpy a fresh operand it might reuse (see the
    module docstring).
    """
    steps = np.arange(1, _TABLE + 1, dtype=np.uint64)
    steps *= np.uint64(_GOLDEN)
    rows = np.arange(0, _CHUNK, _TABLE, dtype=np.uint64)[:, None]
    rows *= np.uint64(_GOLDEN)
    steps.flags.writeable = rows.flags.writeable = False
    return steps, rows


@functools.cache
def _scratch() -> tuple[np.ndarray, np.ndarray]:
    """Two uint64 buffers of _CHUNK entries for the kernels.

    Built on first use like `_steps` and shared by every stream of the
    process, so a kernel holds its draws here only while it runs: nothing
    it returns is a view of them.  A kernel's flip mask is a bool view of
    the second, free once `_mixed` or `_top53` has returned.
    """
    return np.empty(_CHUNK, np.uint64), np.empty(_CHUNK, np.uint64)


def _mixed(seed: int, start: int, z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Draws start .. start+len(z) of stream `seed` before their last step, in z.

    That is, z after the second multiply of `mix64`.  len(z) <= _CHUNK;
    tmp is a scratch buffer of the same size.
    """
    steps, rows = _steps()
    full, tail = divmod(len(z), _TABLE)
    # Row r of the pass starts at draw start + r * _TABLE; a tail shorter
    # than a row takes the next row's offset.  A Python int offset: a
    # numpy uint64 scalar would warn on wrap-around.
    offsets = rows + ((seed + start * _GOLDEN) & _MASK64)
    cut = full * _TABLE
    np.add(steps, offsets[:full], out=z[:cut].reshape(full, _TABLE))
    if tail:
        np.add(steps[:tail], offsets[full], out=z[cut:])
    np.right_shift(z, 30, out=tmp)
    z ^= tmp
    z *= _MIX1
    np.right_shift(z, 27, out=tmp)
    z ^= tmp
    z *= _MIX2
    return z


def _top53(seed: int, start: int, z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The top 53 bits of draws start .. start+len(z) of stream `seed`, in z."""
    _mixed(seed, start, z, tmp)
    np.right_shift(z, 31, out=tmp)
    z ^= tmp
    return np.right_shift(z, 11, out=z)


def _threshold(p: float) -> int:
    """The integer t with ``k * 2**-53 < p`` exactly when ``k < t``."""
    return math.ceil(p * 2.0**53)


def _cap(threshold: int) -> int:
    """A bound on the draws that flip at `threshold`, before their last step.

    A draw z flips when ``z < threshold << 11``, and z shares its top 31
    bits with the value before its last step, so that value is below this
    multiple of 2**33 (see the module docstring).
    """
    return ((((threshold << 11) - 1) >> 33) + 1) << 33


def _flips(seed: int, start: int, n: int, threshold: int) -> np.ndarray:
    """Offsets i < n whose draw start+i of stream `seed` flips at `threshold`.

    That is, whose top 53 bits are below `threshold`, one int from
    `_threshold`: 0 flips nothing and 2**53 every bit.  The mix stops at
    `_mixed`, and only draws below `_cap` finish it.
    """
    cap = _cap(threshold)
    z, tmp = _scratch()
    found = []
    for lo in range(0, n, _CHUNK):
        c = min(n - lo, _CHUNK)
        mixed = _mixed(seed, start + lo, z[:c], tmp[:c])
        candidates = np.flatnonzero(np.less(mixed, cap, out=tmp.view(bool)[:c]))
        if len(candidates):
            last = mixed[candidates]
            last ^= last >> 31
            candidates += lo
            found.append(candidates[last >> 11 < threshold])
    return np.concatenate(found) if found else np.empty(0, dtype=np.intp)


def _check_seed(seed: int) -> None:
    """Refuse a channel seed outside [0, 2**64).

    The draws take the seed mod 2**64, so a seed outside would draw the
    stream of another seed and report a seed it did not draw with.
    """
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"channel seed {seed} outside [0, 2**64)")


@dataclass(frozen=True)
class Ideal:
    """Transparent path: output equals input."""

    seed: int = 0
    p = 0.0  # not a field: an ideal stream is a `bsc` stream that never flips

    def __post_init__(self):
        _check_seed(self.seed)


@dataclass(frozen=True)
class Bsc:
    """Flips each bit independently with probability `p`."""

    p: float
    seed: int = 0

    def __post_init__(self):
        _check_seed(self.seed)
        if not 0.0 <= float(self.p) <= 1.0:
            raise ValueError(f"flip probability {self.p} outside [0, 1]")


@dataclass(frozen=True)
class GilbertElliott:
    """Two-state burst model.

    `p_gb`/`p_bg` are per-bit transition probabilities good->bad and
    bad->good; `p_good`/`p_bad` are the per-bit probabilities of CORRECT
    delivery in each state (so the flip rate in the bad state is
    ``1 - p_bad``).  The initial state is drawn from the stationary
    distribution of the two-state chain.
    """

    p_gb: float
    p_bg: float
    p_good: float
    p_bad: float
    seed: int = 0

    def __post_init__(self):
        _check_seed(self.seed)
        for name in ("p_gb", "p_bg", "p_good", "p_bad"):
            v = float(getattr(self, name))
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")

    @property
    def stationary_bad(self) -> float:
        denom = self.p_gb + self.p_bg
        return self.p_gb / denom if denom > 0 else 0.5

    @property
    def long_run_error_rate(self) -> float:
        pi_bad = self.stationary_bad
        return (1 - pi_bad) * (1 - self.p_good) + pi_bad * (1 - self.p_bad)


@dataclass(frozen=True)
class FixedMask:
    """Flips exactly the listed stream positions."""

    indices: tuple[int, ...]
    seed: int = 0

    def __post_init__(self):
        _check_seed(self.seed)
        idx = tuple(int(i) for i in self.indices)
        if any(not 0 <= i < 2**63 for i in idx):  # stream positions are int64
            raise ValueError("mask indices must be in [0, 2**63)")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("mask indices must be strictly increasing")
        object.__setattr__(self, "indices", idx)


ChannelModel = Ideal | Bsc | GilbertElliott | FixedMask


_NO_FLIPS = np.empty(0, dtype=np.intp)  # shared: an empty array holds nothing to change


#: Line bits per pass of `_Stream.flipped`, a multiple of the octet;
#: bounds the unpacked bits and the model's draws.  A pass with a flip
#: allocates 64 KiB twice, the unpacked bits and the model's copy: below
#: glibc's default mmap threshold, above which each pass would map fresh
#: pages, and small enough to sit beside a G.704 window and a segment's
#: payload in `test_framed_loopback_takes_no_line_sized_heap_memory`.
_LINE_PASS = 1 << 16


class _Stream:
    """The calls each kind builds on its `flips` (see the module docstring)."""

    #: The offsets `flipped` drew for the pass it hands `apply`, set on the
    #: stream only until that `apply`, so between passes its state is the
    #: same whichever call drew.
    _kept: np.ndarray | None = None

    def flipped(self, line: np.ndarray | None, n_bits: int) -> np.ndarray | None:
        out = None
        for lo in range(0, n_bits, _LINE_PASS):
            count = min(n_bits - lo, _LINE_PASS)
            offsets = self.flips(count)
            if len(offsets):
                if out is None:
                    out = np.zeros(-(-n_bits // 8), np.uint8) if line is None else line.copy()
                # Through the instance's `apply`, which a tracer may wrap.
                self._kept = offsets
                chunk = out[lo // 8 : -(-(lo + count) // 8)]
                chunk[:] = np.packbits(self.apply(np.unpackbits(chunk, count=count)))
        return out

    def apply(self, bits: np.ndarray) -> np.ndarray:
        offsets = self._kept
        if offsets is None:
            offsets = self.flips(len(bits))
        else:
            del self._kept
        out = np.array(bits, dtype=np.uint8)
        out[offsets] ^= 1
        return out


class _BscStream(_Stream):
    def __init__(self, model: Bsc | Ideal):
        self.threshold = _threshold(float(model.p))
        self.seed = model.seed
        self.position = 0

    def flips(self, n: int) -> np.ndarray:
        offsets = _NO_FLIPS
        if self.threshold:
            offsets = _flips(self.seed, self.position, n, self.threshold)
        self.position += n
        return offsets


#: Dwells drawn per schedule, at most _CHUNK; bounds the dwell arrays, not
#: the bits a schedule covers.
_DWELLS = 1 << 12
#: A dwell this long that flips nothing is skipped rather than drawn.  One
#: more kernel call costs about as much as drawing a few thousand bits, so
#: shorter idle dwells are drawn through.
_IDLE_BITS = 1 << 12


class _GilbertElliottStream(_Stream):
    # The dwell in each state is geometric on {1, 2, ...}: with one draw u
    # of the dwell substream it is int(log(1-u) / log1p(-leave)) + 1, for a
    # state whose leave probability lies in (0, 1).  A state never left
    # dwells forever and one always left dwells 1 bit; neither takes a
    # draw.  Per-bit error draws come from a second substream keyed by
    # global bit position, so the dwells only set each bit's threshold.
    def __init__(self, model: GilbertElliott):
        self.err_seed = derive_seed(model.seed, 1)
        self.dwell_seed = derive_seed(model.seed, 2)
        # Indexed by state: False is good, True is bad.
        self.leave = (model.p_gb, model.p_bg)
        self.threshold = (_threshold(1.0 - model.p_good), _threshold(1.0 - model.p_bad))
        mean_cycle = sum(1.0 / p if p > 0.0 else math.inf for p in self.leave)
        self.dwells_per_bit = 2.0 / mean_cycle
        self.dwell_counter = 0
        self.position = 0
        init = (derive_seed(derive_seed(model.seed, 0), 0) >> 11) * 2.0**-53
        # `remaining` counts the bits left in the current dwell.  The stream
        # opens at the end of an empty dwell in the other state, so the first
        # schedule draws the first dwell.
        self.bad = not (init < model.stationary_bad)
        self.remaining = 0

    def flips(self, n: int) -> np.ndarray:
        # Every call goes through `_schedule`, which hands out a covering
        # dwell alone.  A schedule that stops short of its bits ends on a
        # whole dwell, so the next one starts a dwell.
        found, done = [], 0
        while done < n:
            bounds, values = self._schedule(n - done)
            bounds += done
            found += self._dwell_flips(bounds, values)
            done = int(bounds[-1])
        self.position += n
        return np.concatenate(found) if found else _NO_FLIPS

    def _dwell_flips(self, bounds: np.ndarray, values: np.ndarray):
        """Yield the offsets in bounds[i]:bounds[i+1] that flip at values[i], for each dwell i.

        A dwell of `_IDLE_BITS` or more that flips nothing takes no draws.
        Between such dwells, `_flips` draws the bits in passes of _CHUNK,
        once at each nonzero threshold of the run (states alternate, so its
        first two dwells hold them), and an offset flips when its dwell has
        that threshold.
        """
        spans = np.diff(bounds)
        idle = np.flatnonzero((values == 0) & (spans >= _IDLE_BITS)).tolist()
        first = 0
        for stop in [*idle, len(values)]:
            thresholds = set(values[first:stop][:2].tolist()) - {0}
            if thresholds:
                end = int(bounds[stop])
                for lo in range(int(bounds[first]), end, _CHUNK):
                    start, count = self.position + lo, min(_CHUNK, end - lo)
                    for t in thresholds:
                        offsets = _flips(self.err_seed, start, count, t)
                        offsets += lo
                        # An offset's dwell is the number of dwell ends at or before it.
                        dwell = np.searchsorted(bounds[1:], offsets, side="right")
                        yield offsets[values[dwell] == t]
            first = stop + 1

    def _schedule(self, limit: int) -> tuple[np.ndarray, np.ndarray]:
        """Bounds and thresholds of the dwells over the next bits.

        Dwell i covers bounds[i]:bounds[i+1] at threshold values[i].  They
        cover `limit` bits, or fewer when `_DWELLS` drawn dwells end before
        that.  A current dwell that covers `limit` is the one dwell and
        takes no draw; otherwise it ends within them.
        """
        if self.remaining >= limit:
            self.remaining -= limit
            return np.array([0, limit]), np.array([self.threshold[self.bad]], dtype=np.uint64)
        rest = limit - self.remaining  # bits after the current dwell
        count = min(int(1.25 * rest * self.dwells_per_bit) + 8, _DWELLS)
        q = self._quotients(count)
        # Exact below 2**53, as are the sums up to rest.  A dwell of 2**63
        # bits or more outlasts every stream position, so capping it there
        # changes no bound and keeps the sums finite for a leave probability
        # near the least normal double, whose dwells are near the largest.
        lengths = np.floor(np.minimum(q, 2.0**63)) + 1
        ends = np.cumsum(lengths)
        # The dwell that outlasts `limit`, or the last one drawn, used whole.
        j = min(int(np.searchsorted(ends, rest, side="right")), count - 1)
        used = int(min(rest - (int(ends[j - 1]) if j else 0), lengths[j]))
        spans = np.concatenate(([self.remaining], lengths[:j].astype(np.int64), [used]))
        bounds = np.concatenate(([0], np.cumsum(spans)))
        values = np.empty(j + 2, dtype=np.uint64)
        values[0::2] = self.threshold[self.bad]
        values[1::2] = self.threshold[not self.bad]
        self.dwell_counter += self._draws(j + 1)
        self.bad = self.bad != (j % 2 == 0)
        # A dwell of 2**63 bits or more outlasts every int64 stream position.
        self.remaining = (int(q[j]) + 1 if q[j] < 2**63 else math.inf) - used
        return bounds, values

    def _quotients(self, count: int) -> np.ndarray:
        """log(1-u) / log1p(-leave) of the next `count` dwells (0 or inf if undrawn).

        Dwells 0, 2, 4, ... are in the state other than the current one.
        """
        states = (not self.bad, self.bad)
        drawn = [0.0 < self.leave[s] < 1.0 for s in states]
        z, tmp = _scratch()
        draws = self._draws(count)  # count <= _CHUNK
        u = _top53(self.dwell_seed, self.dwell_counter, z[:draws], tmp[:draws]) * 2.0**-53
        # math.log, not np.log: the two differ in the last ulp, and the
        # dwells must be the scalar formula's.  1.0 - u (never 0) and the
        # division round the same in numpy as in Python.
        logs = np.fromiter(map(math.log, (1.0 - u).tolist()), dtype=float, count=len(u))
        q = np.empty(count)
        for parity, state in enumerate(states):
            leave = self.leave[state]
            if not drawn[parity]:
                q[parity::2] = 0.0 if leave >= 1.0 else math.inf
                continue
            # A denormal leave probability overflows to an endless dwell.
            with np.errstate(over="ignore"):
                q[parity::2] = (logs[parity::2] if all(drawn) else logs) / math.log1p(-leave)
        return q

    def _draws(self, count: int) -> int:
        """Dwell draws taken by the next `count` dwells."""
        per_parity = ((count + 1) // 2, count // 2)
        states = (not self.bad, self.bad)
        return sum(k for k, s in zip(per_parity, states) if 0.0 < self.leave[s] < 1.0)


class _FixedMaskStream(_Stream):
    def __init__(self, model: FixedMask):
        self.indices = model.indices  # a sorted tuple: bisect finds a pass's share fast
        self.position = 0

    def flips(self, n: int) -> np.ndarray:
        lo = bisect.bisect_left(self.indices, self.position)
        hi = bisect.bisect_left(self.indices, self.position + n, lo)
        offsets = _NO_FLIPS
        if hi > lo:
            offsets = np.array(self.indices[lo:hi], dtype=np.intp)
            offsets -= self.position
        self.position += n
        return offsets


class _Kind(NamedTuple):
    name: str  # the "kind" in config and report documents
    spec: str  # the CLI spec prefix
    model: type
    stream: type


#: One row per model kind.  Document fields and spec values are the model's
#: dataclass fields in declared order; a spec never carries the seed.
KINDS = (
    _Kind("ideal", "ideal", Ideal, _BscStream),
    _Kind("bsc", "bsc", Bsc, _BscStream),
    _Kind("gilbert_elliott", "ge", GilbertElliott, _GilbertElliottStream),
    _Kind("fixed_mask", "mask", FixedMask, _FixedMaskStream),
)
_BY_MODEL = {k.model: k for k in KINDS}
_BY_NAME = {k.name: k for k in KINDS}
_BY_SPEC = {k.spec: k for k in KINDS}

#: How a field's declared type reads a document value, and a spec's text.
_INDEX_LIST = "tuple[int, ...]"
_READERS = {
    "float": check_real,
    _INDEX_LIST: lambda vs, what: tuple(
        check_int(v, "a mask index") for v in check_json(vs, what, list)
    ),
}
_PARSERS = {"float": float, _INDEX_LIST: lambda vs: tuple(int(v) for v in vs)}


def _params(kind: _Kind) -> tuple[dataclasses.Field, ...]:
    return tuple(f for f in dataclasses.fields(kind.model) if f.name != "seed")


def _kind_of(model: ChannelModel) -> _Kind:
    kind = _BY_MODEL.get(type(model))
    if kind is None:
        raise TypeError(f"not a channel model: {model!r}")
    return kind


def param_names(kind_name: str) -> tuple[str, ...]:
    """Parameter fields of a document's channel kind, in declared order."""
    if kind_name not in _BY_NAME:
        raise ValueError(f"unknown channel kind {kind_name!r}")
    return tuple(f.name for f in _params(_BY_NAME[kind_name]))


def spec_usage() -> str:
    """The CLI spec forms: ``ideal | bsc:p | ge:p_gb,p_bg,p_good,p_bad | ...``."""
    forms = (f"{k.spec}:{','.join(f.name for f in _params(k))}" for k in KINDS)
    return " | ".join(form.rstrip(":") for form in forms)


def open_stream(model: ChannelModel):
    return _kind_of(model).stream(model)


def model_to_dict(model: ChannelModel) -> dict:
    out = {"kind": _kind_of(model).name}
    for f in dataclasses.fields(model):
        value = getattr(model, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def model_from_dict(data: dict) -> ChannelModel:
    if "seed" not in data:  # the engine never draws entropy on its own
        shown = json.dumps(data, default=repr)
        raise ValueError(f"channel {shown} has no seed; seeds must be explicit")
    try:
        kind = _BY_NAME.get(check_json(data["kind"], "'kind'", str))
        if kind is None:
            raise ValueError(f"unknown channel kind {json.dumps(data['kind'])}")
        check_keys(data, "'channel'", "kind", "seed", *param_names(kind.name))
        params = {f.name: _READERS[f.type](data[f.name], repr(f.name)) for f in _params(kind)}
        return kind.model(**params, seed=check_int(data["seed"], "the seed"))
    except (KeyError, TypeError, ValueError) as exc:
        shown = json.dumps(data, default=repr)  # a Python caller's value may not be JSON
        raise ValueError(f"bad channel description {shown}: {refusal(exc)}") from None


def model_from_spec(spec: str, seed: int) -> ChannelModel:
    """Read a CLI spec (see `spec_usage`); an index list takes every value."""
    prefix, _, rest = spec.partition(":")
    if prefix not in _BY_SPEC:
        raise ValueError(f"unknown kind {prefix!r}; use {spec_usage()}")
    params = _params(_BY_SPEC[prefix])
    values = rest.split(",") if rest else []
    if [f.type for f in params] == [_INDEX_LIST]:
        values = [values]
    if len(values) != len(params):
        raise ValueError(f"expected {len(params)} values, got {len(values)}")
    read = {f.name: _PARSERS[f.type](v) for f, v in zip(params, values)}
    return _BY_SPEC[prefix].model(**read, seed=seed)
