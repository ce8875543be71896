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

A model is an immutable configuration; `open_stream` turns it into a
stateful stream that consumes bits sequentially (bit positions are global
across calls, so a long run may be fed in segments).
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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


def _uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Draws start..start+count of the stream, as float64 in [0, 1)."""
    idx = np.arange(start + 1, start + 1 + count, dtype=np.uint64)
    z = idx * np.uint64(_GOLDEN) + np.uint64(seed & _MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0**-53


#: Draws per pass of `_flip`, so its temporaries stay cache-sized rather
#: than 16+ bytes per bit of the whole stream.
_CHUNK = 1 << 16


def _flip(bits: np.ndarray, seed: int, start: int, p: float) -> None:
    """XOR (draw start+i of stream `seed`) < p into bits[i], in place."""
    for lo in range(0, len(bits), _CHUNK):
        hi = min(lo + _CHUNK, len(bits))
        bits[lo:hi] ^= _uniforms(seed, start + lo, hi - lo) < p


def _uniform_scalar(seed: int, index: int) -> float:
    return (mix64((seed + (index + 1) * _GOLDEN) & _MASK64) >> 11) * 2.0**-53


@dataclass(frozen=True)
class Ideal:
    """Transparent path: output equals input."""

    seed: int = 0


@dataclass(frozen=True)
class Bsc:
    """Flips each bit independently with probability `p`."""

    p: float
    seed: int = 0

    def __post_init__(self):
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
        idx = tuple(int(i) for i in self.indices)
        if any(i < 0 for i in idx):
            raise ValueError("mask indices must be nonnegative")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("mask indices must be strictly increasing")
        object.__setattr__(self, "indices", idx)


ChannelModel = Ideal | Bsc | GilbertElliott | FixedMask


class _IdealStream:
    def __init__(self, model: Ideal):
        self.position = 0

    def apply(self, bits: np.ndarray) -> np.ndarray:
        self.position += len(bits)
        return bits


class _BscStream:
    def __init__(self, model: Bsc):
        self.p = float(model.p)
        self.seed = model.seed
        self.position = 0

    def apply(self, bits: np.ndarray) -> np.ndarray:
        out = bits
        if len(bits) and self.p > 0.0:
            out = np.array(bits, dtype=np.uint8)
            _flip(out, self.seed, self.position, self.p)
        self.position += len(bits)
        return out


class _GilbertElliottStream:
    # Dwell times in each state are geometric, sampled in batches from the
    # transition substream; per-bit error draws come from a second substream
    # keyed by global bit position, so a state change only moves the
    # threshold.
    def __init__(self, model: GilbertElliott):
        self.model = model
        self.err_seed = derive_seed(model.seed, 1)
        self.dwell_seed = derive_seed(model.seed, 2)
        self.dwell_counter = 0
        self.position = 0
        init = _uniform_scalar(derive_seed(model.seed, 0), 0)
        self.bad = init < model.stationary_bad
        self.remaining = self._draw_dwell()

    def _draw_dwell(self) -> float:
        leave = self.model.p_bg if self.bad else self.model.p_gb
        if leave <= 0.0:
            return math.inf
        if leave >= 1.0:
            return 1
        u = _uniform_scalar(self.dwell_seed, self.dwell_counter)
        self.dwell_counter += 1
        # Geometric on {1, 2, ...}; 1-u keeps the argument away from log(0).
        return int(math.log(1.0 - u) / math.log1p(-leave)) + 1

    def apply(self, bits: np.ndarray) -> np.ndarray:
        out = np.array(bits, dtype=np.uint8, copy=True)
        n = len(out)
        done = 0
        while done < n:
            span = n - done if math.isinf(self.remaining) else min(int(self.remaining), n - done)
            flip_p = (1.0 - self.model.p_bad) if self.bad else (1.0 - self.model.p_good)
            if flip_p > 0.0:
                _flip(out[done : done + span], self.err_seed, self.position + done, flip_p)
            done += span
            if not math.isinf(self.remaining):
                self.remaining -= span
                if self.remaining <= 0:
                    self.bad = not self.bad
                    self.remaining = self._draw_dwell()
        self.position += n
        return out


class _FixedMaskStream:
    def __init__(self, model: FixedMask):
        self.indices = np.asarray(model.indices, dtype=np.int64)
        self.position = 0

    def apply(self, bits: np.ndarray) -> np.ndarray:
        n = len(bits)
        lo = np.searchsorted(self.indices, self.position, side="left")
        hi = np.searchsorted(self.indices, self.position + n, side="left")
        self.position += n
        if lo == hi:
            return bits
        out = np.array(bits, dtype=np.uint8, copy=True)
        hit = self.indices[lo:hi] - (self.position - n)
        out[hit] ^= 1
        return out


class _Kind(NamedTuple):
    name: str  # the "kind" in config and report documents
    spec: str  # the CLI spec prefix
    model: type
    stream: type


#: One row per model kind.  Document fields and spec values are the model's
#: dataclass fields in declared order; a spec never carries the seed.
KINDS = (
    _Kind("ideal", "ideal", Ideal, _IdealStream),
    _Kind("bsc", "bsc", Bsc, _BscStream),
    _Kind("gilbert_elliott", "ge", GilbertElliott, _GilbertElliottStream),
    _Kind("fixed_mask", "mask", FixedMask, _FixedMaskStream),
)
_BY_MODEL = {k.model: k for k in KINDS}
_BY_NAME = {k.name: k for k in KINDS}
_BY_SPEC = {k.spec: k for k in KINDS}

#: How a field's declared type reads a value from a document or a spec.
_INDEX_LIST = "tuple[int, ...]"
_READERS = {"int": int, "float": float, _INDEX_LIST: lambda vs: tuple(int(v) for v in vs)}


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


def apply(model: ChannelModel, bits: np.ndarray) -> np.ndarray:
    """One-shot application of a model to a whole stream."""
    bits = np.asarray(bits, dtype=np.uint8)
    if isinstance(model, FixedMask) and model.indices and model.indices[-1] >= len(bits):
        raise ValueError(
            f"mask index {model.indices[-1]} outside stream of {len(bits)} bits"
        )
    return open_stream(model).apply(bits)


def model_to_dict(model: ChannelModel) -> dict:
    out = {"kind": _kind_of(model).name}
    for f in dataclasses.fields(model):
        value = getattr(model, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def model_from_dict(data: dict) -> ChannelModel:
    try:
        kind = _BY_NAME.get(data["kind"])
        if kind is None:
            raise ValueError(f"unknown channel kind {data['kind']!r}")
        params = {f.name: _READERS[f.type](data[f.name]) for f in _params(kind)}
        return kind.model(**params, seed=int(data.get("seed", 0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad channel description {data!r}: {exc}") from None


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
    read = {f.name: _READERS[f.type](v) for f, v in zip(params, values)}
    return _BY_SPEC[prefix].model(**read, seed=seed)
