"""Reference models the tests check the program against.

They restate definitions bit by bit, so they stay slow and plain: the
serial PRBS register, and where `build_multiframes` puts each payload bit.
"""
import numpy as np

from berbench.core import InterfaceKind
from berbench.framing import FRAME_BITS, PAYLOAD_SLOTS


def step_register(state: int, order: int, tap: int) -> tuple[int, int]:
    """One serial register step; returns (next_state, output_bit)."""
    bit = ((state >> (order - 1)) ^ (state >> (tap - 1))) & 1
    return ((state << 1) | bit) & ((1 << order) - 1), bit


def line_positions(payload_indices, timeslots: int = PAYLOAD_SLOTS) -> np.ndarray:
    """Line positions of payload bits laid out by `build_multiframes`."""
    frame, within = np.divmod(np.asarray(payload_indices, dtype=np.int64), 8 * timeslots)
    return frame * FRAME_BITS + 8 + within  # skip timeslot 0 of each frame


def payload_line_positions(session, payload_indices) -> np.ndarray:
    """Line positions of a session's payload bits; the identity when unframed.

    Fault masks built from them hit (or avoid) chosen payload bits.
    """
    if session.iface is not InterfaceKind.G704:
        return np.array(payload_indices, dtype=np.int64)
    return line_positions(payload_indices, session.payload_timeslots)
