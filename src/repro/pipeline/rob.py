"""Lifecycle states of a reorder-buffer (RUU) entry.

The core keeps each in-flight instruction's state in its ring columns
(see :mod:`repro.pipeline.flat`); ``f_state`` holds these values.
"""

from __future__ import annotations


class DynState:
    """Lifecycle states of a dynamic instruction (plain ints for speed)."""

    DISPATCHED = 0  # in ROB, waiting for operands
    ISSUED = 1  # executing
    COMPLETED = 2  # result available, waiting to enter check/retire
    IN_CHECK = 3  # offered to the retire gate (fingerprint sent)
    RETIRED = 4  # architectural state updated
