"""Fingerprints: hashed summaries of architectural state updates.

Following Smolens et al. [21] (the paper's own prior work), a fingerprint
compresses the stream of architectural updates — register writebacks,
store addresses and values, and branch targets — into a small hash that
two redundant executions exchange and compare.  A CRC is used so the
aliasing probability is bounded: at most ``2^-(N-1)`` for an ``N``-bit
CRC with the two-stage front end, ``2^-N`` without.

Two-stage compression (Section 4.3): a wide superscalar can retire more
update bits per cycle than a hash circuit can consume, so parity trees
first fold the raw ``M`` bits down to ``N`` bits in one stage ("space
compression"), and the CRC absorbs those ``N`` bits per step ("time
compression").  Folding by XOR is linear, so it exactly doubles the
aliasing probability — the trade the paper quantifies.
"""

from __future__ import annotations

try:  # numpy accelerates table construction and large batches; optional.
    import numpy as _np
except ImportError:  # pragma: no cover - the image ships numpy
    _np = None

from repro.pipeline.flat import FlatView


def _make_crc_table(poly: int, bits: int) -> list[int]:
    """Precompute a byte-at-a-time CRC table for an ``bits``-wide CRC."""
    top_bit = 1 << (bits - 1)
    mask = (1 << bits) - 1
    table = []
    for byte in range(256):
        crc = byte << (bits - 8)
        for _ in range(8):
            if crc & top_bit:
                crc = ((crc << 1) ^ poly) & mask
            else:
                crc = (crc << 1) & mask
        table.append(crc)
    return table


#: CRC generator polynomials by width (CCITT-16, CRC-32, and small CRCs
#: used only by aliasing experiments).  Widths below 8 take the
#: bit-serial path in :class:`FingerprintAccumulator` — the byte-at-a-
#: time table needs at least one full byte of CRC register.
_POLYS = {
    4: 0x3,  # CRC-4-ITU (x^4 + x + 1): the narrowest aliasing-study CRC
    8: 0x07,
    12: 0x80F,
    16: 0x1021,
    24: 0x864CFB,
    32: 0x04C11DB7,
}

_TABLES: dict[int, list[int]] = {}

#: Hot-path loop constants, hoisted once at import instead of being
#: rebuilt by ``range()``/shift arithmetic on every absorbed word.
_WORD_MASK_64 = (1 << 64) - 1
_BYTE_SHIFTS_64 = tuple(range(0, 64, 8))


def _table_for(bits: int) -> list[int]:
    if bits not in _POLYS:
        raise ValueError(f"no CRC polynomial for width {bits}; pick from {sorted(_POLYS)}")
    if bits < 8:
        raise ValueError(f"byte-at-a-time CRC table needs width >= 8, got {bits}")
    table = _TABLES.get(bits)
    if table is None:
        table = _make_crc_table(_POLYS[bits], bits)
        _TABLES[bits] = table
    return table


#: Wide tables for the 16-bit CRC (the paper's configuration and the hot
#: path): ``(LT16, MT16, MT16-as-ndarray-or-None)``, built lazily.
_WIDE16: tuple | None = None


def _wide_tables_16() -> tuple:
    """Halfword-at-a-time tables for the 16-bit CRC.

    One byte step is linear over GF(2) in its ``(crc, byte)`` input, so
    the composition of two steps absorbing a 16-bit message ``m`` into
    register ``crc`` splits exactly into independent contributions:
    ``step2(crc, m) == LT16[crc] ^ MT16[m]`` with ``LT16[c] =
    step2(c, 0)`` (advance the register 16 bits) and ``MT16[m] =
    step2(0, m)`` (the message's contribution).  This turns the per-word
    two-stage absorb into two list lookups and one XOR; the equivalence
    is pinned against the byte path and the bit-serial reference in
    ``tests/core/test_fingerprint_batched.py``.
    """
    global _WIDE16
    if _WIDE16 is not None:
        return _WIDE16
    table = _table_for(16)
    if _np is not None:
        t = _np.array(table, dtype=_np.uint32)
        c = _np.arange(65536, dtype=_np.uint32)
        x = ((c << 8) ^ t[(c >> 8) & 0xFF]) & 0xFFFF
        lt = ((x << 8) ^ t[(x >> 8) & 0xFF]) & 0xFFFF
        m = _np.arange(65536, dtype=_np.uint32)
        x = t[m & 0xFF]  # step(0, m_lo): register starts at zero
        mt = ((x << 8) ^ t[((x >> 8) ^ (m >> 8)) & 0xFF]) & 0xFFFF
        _WIDE16 = (lt.tolist(), mt.tolist(), mt.astype(_np.uint32))
    else:  # pragma: no cover - exercised only without numpy
        lt_list = []
        mt_list = []
        for v in range(65536):
            x = ((v << 8) ^ table[(v >> 8) & 0xFF]) & 0xFFFF
            lt_list.append(((x << 8) ^ table[(x >> 8) & 0xFF]) & 0xFFFF)
            x = table[v & 0xFF]
            mt_list.append(((x << 8) ^ table[((x >> 8) ^ (v >> 8)) & 0xFF]) & 0xFFFF)
        _WIDE16 = (lt_list, mt_list, None)
    return _WIDE16


#: Batch size at which ``add_words`` switches its space-compression fold
#: to one vectorized numpy pass (below it, ndarray setup costs more than
#: the plain loop saves).
_NP_BATCH_MIN = 64


class FingerprintAccumulator:
    """Accumulates one fingerprint interval's worth of updates."""

    __slots__ = (
        "bits",
        "two_stage",
        "_crc",
        "_table",
        "_mask",
        "_shift",
        "_byte_shifts",
        "_poly",
        "_lt",
        "_mt",
        "_mt_np",
    )

    def __init__(self, bits: int = 16, two_stage: bool = True) -> None:
        if bits not in _POLYS:
            raise ValueError(
                f"no CRC polynomial for width {bits}; pick from {sorted(_POLYS)}"
            )
        self.bits = bits
        self.two_stage = two_stage
        self._poly = _POLYS[bits]
        self._mask = (1 << bits) - 1
        self._crc = 0
        #: Halfword tables (16-bit CRCs only): ``_lt is not None`` routes
        #: absorbs through the two-lookup wide step.
        self._lt = None
        self._mt = None
        self._mt_np = None
        if bits < 8:
            # Narrow CRCs (aliasing experiments only) cannot hold a full
            # byte in the register, so they clock bit-serially; the
            # byte-table fields stay unset and ``_table is None`` routes
            # every absorb through :meth:`_clock_bits`.
            self._table = None
            self._shift = 0
            self._byte_shifts = ()
            return
        self._table = _table_for(bits)
        self._shift = bits - 8
        #: Byte lanes of one folded value (``bits`` wide), precomputed so
        #: the per-word absorb loop carries no range() construction.
        self._byte_shifts = tuple(range(0, bits, 8))
        if bits == 16:
            self._lt, self._mt, self._mt_np = _wide_tables_16()

    # -- narrow (bit-serial) path ------------------------------------------
    def _clock_bits(self, crc: int, value: int, nbits: int) -> int:
        """Clock ``nbits`` of ``value`` (MSB first) through the register.

        Same convention as the byte table — non-reflected, zero init, no
        final XOR — so the two paths agree wherever both are defined.
        """
        poly = self._poly
        mask = self._mask
        top = self.bits - 1
        for i in range(nbits - 1, -1, -1):
            if ((crc >> top) ^ (value >> i)) & 1:
                crc = ((crc << 1) ^ poly) & mask
            else:
                crc = (crc << 1) & mask
        return crc

    def _add_word_narrow(self, word: int) -> None:
        if self.two_stage:
            bits = self.bits
            mask = self._mask
            folded = word & mask
            word >>= bits
            while word:
                folded ^= word & mask
                word >>= bits
            self._crc = self._clock_bits(self._crc, folded, bits)
        else:
            # Same byte-lane order as the wide table path: low byte first.
            crc = self._crc
            for shift in _BYTE_SHIFTS_64:
                crc = self._clock_bits(crc, (word >> shift) & 0xFF, 8)
            self._crc = crc

    # -- raw update streams ------------------------------------------------
    def add_word(self, word: int) -> None:
        """Absorb one 64-bit state update."""
        word &= _WORD_MASK_64
        if self._table is None:
            self._add_word_narrow(word)
            return
        lt = self._lt
        if lt is not None:
            # 16-bit wide step: two lookups per halfword of message.
            mt = self._mt
            crc = self._crc
            if self.two_stage:
                folded = (word ^ (word >> 16) ^ (word >> 32) ^ (word >> 48)) & 0xFFFF
                crc = lt[crc] ^ mt[folded]
            else:
                crc = lt[crc] ^ mt[word & 0xFFFF]
                crc = lt[crc] ^ mt[(word >> 16) & 0xFFFF]
                crc = lt[crc] ^ mt[(word >> 32) & 0xFFFF]
                crc = lt[crc] ^ mt[(word >> 48) & 0xFFFF]
            self._crc = crc
            return
        crc = self._crc
        table = self._table
        top_shift = self._shift
        mask = self._mask
        if self.two_stage:
            # Parity trees: fold 64 bits to `bits` bits in one stage,
            # then feed the folded value to the CRC.
            bits = self.bits
            folded = word & mask
            word >>= bits
            while word:
                folded ^= word & mask
                word >>= bits
            for shift in self._byte_shifts:
                crc = (
                    (crc << 8)
                    ^ table[((crc >> top_shift) ^ (folded >> shift)) & 0xFF]
                ) & mask
        else:
            for shift in _BYTE_SHIFTS_64:
                crc = (
                    (crc << 8)
                    ^ table[((crc >> top_shift) ^ (word >> shift)) & 0xFF]
                ) & mask
        self._crc = crc

    def add_words(self, words) -> None:
        """Absorb a batch of 64-bit state updates (hot-path entry point).

        The batched loop carries the CRC register in a local and hoists
        every table/mask/shift lookup out of the per-word work, so an
        interval's worth of updates costs one attribute-resolution
        preamble instead of one per word.  Bit-identical to calling
        :meth:`add_word` per element (the differential test in
        ``tests/core/test_fingerprint_batched.py`` checks both against a
        bit-serial shift-register reference).
        """
        if self._table is None:
            for word in words:
                self._add_word_narrow(word & _WORD_MASK_64)
            return
        lt = self._lt
        if lt is not None:
            mt = self._mt
            crc = self._crc
            if self.two_stage:
                if self._mt_np is not None and len(words) >= _NP_BATCH_MIN:
                    # Vectorize the space-compression stage: fold every
                    # word to its 16-bit parity in one numpy pass and
                    # gather the message contributions in one table
                    # gather; only the inherently serial register chain
                    # stays in the loop (one lookup + one XOR per word).
                    w = _np.array(
                        [word & _WORD_MASK_64 for word in words], dtype=_np.uint64
                    )
                    folded = (w ^ (w >> 16) ^ (w >> 32) ^ (w >> 48)) & _np.uint64(0xFFFF)
                    for mv in self._mt_np[folded].tolist():
                        crc = lt[crc] ^ mv
                else:
                    for word in words:
                        word &= _WORD_MASK_64
                        folded = (
                            word ^ (word >> 16) ^ (word >> 32) ^ (word >> 48)
                        ) & 0xFFFF
                        crc = lt[crc] ^ mt[folded]
            else:
                for word in words:
                    word &= _WORD_MASK_64
                    crc = lt[crc] ^ mt[word & 0xFFFF]
                    crc = lt[crc] ^ mt[(word >> 16) & 0xFFFF]
                    crc = lt[crc] ^ mt[(word >> 32) & 0xFFFF]
                    crc = lt[crc] ^ mt[(word >> 48) & 0xFFFF]
            self._crc = crc
            return
        crc = self._crc
        table = self._table
        top_shift = self._shift
        mask = self._mask
        byte_shifts = self._byte_shifts
        if self.two_stage:
            bits = self.bits
            for word in words:
                word &= _WORD_MASK_64
                folded = word & mask
                word >>= bits
                while word:
                    folded ^= word & mask
                    word >>= bits
                for shift in byte_shifts:
                    crc = (
                        (crc << 8)
                        ^ table[((crc >> top_shift) ^ (folded >> shift)) & 0xFF]
                    ) & mask
        else:
            for word in words:
                word &= _WORD_MASK_64
                for shift in _BYTE_SHIFTS_64:
                    crc = (
                        (crc << 8)
                        ^ table[((crc >> top_shift) ^ (word >> shift)) & 0xFF]
                    ) & mask
        self._crc = crc

    def _absorb(self, value: int) -> None:
        if self._table is None:
            self._crc = self._clock_bits(self._crc, value & self._mask, self.bits)
            return
        if self._lt is not None:
            self._crc = self._lt[self._crc] ^ self._mt[value & 0xFFFF]
            return
        crc = self._crc
        table = self._table
        top_shift = self._shift
        mask = self._mask
        for shift in self._byte_shifts:
            crc = (
                (crc << 8) ^ table[((crc >> top_shift) ^ (value >> shift)) & 0xFF]
            ) & mask
        self._crc = crc

    def _absorb_byte(self, byte: int) -> None:
        if self._table is None:
            self._crc = self._clock_bits(self._crc, byte & 0xFF, 8)
            return
        self._crc = (
            (self._crc << 8) ^ self._table[((self._crc >> self._shift) ^ byte) & 0xFF]
        ) & self._mask

    # -- architectural updates -----------------------------------------------
    def add_instruction(self, entry: FlatView) -> None:
        """Fold in the architectural effects of one retired instruction.

        Logically the fingerprint captures all register updates, branch
        targets, store addresses, and store values (Section 4.3).
        """
        inst = entry.inst
        words = []
        if inst.writes_reg and entry.result is not None:
            words.append(entry.result)
        if inst.is_store and entry.addr is not None:
            words.append(entry.addr)
            if entry.store_value is not None:
                words.append(entry.store_value)
        if inst.is_atomic and entry.addr is not None:
            words.append(entry.addr)
        if inst.is_control and entry.actual_next is not None:
            words.append(entry.actual_next)
        if words:
            self.add_words(words)

    def digest(self) -> int:
        return self._crc

    def reset(self) -> None:
        self._crc = 0


def fingerprint_words(words: list[int], bits: int = 16, two_stage: bool = True) -> int:
    """One-shot fingerprint of a list of update words (tests, analysis)."""
    acc = FingerprintAccumulator(bits, two_stage)
    acc.add_words(words)
    return acc.digest()
