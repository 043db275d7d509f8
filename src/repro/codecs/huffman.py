"""Deterministic Huffman construction and VLC tables.

The MPEG-2 and MPEG-4 class codecs use static variable-length codes for
coefficient events, coded block patterns and macroblock modes.  Rather than
copying the ISO code tables verbatim, each codec declares a *prior*
(expected symbol frequencies) and builds a canonical Huffman code from it
at import time; see the bitstream note in DESIGN.md.  The construction is
fully deterministic, so encoder and decoder always agree.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, List, Mapping, Tuple

from repro.common.bitstream import BitReader, BitWriter
from repro.errors import BitstreamError, ConfigError

Symbol = Hashable
Code = Tuple[int, int]  # (value, length)


def huffman_code_lengths(frequencies: Mapping[Symbol, float]) -> Dict[Symbol, int]:
    """Huffman code length per symbol, deterministic under ties."""
    if not frequencies:
        raise ConfigError("cannot build a Huffman code over no symbols")
    if len(frequencies) == 1:
        return {symbol: 1 for symbol in frequencies}
    # Heap entries: (frequency, creation order, symbols-in-subtree)
    heap: List[Tuple[float, int, List[Symbol]]] = []
    order = 0
    for symbol in sorted(frequencies, key=repr):
        freq = frequencies[symbol]
        if freq <= 0:
            raise ConfigError(f"frequency for {symbol!r} must be positive")
        heap.append((freq, order, [symbol]))
        order += 1
    heapq.heapify(heap)
    lengths = {symbol: 0 for symbol in frequencies}
    while len(heap) > 1:
        freq_a, _, symbols_a = heapq.heappop(heap)
        freq_b, _, symbols_b = heapq.heappop(heap)
        merged = symbols_a + symbols_b
        for symbol in merged:
            lengths[symbol] += 1
        heapq.heappush(heap, (freq_a + freq_b, order, merged))
        order += 1
    return lengths


def canonical_codes(lengths: Mapping[Symbol, int]) -> Dict[Symbol, Code]:
    """Canonical code assignment from code lengths (shortest first)."""
    ordered = sorted(lengths.items(), key=lambda item: (item[1], repr(item[0])))
    codes: Dict[Symbol, Code] = {}
    code = 0
    previous_length = 0
    for symbol, length in ordered:
        code <<= length - previous_length
        codes[symbol] = (code, length)
        code += 1
        previous_length = length
    return codes


#: Window width of each lookup level: the first level resolves every code
#: of up to this many bits, longer codes continue in sub-tables.
LEVEL_BITS = 8

#: A slot no code reaches.
_NO_CODE: Tuple[int, object] = (0, None)


class VlcTable:
    """A static prefix-free code over a symbol alphabet.

    Decoding is table driven.  Each level of the lookup is a list indexed
    by the next ``LEVEL_BITS`` (or fewer) bits of the stream; a slot holds
    ``(length, symbol)`` for the code that window starts with, where
    ``length`` counts from the start of the code, or ``(0, level)`` for a
    sub-table that resolves longer codes.
    """

    def __init__(self, codes: Mapping[Symbol, Code], name: str = "") -> None:
        self.name = name
        self._encode: Dict[Symbol, Code] = dict(codes)
        for symbol, (value, length) in self._encode.items():
            if length <= 0:
                raise ConfigError(f"{name}: zero-length code for {symbol!r}")
            if not 0 <= value < 1 << length:
                raise ConfigError(f"{name}: code for {symbol!r} does not fit {length} bits")
        self.max_length = max(length for _, length in self._encode.values())
        self._root_bits, _, self._root = self._level(
            [(value, length, symbol) for symbol, (value, length) in self._encode.items()], 0)

    def _level(self, codes: List[Tuple[int, int, Symbol]], consumed: int) -> Tuple[int, int, list]:
        """One lookup level for codes whose first ``consumed`` bits are known.

        Returns ``(window, mask, slots)``: the level is indexed by the low
        ``mask`` bits of a ``window``-bit peek.  A slot written twice means
        one code is a prefix of another (or a duplicate of it).
        """
        bits = min(LEVEL_BITS, max(length for _, length, _ in codes) - consumed)
        slots: list = [_NO_CODE] * (1 << bits)
        longer: Dict[int, List[Tuple[int, int, Symbol]]] = {}
        for value, length, symbol in codes:
            rest = length - consumed
            if rest > bits:
                longer.setdefault((value >> (rest - bits)) & ((1 << bits) - 1), []).append(
                    (value, length, symbol))
                continue
            first = (value & ((1 << rest) - 1)) << (bits - rest)
            for slot in range(first, first + (1 << (bits - rest))):
                if slots[slot] is not _NO_CODE:
                    raise ConfigError(f"{self.name}: code table is not prefix free")
                slots[slot] = (length, symbol)
        for slot, group in longer.items():
            if slots[slot] is not _NO_CODE:
                raise ConfigError(f"{self.name}: code table is not prefix free")
            slots[slot] = (0, self._level(group, consumed + bits))
        return consumed + bits, (1 << bits) - 1, slots

    @classmethod
    def from_frequencies(cls, frequencies: Mapping[Symbol, float], name: str = "") -> "VlcTable":
        return cls(canonical_codes(huffman_code_lengths(frequencies)), name=name)

    def __len__(self) -> int:
        return len(self._encode)

    def __contains__(self, symbol: Symbol) -> bool:
        return symbol in self._encode

    def bits(self, symbol: Symbol) -> int:
        """Code length of ``symbol`` (for rate estimation)."""
        return self._encode[symbol][1]

    def write(self, writer: BitWriter, symbol: Symbol) -> None:
        try:
            value, length = self._encode[symbol]
        except KeyError:
            raise BitstreamError(f"{self.name}: symbol {symbol!r} has no code") from None
        writer.write_bits(value, length)

    def read(self, reader: BitReader) -> Symbol:
        """Decode one symbol: one window peek per lookup level.

        A code that runs past the end of the data raises
        :class:`TruncationError` at the end of the data.  A window no code
        matches raises :class:`BitstreamError` after ``max_length`` bits,
        or :class:`TruncationError` at the end of the data when fewer bits
        remain (only an incomplete table, such as a one-symbol one, has
        such windows).
        """
        length, found = self._root[reader.peek_bits(self._root_bits)]
        while not length:
            if found is None:
                reader.skip_code(self.max_length)
                raise BitstreamError(f"{self.name}: invalid code in bitstream")
            window, mask, slots = found
            length, found = slots[reader.peek_bits(window) & mask]
        reader.skip_code(length)
        return found


def geometric(probability: float, value: int) -> float:
    """Unnormalised geometric prior p * (1-p)^value; used to build tables."""
    return probability * (1.0 - probability) ** value
