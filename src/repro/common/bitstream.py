"""Bit-level stream writer and reader.

Every codec in the library serialises its syntax through these two classes.
Bits are written MSB-first within each byte, matching the convention of the
MPEG and H.264 bitstream specifications.

Both directions report through the :mod:`repro.errors` taxonomy
(``hdvb-lint`` rule HDVB110): a read past the end of the data raises
:class:`TruncationError`, every other misuse — a count or value that
cannot be represented, reading whole bytes while unaligned — raises
:class:`BitstreamError`, because the stream it would produce or consume
is malformed either way.  Decode loops can therefore catch
``BitstreamError`` and know they have seen *every* failure class this
layer can emit; nothing escapes as a raw ``ValueError``.
"""

from __future__ import annotations

import struct

from repro.errors import BitstreamError, TruncationError


class BitWriter:
    """Accumulates bits MSB-first and renders them as ``bytes``.

    >>> w = BitWriter()
    >>> w.write_bits(0b101, 3)
    >>> w.write_bit(1)
    >>> w.align()
    >>> w.to_bytes()
    b'\\xb0'
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._accum = 0      # bits not yet flushed to the buffer
        self._nbits = 0      # number of bits in _accum (< 8)

    def __len__(self) -> int:
        """Total number of bits written so far."""
        return 8 * len(self._buffer) + self._nbits

    @property
    def bit_position(self) -> int:
        return len(self)

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        if bit not in (0, 1):
            raise BitstreamError(f"bit must be 0 or 1, got {bit!r}")
        self._accum = (self._accum << 1) | bit
        self._nbits += 1
        if self._nbits == 8:
            self._buffer.append(self._accum)
            self._accum = 0
            self._nbits = 0

    def write_bits(self, value: int, count: int) -> None:
        """Append ``count`` bits of ``value``, most significant bit first."""
        if count < 0:
            raise BitstreamError(f"count must be non-negative, got {count}")
        # int() lifts numpy integers to Python ints so the range check is
        # exact for every count (numpy shifts are undefined at >= 64 bits).
        value = int(value)
        if value < 0 or value >> count:
            raise BitstreamError(f"value {value} does not fit in {count} bits")
        for shift in range(count - 1, -1, -1):
            self.write_bit((value >> shift) & 1)

    def write_signed(self, value: int, count: int) -> None:
        """Append ``value`` as ``count``-bit two's complement."""
        if count < 1:
            raise BitstreamError("count must be >= 1 for signed values")
        lo = -(1 << (count - 1))
        hi = (1 << (count - 1)) - 1
        if not lo <= value <= hi:
            raise BitstreamError(f"value {value} does not fit in {count} signed bits")
        self.write_bits(value & ((1 << count) - 1), count)

    def write_bytes(self, data: bytes) -> None:
        """Append whole bytes; requires byte alignment."""
        if self._nbits:
            raise BitstreamError("write_bytes requires byte alignment")
        self._buffer.extend(data)

    def align(self, fill: int = 0) -> int:
        """Pad with ``fill`` bits up to the next byte boundary.

        Returns the number of padding bits written.
        """
        padded = 0
        while self._nbits:
            self.write_bit(fill)
            padded += 1
        return padded

    def to_bytes(self) -> bytes:
        """Return the stream contents, zero-padding the final partial byte."""
        if not self._nbits:
            return bytes(self._buffer)
        tail = self._accum << (8 - self._nbits)
        return bytes(self._buffer) + bytes([tail])


#: Zero bytes kept after the data, so that a window read near the end of
#: the stream needs no bounds check: bits past the end read as zeros.
_PAD = bytes(8)
#: The 64-bit big-endian word at a byte offset of the padded data.
_WORD = struct.Struct(">Q").unpack_from
#: The widest window one word serves at every bit offset.
_WINDOW_BITS = 64 - 7


class BitReader:
    """Reads bits MSB-first from a ``bytes`` object.

    Raises :class:`TruncationError` when reading past the end of the data
    and :class:`BitstreamError` for a count that cannot be read.

    Entropy decoders look their codes up in a window of upcoming bits
    (:meth:`peek_bits`, zero-padded past the end) and then consume the
    code they found with :meth:`skip_code`, which owns the rule for a
    code that runs past the end of the data; :meth:`read_prefix` does
    both for a unary prefix.
    """

    def __init__(self, data: bytes) -> None:
        self._data = bytes(data) + _PAD
        self._end = 8 * (len(self._data) - len(_PAD))  # bits of real data
        self._pos = 0  # bit position

    @property
    def bit_position(self) -> int:
        return self._pos

    @property
    def bits_remaining(self) -> int:
        return self._end - self._pos

    def at_end(self) -> bool:
        return self._pos >= self._end

    def read_bit(self) -> int:
        pos = self._pos
        if pos >= self._end:
            raise TruncationError("read past end of bitstream")
        self._pos = pos + 1
        return (self._data[pos >> 3] >> (7 - (pos & 7))) & 1

    def read_bits(self, count: int) -> int:
        """Read ``count`` bits, MSB first, returned as an unsigned int.

        A read past the end raises :class:`TruncationError` and leaves the
        position unchanged.
        """
        if count <= 0:
            if count:
                raise BitstreamError(f"count must be non-negative, got {count}")
            return 0
        position = self._pos
        end = position + count
        if end > self._end:
            raise TruncationError(
                f"requested {count} bits but only {self._end - position} remain"
            )
        self._pos = end
        if count <= _WINDOW_BITS:
            word = _WORD(self._data, position >> 3)[0]
            return (word >> (64 - (position & 7) - count)) & ((1 << count) - 1)
        chunk = int.from_bytes(self._data[position >> 3 : (end + 7) >> 3], "big")
        return (chunk >> (-end & 7)) & ((1 << count) - 1)

    def read_signed(self, count: int) -> int:
        """Read a ``count``-bit two's-complement value."""
        if count < 1:
            raise BitstreamError("count must be >= 1 for signed values")
        raw = self.read_bits(count)
        if raw >= 1 << (count - 1):
            raw -= 1 << count
        return raw

    def peek_bits(self, count: int) -> int:
        """The next ``count`` bits, without consuming them.

        Bits beyond the end of the stream are returned as zeros, so a
        table lookup near the stream tail needs no special case; consuming
        them still raises (see :meth:`skip_code`).
        """
        position = self._pos
        if 0 <= count <= _WINDOW_BITS:
            word = _WORD(self._data, position >> 3)[0]
            return (word >> (64 - (position & 7) - count)) & ((1 << count) - 1)
        if count < 0:
            raise BitstreamError(f"count must be non-negative, got {count}")
        # Wider than one word: pad this window explicitly.
        end = position + count
        first, last = position >> 3, (end + 7) >> 3
        window = self._data[first:last].ljust(last - first, b"\x00")
        return (int.from_bytes(window, "big") >> (-end & 7)) & ((1 << count) - 1)

    def read_prefix(self, limit: int) -> int:
        """Read a unary prefix: the number of zeros before the next one bit.

        The zeros are counted with ``int.bit_length()`` in one
        ``limit``-bit window (the :meth:`peek_bits` window, ``limit`` at
        most 57), and the zeros and the one bit are consumed.  A window
        with no one bit is a prefix of ``limit`` or more zeros: those
        ``limit`` zeros are consumed and ``limit`` is returned, and a
        stream that ends inside them raises :class:`TruncationError` at
        the end of the data, as reading them one bit at a time would.
        """
        if not 0 < limit <= _WINDOW_BITS:
            raise BitstreamError(f"prefix window must be 1..{_WINDOW_BITS} bits, got {limit}")
        position = self._pos
        word = _WORD(self._data, position >> 3)[0]
        zeros = limit - ((word >> (64 - (position & 7) - limit)) & ((1 << limit) - 1)).bit_length()
        if zeros == limit:
            self.skip_code(limit)
        else:
            self._pos = position + zeros + 1
        return zeros

    def skip_code(self, length: int) -> None:
        """Consume a ``length``-bit code found by a window lookup.

        A code that runs past the end of the data moves the position to
        the end and raises :class:`TruncationError`, exactly as reading it
        one bit at a time would.
        """
        end = self._pos + length
        if end > self._end:
            self._pos = self._end
            raise TruncationError("read past end of bitstream")
        self._pos = end

    def skip_bits(self, count: int) -> None:
        if count < 0:
            raise BitstreamError(f"count must be non-negative, got {count}")
        if count > self._end - self._pos:
            raise TruncationError("skip past end of bitstream")
        self._pos += count

    def align(self) -> int:
        """Advance to the next byte boundary; returns bits skipped.

        Bounds-checked like :meth:`skip_bits`: aligning past the end of the
        data raises instead of leaving the reader positioned out of range.
        """
        skip = (8 - (self._pos & 7)) & 7
        if skip > self._end - self._pos:
            raise TruncationError("align past end of bitstream")
        self._pos += skip
        return skip

    def read_bytes(self, count: int) -> bytes:
        """Read whole bytes; requires byte alignment."""
        if count < 0:
            raise BitstreamError(f"count must be non-negative, got {count}")
        if self._pos & 7:
            raise BitstreamError("read_bytes requires byte alignment")
        start = self._pos >> 3
        if 8 * (start + count) > self._end:
            raise TruncationError("read past end of bitstream")
        self._pos += 8 * count
        return self._data[start : start + count]
