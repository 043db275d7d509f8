"""Differential oracle for the table-driven entropy decoders.

The VLC, Exp-Golomb and CAVLC readers look codes up in a window of
upcoming bits.  The reference below is the bit-serial decoder they
replaced, copied verbatim (with a bit-serial reader of its own), and is
the definition of correct: on every byte string and every start offset,
both must return the same value and end position, or fail with the same
error class at the same ``bit_position``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.codecs.h264 import cavlc
from repro.codecs.huffman import VlcTable
from repro.codecs.mjpeg import tables as mjpeg_tables
from repro.codecs.mpeg2 import tables as mpeg2_tables
from repro.codecs.mpeg4 import tables as mpeg4_tables
from repro.codecs.vc1 import tables as vc1_tables
from repro.common import expgolomb
from repro.common.bitstream import BitReader, BitWriter
from repro.errors import BitstreamError, ReproError, TruncationError


# -- the bit-serial reference ------------------------------------------------


class SerialReader:
    """The bit reader the serial decoders ran on."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    @property
    def bit_position(self) -> int:
        return self._pos

    @property
    def bits_remaining(self) -> int:
        return 8 * len(self._data) - self._pos

    def read_bit(self) -> int:
        if self._pos >= 8 * len(self._data):
            raise TruncationError("read past end of bitstream")
        byte = self._data[self._pos >> 3]
        bit = (byte >> (7 - (self._pos & 7))) & 1
        self._pos += 1
        return bit

    def read_bits(self, count: int) -> int:
        if count < 0:
            raise BitstreamError(f"count must be non-negative, got {count}")
        if count == 0:
            return 0
        if count > self.bits_remaining:
            raise TruncationError(
                f"requested {count} bits but only {self.bits_remaining} remain")
        position = self._pos
        end = position + count
        start_byte = position >> 3
        end_byte = (end + 7) >> 3
        chunk = int.from_bytes(self._data[start_byte:end_byte], "big")
        shift = 8 * (end_byte - start_byte) - (end - 8 * start_byte)
        self._pos = end
        return (chunk >> shift) & ((1 << count) - 1)


def serial_vlc_read(table: VlcTable, reader):
    decode = {code: symbol for symbol, code in table._encode.items()}
    value = 0
    for length in range(1, table.max_length + 1):
        value = (value << 1) | reader.read_bit()
        symbol = decode.get((value, length))
        if symbol is not None:
            return symbol
    raise BitstreamError(f"{table.name}: invalid code in bitstream")


def serial_read_ue(reader) -> int:
    zeros = 0
    while reader.read_bit() == 0:
        zeros += 1
    value = 1 << zeros
    if zeros:
        value |= reader.read_bits(zeros)
    return value - 1


def serial_read_se(reader) -> int:
    k = serial_read_ue(reader)
    magnitude = (k + 1) >> 1
    return magnitude if k & 1 else -magnitude


def serial_read_rice(reader, k: int) -> int:
    quotient = 0
    while reader.read_bit() == 0:
        quotient += 1
        if quotient > cavlc._ESCAPE_PREFIX:
            raise BitstreamError("runaway Rice prefix")
    if quotient == cavlc._ESCAPE_PREFIX:
        return (cavlc._ESCAPE_PREFIX << k) + reader.read_bits(cavlc._ESCAPE_BITS)
    remainder = reader.read_bits(k) if k else 0
    return (quotient << k) | remainder


def serial_read_truncated(reader, maximum: int) -> int:
    if maximum == 0:
        return 0
    n = maximum + 1
    length = (n - 1).bit_length()
    unused = (1 << length) - n
    value = reader.read_bits(length - 1)
    if value < unused:
        return value
    value = (value << 1) | reader.read_bit()
    return value - unused


def serial_decode_block(reader, n: int, nc: int):
    k = cavlc._rice_param_from_nc(nc)
    total_coeff = serial_read_rice(reader, k)
    if total_coeff > n:
        raise BitstreamError(f"TotalCoeff {total_coeff} exceeds block size {n}")
    scanned = [0] * n
    if total_coeff == 0:
        return scanned, 0
    trailing = reader.read_bits(2)
    if trailing > total_coeff:
        raise BitstreamError("TrailingOnes exceeds TotalCoeff")
    levels_reverse = []
    for _ in range(trailing):
        levels_reverse.append(-1 if reader.read_bit() else 1)
    suffix_length = 1 if total_coeff > 10 and trailing < 3 else 0
    for position in range(total_coeff - trailing):
        level_code = serial_read_rice(reader, suffix_length)
        if position == 0 and trailing < cavlc.MAX_TRAILING_ONES:
            level_code += 2
        magnitude = (level_code >> 1) + 1
        value = -magnitude if level_code & 1 else magnitude
        levels_reverse.append(value)
        if suffix_length == 0:
            suffix_length = 1
        if abs(value) > (3 << (suffix_length - 1)) and suffix_length < 6:
            suffix_length += 1
    if total_coeff < n:
        total_zeros = serial_read_truncated(reader, n - total_coeff)
    else:
        total_zeros = 0
    index = total_coeff + total_zeros - 1
    zeros_left = total_zeros
    for position, value in enumerate(levels_reverse):
        if index < 0:
            raise BitstreamError("coefficient placement underflow")
        scanned[index] = value
        if position == total_coeff - 1:
            break
        run_before = serial_read_truncated(reader, zeros_left) if zeros_left > 0 else 0
        zeros_left -= run_before
        index -= run_before + 1
    return scanned, total_coeff


# -- the comparison ----------------------------------------------------------


def outcome(read, reader):
    """(value, end position), or (error class, bit_position)."""
    try:
        value = read(reader)
    except ReproError as error:
        return type(error), reader.bit_position
    return value, reader.bit_position


def assert_same_at(data: bytes, start: int, table_read, serial_read):
    fast, serial = BitReader(data), SerialReader(data)
    fast.skip_bits(start)
    serial._pos = start
    assert outcome(table_read, fast) == outcome(serial_read, serial), (
        f"data={data.hex()} start={start}")


def assert_same(data: bytes, table_read, serial_read):
    """Both readers agree from every start offset of ``data``."""
    for start in range(8 * len(data) + 1):
        assert_same_at(data, start, table_read, serial_read)


def one_symbol_table():
    return VlcTable.from_frequencies({"only": 1.0}, name="one-symbol")


def incomplete_long_table():
    # '0', '10' and one 12-bit code: most windows behind '11' match nothing,
    # and that miss happens in a sub-table.
    return VlcTable({"a": (0, 1), "b": (0b10, 2), "c": (0b110101010101, 12)},
                    name="incomplete")


TABLES = {
    table.name: table
    for table in (
        mpeg2_tables.COEFF_TABLE, mpeg2_tables.CBP_TABLE,
        mpeg2_tables.MB_P_TABLE, mpeg2_tables.MB_B_TABLE,
        mpeg4_tables.COEFF3D_TABLE, mpeg4_tables.CBP_TABLE,
        mpeg4_tables.MB_P_TABLE, mpeg4_tables.MB_B_TABLE,
        vc1_tables.COEFF_TABLE, vc1_tables.CBP_TABLE,
        vc1_tables.MB_P_TABLE, vc1_tables.MB_B_TABLE,
        mjpeg_tables.AC_TABLE, mjpeg_tables.DC_TABLE,
        one_symbol_table(), incomplete_long_table(),
    )
}

#: Random, all-zero, all-one and sparse byte strings of 0-8 bytes: the
#: sparse ones reach long codes, long unary prefixes and escapes.
streams = st.one_of(
    st.binary(max_size=8),
    st.integers(0, 8).map(bytes),
    st.integers(0, 8).map(lambda n: b"\xff" * n),
    st.lists(st.sampled_from([0x00, 0x00, 0x00, 0x01, 0x80, 0x10, 0xff]),
             max_size=8).map(bytes),
)


def test_sixteen_tables_with_long_codes():
    assert len(TABLES) == 16
    assert max(table.max_length for table in TABLES.values()) == 30


@pytest.mark.parametrize("name", sorted(TABLES))
@settings(max_examples=60, deadline=None)
@given(data=streams)
def test_vlc_read_matches_serial(name, data):
    table = TABLES[name]
    assert_same(data, table.read, lambda reader: serial_vlc_read(table, reader))


@pytest.mark.parametrize("name", sorted(TABLES))
def test_every_code_at_the_stream_tail(name):
    """Each code, whole and cut short, as the last bits of the data."""
    table = TABLES[name]
    for value, length in table._encode.values():
        for cut in range(length + 1):
            kept = length - cut
            data = (value >> cut).to_bytes((kept + 7) // 8, "big")
            assert_same_at(data, 8 * len(data) - kept, table.read,
                           lambda reader: serial_vlc_read(table, reader))


@settings(max_examples=300, deadline=None)
@given(data=streams)
def test_exp_golomb_matches_serial(data):
    assert_same(data, expgolomb.read_ue, serial_read_ue)
    assert_same(data, expgolomb.read_se, serial_read_se)


@pytest.mark.parametrize("zeros", [15, 16, 31, 32, 33, 40, 64])
def test_exp_golomb_long_prefixes(zeros):
    for suffix_bits in (0, zeros // 2, zeros):
        value = 1 << suffix_bits  # marker then a zero suffix
        total = zeros + 1 + suffix_bits
        data = (value << (8 * ((total + 7) // 8) - total)).to_bytes((total + 7) // 8, "big")
        assert_same(data, expgolomb.read_ue, serial_read_ue)


@pytest.mark.parametrize("k", range(7))
@settings(max_examples=80, deadline=None)
@given(data=streams)
def test_rice_matches_serial(k, data):
    assert_same(data, lambda reader: cavlc._read_rice(reader, k),
                lambda reader: serial_read_rice(reader, k))


@pytest.mark.parametrize("maximum", range(18))
@settings(max_examples=40, deadline=None)
@given(data=streams)
def test_truncated_matches_serial(maximum, data):
    assert_same(data, lambda reader: cavlc._read_truncated(reader, maximum),
                lambda reader: serial_read_truncated(reader, maximum))


@pytest.mark.parametrize("n", [4, 8, 15, 16])
@pytest.mark.parametrize("nc", [0, 2, 5, 9])
@settings(max_examples=60, deadline=None)
@given(data=streams)
def test_decode_block_matches_serial(n, nc, data):
    coder = cavlc.CavlcCoder()
    assert_same(data, lambda reader: coder.decode_block(reader, n, nc),
                lambda reader: serial_decode_block(reader, n, nc))


@pytest.mark.parametrize("n", [4, 16])
@settings(max_examples=60, deadline=None)
@given(levels=st.lists(st.integers(-40, 40), min_size=16, max_size=16),
       nc=st.integers(0, 16))
def test_decode_block_on_coded_blocks_and_their_prefixes(n, levels, nc):
    """Real CAVLC blocks (random ones rarely parse), whole and truncated."""
    writer = BitWriter()
    cavlc.CavlcCoder().encode_block(writer, levels[:n], nc)
    data = writer.to_bytes()
    coder = cavlc.CavlcCoder()
    for keep in range(len(data) + 1):
        assert_same(data[:keep], lambda reader: coder.decode_block(reader, n, nc),
                    lambda reader: serial_decode_block(reader, n, nc))
