#!/usr/bin/env python3
"""Turn a v2 trace recorded with --block-records 1 into a CRC-valid
trace whose trailer claims 2^24 records per block.

usage: plant_oversized_trace.py SRC DST

Meta, index and trailer stay mutually consistent and the index CRC is
recomputed, so only a bound on the record count by the file's block
bytes rejects DST.  A 1000-block source claims 1000 * 2^24 records.
"""
import struct
import sys
import zlib

BLOCK_RECORDS = 1 << 24  # trace::MaxBlockRecords
META_AT = 64             # after the fixed TraceHeader
ENTRY_BYTES = 304        # sizeof(trace::v2::IndexEntry)

data = bytearray(open(sys.argv[1], "rb").read())
struct.pack_into("<I", data, META_AT, BLOCK_RECORDS)
trailer_at = len(data) - 32
index_at, = struct.unpack_from("<Q", data, trailer_at)
count, = struct.unpack_from("<Q", data, index_at + 8)
entries_at = index_at + 16
for b in range(count):
    # IndexEntry.firstRecord sits after the 8-byte block offset.
    struct.pack_into("<Q", data, entries_at + b * ENTRY_BYTES + 8,
                     b * BLOCK_RECORDS)
crc = zlib.crc32(data[entries_at:entries_at + count * ENTRY_BYTES])
struct.pack_into("<QI", data, trailer_at + 8, count * BLOCK_RECORDS, crc)
open(sys.argv[2], "wb").write(data)
