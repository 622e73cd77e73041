package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

const (
	// maxRecordBytes rejects absurd record lengths, which on the last
	// segment indicates a torn tail rather than corruption.
	maxRecordBytes = 64 << 20
	recordHeader   = 8  // length + crc
	entryFixedSize = 24 // seq + origin + logicalID + payload length
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errTorn marks a record cut short at the end of the newest segment — the
// expected shape of a crash mid-append, healed by truncation.
var errTorn = errors.New("wal: torn tail")

// errStale marks a whole record a recycled file kept from an earlier life:
// the segment's live bytes end where it starts (see the package comment).
var errStale = errors.New("wal: stale record")

// writeChainLocked opens the (empty) active segment with its chain record:
// seq 0, logicalID = the highest seq recorded before it, payload = the
// segment's base (see the package comment). It is batched, and reaches the
// disk with the segment's first entries; a crash that loses it loses them
// too, and Open starts the segment over (openActive).
func (l *Log) writeChainLocked() error {
	base := l.segs[len(l.segs)-1].base
	return l.writeRecordLocked(Entry{LogicalID: l.lastSeq, Payload: binary.LittleEndian.AppendUint64(nil, base)})
}

// chainBase returns the base a chain record names. A chain record an older
// build wrote names none.
func chainBase(e Entry) (uint64, bool) {
	if len(e.Payload) != 8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(e.Payload), true
}

// appendRecord frames one entry onto buf.
func appendRecord(buf []byte, e Entry) []byte {
	bodyLen := entryFixedSize + len(e.Payload)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(bodyLen))
	crcAt := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // crc placeholder
	bodyAt := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, e.Seq)
	buf = binary.LittleEndian.AppendUint32(buf, e.Origin)
	buf = binary.LittleEndian.AppendUint64(buf, e.LogicalID)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.Payload)))
	buf = append(buf, e.Payload...)
	binary.LittleEndian.PutUint32(buf[crcAt:], crc32.Checksum(buf[bodyAt:], crcTable))
	return buf
}

// scanRecords streams every intact record of one segment from byte offset
// off up to byte offset end (to the end of the file if end is negative) to
// fn. It returns the offset, relative to off, of the end of the last intact
// record; a short or corrupt tail is reported as errTorn (the caller
// decides whether that is legal), any error from fn is passed through.
func scanRecords(f File, off, end int64, fn func(Entry) error) (int64, error) {
	if off > 0 {
		if _, err := f.Seek(off, io.SeekStart); err != nil {
			return 0, fmt.Errorf("wal: %w", err)
		}
	}
	r := bufio.NewReader(f)
	var valid int64
	hdr := make([]byte, recordHeader)
	var body []byte
	for {
		if end >= 0 && off+valid >= end {
			return valid, nil
		}
		if _, err := io.ReadFull(r, hdr); err != nil {
			if errors.Is(err, io.EOF) {
				return valid, nil
			}
			return valid, errTorn // io.ErrUnexpectedEOF: partial header
		}
		length := binary.LittleEndian.Uint32(hdr)
		crc := binary.LittleEndian.Uint32(hdr[4:])
		if length < entryFixedSize || length > maxRecordBytes {
			return valid, errTorn
		}
		if cap(body) < int(length) {
			body = make([]byte, length)
		}
		body = body[:length]
		if _, err := io.ReadFull(r, body); err != nil {
			return valid, errTorn
		}
		if crc32.Checksum(body, crcTable) != crc {
			return valid, errTorn
		}
		var e Entry
		e.Seq = binary.LittleEndian.Uint64(body)
		e.Origin = binary.LittleEndian.Uint32(body[8:])
		e.LogicalID = binary.LittleEndian.Uint64(body[12:])
		plen := binary.LittleEndian.Uint32(body[20:])
		if int(plen) != len(body)-entryFixedSize {
			return valid, errTorn
		}
		e.Payload = slices.Clone(body[entryFixedSize:])
		if err := fn(e); err != nil {
			return valid, err
		}
		valid += recordHeader + int64(length)
	}
}
