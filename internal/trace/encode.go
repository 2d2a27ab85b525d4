package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/sim"
)

// Binary trace file format: a magic header followed by fixed-width
// little-endian event records. This mirrors the kernel module from §4.2
// that dumps the in-memory global array to a file for offline plotting.
//
// Version history:
//
//	v1: 16-byte header — magic(4) version(2) reserved(2) count(8);
//	    48-byte records — at(8) kind op code pad cpu(4) arg(8) aux(8)
//	    mask(16)
//	v2: 24-byte header — v1 plus dropped(8), the recorder's lost-event
//	    count, so offline consumers can tell a complete capture from a
//	    truncated one (drops were silent in v1 files)
//	v3: 52-byte records — v2's plus dst(4) after cpu. v1 and v2
//	    records carry a migration's destination and a moved balance's
//	    thread count in aux; ReadMeta copies them into Dst.
const (
	fileMagic     = "WCTR"
	fileVersion   = uint16(3)
	recordSize    = 8 + 1 + 1 + 1 + 1 + 4 + 4 + 8 + 8 + 16 // = 52 bytes
	recordSizeOld = recordSize - 4                         // v1 and v2
)

// Meta is the non-event information carried by a binary trace file.
type Meta struct {
	// Version is the file format version the trace was read from.
	Version uint16
	// Dropped is the recorder's lost-event count at write time (always
	// zero when reading a v1 file, which did not record it).
	Dropped uint64
}

// WriteTo serializes all recorded events to w in the binary trace format
// (current version, including the dropped-event count). It returns the
// number of bytes written.
func (r *Recorder) WriteTo(w io.Writer) (int64, error) {
	events := r.Events()
	bw := bufio.NewWriter(w)
	var n int64
	hdr := make([]byte, 0, 24)
	hdr = append(hdr, fileMagic...)
	hdr = binary.LittleEndian.AppendUint16(hdr, fileVersion)
	hdr = binary.LittleEndian.AppendUint16(hdr, 0) // reserved
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(events)))
	hdr = binary.LittleEndian.AppendUint64(hdr, r.Dropped())
	k, err := bw.Write(hdr)
	n += int64(k)
	if err != nil {
		return n, err
	}
	buf := make([]byte, 0, recordSize)
	for i := range events {
		ev := &events[i]
		buf = buf[:0]
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ev.At))
		buf = append(buf, byte(ev.Kind), byte(ev.Op), ev.Code, 0)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(ev.CPU))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(ev.Dst))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ev.Arg))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ev.Aux))
		buf = binary.LittleEndian.AppendUint64(buf, ev.Mask[0])
		buf = binary.LittleEndian.AppendUint64(buf, ev.Mask[1])
		k, err = bw.Write(buf)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// Read parses a binary trace previously produced by WriteTo, discarding
// file metadata. See ReadMeta.
func Read(rd io.Reader) ([]Event, error) {
	events, _, err := ReadMeta(rd)
	return events, err
}

// ReadMeta parses a binary trace previously produced by WriteTo,
// returning the events and the file metadata (format version and the
// recorder's dropped-event count). v1, v2 and v3 files are accepted. A
// record of an unknown kind, or whose CPU (or, for the kinds whose Dst
// is a core, Dst) lies outside [0, MaskBits), is an error naming the
// record: consumers index per-core state by those fields.
func ReadMeta(rd io.Reader) ([]Event, Meta, error) {
	var meta Meta
	br := bufio.NewReader(rd)
	hdr := make([]byte, 16)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, meta, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(hdr[:4]) != fileMagic {
		return nil, meta, fmt.Errorf("trace: bad magic %q", hdr[:4])
	}
	meta.Version = binary.LittleEndian.Uint16(hdr[4:6])
	if meta.Version < 1 || meta.Version > fileVersion {
		return nil, meta, fmt.Errorf("trace: unsupported version %d", meta.Version)
	}
	count := binary.LittleEndian.Uint64(hdr[8:16])
	if meta.Version >= 2 {
		var ext [8]byte
		if _, err := io.ReadFull(br, ext[:]); err != nil {
			return nil, meta, fmt.Errorf("trace: reading v2 header: %w", err)
		}
		meta.Dropped = binary.LittleEndian.Uint64(ext[:])
	}
	const sane = 1 << 28
	if count > sane {
		return nil, meta, fmt.Errorf("trace: implausible event count %d", count)
	}
	old := meta.Version < 3
	size := recordSize
	if old {
		size = recordSizeOld
	}
	// The header's count is untrusted: grow toward it as records arrive.
	events := make([]Event, 0, min(count, 1<<16))
	buf := make([]byte, size)
	le := binary.LittleEndian
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, meta, fmt.Errorf("trace: reading event %d: %w", i, err)
		}
		var ev Event
		ev.At = sim.Time(le.Uint64(buf[0:8]))
		ev.Kind = Kind(buf[8])
		ev.Op = Op(buf[9])
		ev.Code = buf[10]
		ev.CPU = int32(le.Uint32(buf[12:16]))
		rest := buf[16:]
		if !old {
			ev.Dst = int32(le.Uint32(rest[0:4]))
			rest = rest[4:]
		}
		ev.Arg = int64(le.Uint64(rest[0:8]))
		ev.Aux = int64(le.Uint64(rest[8:16]))
		ev.Mask[0] = le.Uint64(rest[16:24])
		ev.Mask[1] = le.Uint64(rest[24:32])
		if old && (ev.Kind == KindMigration || ev.Kind == KindBalance && Verdict(ev.Code) == VerdictMoved) {
			// Clamped, not truncated: an out-of-range destination stays
			// out of range for validate.
			ev.Dst = int32(min(max(ev.Aux, -1), math.MaxInt32))
		}
		if err := validate(&ev); err != nil {
			return nil, meta, fmt.Errorf("trace: event %d: %w", i, err)
		}
		events = append(events, ev)
	}
	return events, meta, nil
}

// validate checks the fields consumers index by.
func validate(ev *Event) error {
	if ev.Kind >= numKinds {
		return fmt.Errorf("unknown kind %d", uint8(ev.Kind))
	}
	if ev.CPU < 0 || ev.CPU >= MaskBits {
		return fmt.Errorf("%s cpu %d outside [0,%d)", ev.Kind, ev.CPU, MaskBits)
	}
	if ev.Kind.dstIsCore() && (ev.Dst < 0 || ev.Dst >= MaskBits) {
		return fmt.Errorf("%s dst %d outside [0,%d)", ev.Kind, ev.Dst, MaskBits)
	}
	return nil
}
