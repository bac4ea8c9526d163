package mat

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Aligned matrix format ("OMXA"): the snapshot-oriented extension of the
// OMX1 convention (io.go). The header is
//
//	magic  [4]byte  "OMXA"
//	rows   uint64
//	cols   uint64
//	pad    uint8
//
// followed by `pad` zero bytes and then rows*cols little-endian float64
// values in row-major order. pad is chosen by the writer so that, given the
// absolute stream offset the record starts at, the float64 payload begins on
// an 8-byte boundary of the enclosing file. A reader that maps the snapshot
// file can therefore point a []float64 view directly at the payload — the
// flat, mmap-friendly layout the persistence layer stores every matrix in.
// The stream readers below still copy into fresh backing (the Load aliasing
// rule: decoded state never aliases reader scratch); alignment is for
// future zero-copy mappers and costs at most 7 bytes per matrix.
const alignedMagic = "OMXA"

// alignedHeaderSize is the fixed prefix before the pad bytes.
const alignedHeaderSize = 4 + 8 + 8 + 1

// AlignedSize returns the encoded size of m written at absolute stream
// offset base.
func AlignedSize(m *Matrix, base int64) int64 {
	return int64(alignedHeaderSize) + int64(alignedPad(base)) + 8*int64(len(m.data))
}

// alignedPad returns the pad length placing the payload of a record starting
// at absolute offset base on an 8-byte boundary.
func alignedPad(base int64) int {
	return int((8 - (base+int64(alignedHeaderSize))%8) % 8)
}

// WriteBinaryAligned writes m to w in the OMXA format, assuming the record
// starts at absolute stream offset base. It returns the number of bytes
// written.
func WriteBinaryAligned(w io.Writer, m *Matrix, base int64) (int64, error) {
	pad := alignedPad(base)
	hdr := make([]byte, alignedHeaderSize+pad)
	copy(hdr, alignedMagic)
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(m.rows))
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(m.cols))
	hdr[20] = byte(pad)
	if _, err := w.Write(hdr); err != nil {
		return 0, err
	}
	written := int64(len(hdr))
	buf := make([]byte, 8*4096)
	for lo := 0; lo < len(m.data); lo += 4096 {
		hi := lo + 4096
		if hi > len(m.data) {
			hi = len(m.data)
		}
		for i, v := range m.data[lo:hi] {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		n, err := w.Write(buf[:8*(hi-lo)])
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// ReadBinaryAligned decodes one OMXA record from the front of data (the
// in-memory section payload the persistence layer hands it) and returns the
// matrix plus the number of bytes consumed. The matrix owns fresh backing —
// it never aliases data — and every header field is validated against the
// bytes actually present, so truncated or corrupted records return an error
// rather than panicking or over-allocating.
func ReadBinaryAligned(data []byte) (*Matrix, int, error) {
	if len(data) < alignedHeaderSize {
		return nil, 0, fmt.Errorf("mat: aligned record truncated at %d header bytes", len(data))
	}
	if string(data[:4]) != alignedMagic {
		return nil, 0, fmt.Errorf("mat: bad aligned magic %q, want %q", data[:4], alignedMagic)
	}
	rows := binary.LittleEndian.Uint64(data[4:12])
	cols := binary.LittleEndian.Uint64(data[12:20])
	pad := int(data[20])
	if pad > 7 {
		return nil, 0, fmt.Errorf("mat: aligned pad %d out of range", pad)
	}
	const maxElems = 1 << 34 // mirrors ReadBinary's corrupt-header guard
	if rows > maxElems || cols > maxElems || (cols != 0 && rows > maxElems/cols) {
		return nil, 0, fmt.Errorf("mat: unreasonable dimensions %dx%d", rows, cols)
	}
	elems := int(rows * cols)
	need := alignedHeaderSize + pad + 8*elems
	// The payload must physically fit in the bytes present: a corrupt count
	// cannot force an allocation larger than the input that claimed it.
	if len(data) < need {
		return nil, 0, fmt.Errorf("mat: aligned record wants %d bytes, have %d", need, len(data))
	}
	m := New(int(rows), int(cols))
	decodeFloat64s(m.data, data[alignedHeaderSize+pad:need])
	return m, need, nil
}

// decodeFloat64s fills dst from len(src)/8 little-endian float64 bit
// patterns (the caller sizes src to exactly 8*len(dst)). Both slices shrink
// from the front under length guards the compiler proves every index
// against, so the loop carries no per-element bounds check; four values per
// step keep the slice updates off the critical path. Each value is the same
// bit pattern the per-element decode reads, NaN payloads included.
func decodeFloat64s(dst []float64, src []byte) {
	for len(dst) >= 4 && len(src) >= 32 {
		dst[0] = math.Float64frombits(binary.LittleEndian.Uint64(src[0:8]))
		dst[1] = math.Float64frombits(binary.LittleEndian.Uint64(src[8:16]))
		dst[2] = math.Float64frombits(binary.LittleEndian.Uint64(src[16:24]))
		dst[3] = math.Float64frombits(binary.LittleEndian.Uint64(src[24:32]))
		dst, src = dst[4:], src[32:]
	}
	for len(dst) >= 1 && len(src) >= 8 {
		dst[0] = math.Float64frombits(binary.LittleEndian.Uint64(src[0:8]))
		dst, src = dst[1:], src[8:]
	}
}
