package mat

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

func alignedSample(rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.data {
		m.data[i] = float64(i)*0.5 - 3
	}
	return m
}

func TestAlignedRoundTripAtOffsets(t *testing.T) {
	m := alignedSample(3, 5)
	for base := int64(0); base < 17; base++ {
		var buf bytes.Buffer
		n, err := WriteBinaryAligned(&buf, m, base)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("base %d: reported %d bytes, wrote %d", base, n, buf.Len())
		}
		if want := AlignedSize(m, base); n != want {
			t.Fatalf("base %d: AlignedSize says %d, wrote %d", base, want, n)
		}
		// The payload's absolute offset must be 8-byte aligned.
		raw := buf.Bytes()
		pad := int(raw[20])
		if (base+int64(alignedHeaderSize)+int64(pad))%8 != 0 {
			t.Fatalf("base %d: pad %d leaves payload unaligned", base, pad)
		}
		got, consumed, err := ReadBinaryAligned(raw)
		if err != nil {
			t.Fatal(err)
		}
		if consumed != len(raw) {
			t.Fatalf("base %d: consumed %d of %d", base, consumed, len(raw))
		}
		if got.Rows() != m.Rows() || got.Cols() != m.Cols() {
			t.Fatalf("base %d: %dx%d", base, got.Rows(), got.Cols())
		}
		for i := range m.data {
			if got.data[i] != m.data[i] {
				t.Fatalf("base %d: elem %d = %v", base, i, got.data[i])
			}
		}
	}
}

func TestAlignedReadFreshBacking(t *testing.T) {
	m := alignedSample(2, 3)
	var buf bytes.Buffer
	if _, err := WriteBinaryAligned(&buf, m, 5); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	got, _, err := ReadBinaryAligned(raw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		raw[i] = 0xff
	}
	for i := range m.data {
		if got.data[i] != m.data[i] {
			t.Fatalf("decoded matrix aliases the input: elem %d = %v", i, got.data[i])
		}
	}
}

func TestAlignedReadGuards(t *testing.T) {
	m := alignedSample(2, 2)
	var buf bytes.Buffer
	if _, err := WriteBinaryAligned(&buf, m, 0); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	corrupt := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), raw...))
	}
	cases := map[string][]byte{
		"short header": raw[:alignedHeaderSize-1],
		"bad magic":    corrupt(func(b []byte) []byte { b[0] = 'X'; return b }),
		"pad range":    corrupt(func(b []byte) []byte { b[20] = 9; return b }),
		"giant rows":   corrupt(func(b []byte) []byte { b[11] = 0xff; return b }),
		// rows*cols chosen to overflow a naive rows*cols*8 size check.
		"overflow dims": corrupt(func(b []byte) []byte {
			for i := 4; i < 20; i++ {
				b[i] = 0xcd
			}
			return b
		}),
		"truncated payload": raw[:len(raw)-3],
	}
	for name, b := range cases {
		if _, _, err := ReadBinaryAligned(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestAlignedDecodeMatchesPerElement is the oracle for the unrolled payload
// decode: every value must carry exactly the bit pattern a per-element
// binary.LittleEndian read of its 8 bytes gives — NaN payloads, signed
// zeros, infinities and subnormals included — at every pad 0–7 and every
// length across the four-wide step and its tail, empty matrices too. Bytes
// after the record are not consumed, while every truncation of it, and a
// header claiming one more row and column than the payload holds, is
// rejected.
func TestAlignedDecodeMatchesPerElement(t *testing.T) {
	special := []uint64{
		0x7ff8000000000001, // quiet NaN with a payload
		0x7ff0000000000001, // signalling NaN
		0xfff8deadbeef0000, // negative NaN with a payload
		math.Float64bits(math.Copysign(0, -1)),
		0,
		math.Float64bits(math.Inf(1)),
		math.Float64bits(math.Inf(-1)),
		1,                     // smallest subnormal
		0x000fffffffffffff,    // largest subnormal
		0x800fffffffffffff,    // negative subnormal
		math.Float64bits(1.5), // a normal value
	}
	shapes := [][2]int{{0, 0}, {0, 3}, {3, 0}, {1, 1}, {1, 3}, {1, 4}, {1, 5}, {2, 4}, {3, 3}, {1, 11}, {5, 7}}
	for _, shape := range shapes {
		m := New(shape[0], shape[1])
		for i := range m.data {
			m.data[i] = math.Float64frombits(special[i%len(special)] ^ uint64(i/len(special))<<40)
		}
		for base := int64(0); base < 8; base++ {
			var buf bytes.Buffer
			if _, err := WriteBinaryAligned(&buf, m, base); err != nil {
				t.Fatal(err)
			}
			raw := append(buf.Bytes(), 0xab, 0xcd, 0xef)
			pad := int(raw[20])
			got, n, err := ReadBinaryAligned(raw)
			if err != nil {
				t.Fatalf("%dx%d pad %d: %v", shape[0], shape[1], pad, err)
			}
			if n != buf.Len() || got.Rows() != shape[0] || got.Cols() != shape[1] {
				t.Fatalf("%dx%d pad %d: consumed %d of %d as %dx%d", shape[0], shape[1], pad, n, buf.Len(), got.Rows(), got.Cols())
			}
			payload := raw[alignedHeaderSize+pad:]
			for i, v := range got.data {
				want := binary.LittleEndian.Uint64(payload[8*i:])
				if math.Float64bits(v) != want || want != math.Float64bits(m.data[i]) {
					t.Fatalf("%dx%d pad %d elem %d: decoded %016x, per-element read %016x", shape[0], shape[1], pad, i, math.Float64bits(v), want)
				}
			}
			for cut := 0; cut < n; cut++ {
				if _, _, err := ReadBinaryAligned(raw[:cut]); err == nil {
					t.Fatalf("%dx%d pad %d: truncation to %d of %d bytes accepted", shape[0], shape[1], pad, cut, n)
				}
			}
			grown := bytes.Clone(raw[:n])
			binary.LittleEndian.PutUint64(grown[4:12], uint64(shape[0]+1))
			binary.LittleEndian.PutUint64(grown[12:20], uint64(shape[1]+1))
			if _, _, err := ReadBinaryAligned(grown); err == nil {
				t.Fatalf("%dx%d pad %d: oversized header accepted", shape[0], shape[1], pad)
			}
		}
	}
}
