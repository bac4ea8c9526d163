package persist

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"optimus/internal/mat"
)

// sources are the three ways a load gets its bytes: parsed in place, one
// exactly sized read from a reader that reports its length, and io.ReadAll
// over a reader that hides it.
var sources = []struct {
	name string
	open func([]byte) io.Reader
}{
	{"FromBytes", FromBytes},
	{"bytes.Reader", func(b []byte) io.Reader { return bytes.NewReader(b) }},
	{"length-hiding", func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
}

func testMatrix(rows, cols int) *mat.Matrix {
	m := mat.New(rows, cols)
	for r := 0; r < rows; r++ {
		row := m.Row(r)
		for c := range row {
			row[c] = float64(r*cols+c) + 0.25
		}
	}
	return m
}

func writeSample(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "Test")
	if err != nil {
		t.Fatal(err)
	}
	w.Section("alpha", func(e *Encoder) {
		e.U8(7)
		e.U64(1 << 60)
		e.Int(42)
		e.F64(3.5)
		e.String("hello")
		e.Ints([]int{5, 0, 9})
		e.I32s([]int32{-1, 2})
		e.F64s([]float64{1.5, -2.5})
		e.Bytes([]byte{0xde, 0xad})
	})
	w.Section("beta", func(e *Encoder) {
		e.Matrix(testMatrix(3, 4))
	})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	raw := writeSample(t)
	r, err := NewReader(bytes.NewReader(raw), "Test")
	if err != nil {
		t.Fatal(err)
	}
	d := r.Section("alpha")
	if v := d.U8(); v != 7 {
		t.Fatalf("U8 = %d", v)
	}
	if v := d.U64(); v != 1<<60 {
		t.Fatalf("U64 = %d", v)
	}
	if v := d.Int(); v != 42 {
		t.Fatalf("Int = %d", v)
	}
	if v := d.F64(); v != 3.5 {
		t.Fatalf("F64 = %v", v)
	}
	if v := d.String(); v != "hello" {
		t.Fatalf("String = %q", v)
	}
	if v := d.Ints(); len(v) != 3 || v[0] != 5 || v[1] != 0 || v[2] != 9 {
		t.Fatalf("Ints = %v", v)
	}
	if v := d.I32s(); len(v) != 2 || v[0] != -1 || v[1] != 2 {
		t.Fatalf("I32s = %v", v)
	}
	if v := d.F64s(); len(v) != 2 || v[0] != 1.5 || v[1] != -2.5 {
		t.Fatalf("F64s = %v", v)
	}
	if v := d.Bytes(); len(v) != 2 || v[0] != 0xde || v[1] != 0xad {
		t.Fatalf("Bytes = %v", v)
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left over", d.Remaining())
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	d = r.Section("beta")
	m := d.Matrix()
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	want := testMatrix(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("matrix %dx%d", m.Rows(), m.Cols())
	}
	for r0 := 0; r0 < 3; r0++ {
		for c := 0; c < 4; c++ {
			if m.At(r0, c) != want.At(r0, c) {
				t.Fatalf("at %d,%d: %v", r0, c, m.At(r0, c))
			}
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderAnyKind(t *testing.T) {
	raw := writeSample(t)
	r, err := NewReader(bytes.NewReader(raw), "")
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind() != "Test" {
		t.Fatalf("kind %q", r.Kind())
	}
}

func TestHeaderErrors(t *testing.T) {
	raw := writeSample(t)
	cases := map[string]func([]byte) []byte{
		"bad magic":    func(b []byte) []byte { b[0] = 'X'; return b },
		"bad version":  func(b []byte) []byte { b[4] = 9; return b },
		"short header": func(b []byte) []byte { return b[:6] },
	}
	for name, corrupt := range cases {
		b := corrupt(append([]byte(nil), raw...))
		if _, err := NewReader(bytes.NewReader(b), "Test"); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := NewReader(bytes.NewReader(raw), "Other"); err == nil {
		t.Error("kind mismatch: accepted")
	}
}

func TestSectionErrors(t *testing.T) {
	raw := writeSample(t)

	// Wrong section name is an error, not a skip.
	r, _ := NewReader(bytes.NewReader(raw), "Test")
	d := r.Section("beta")
	if d.Err() == nil {
		t.Error("out-of-order section read accepted")
	}
	if r.Close() == nil {
		t.Error("Close did not report the section error")
	}

	// A body bit flip must fail the CRC.
	flipped := append([]byte(nil), raw...)
	flipped[30] ^= 1
	r, err := NewReader(bytes.NewReader(flipped), "Test")
	if err == nil {
		d = r.Section("alpha")
		if d.Err() == nil && r.Section("beta").Err() == nil {
			t.Error("bit flip survived both section CRCs")
		}
	}

	// Truncations anywhere must error, never panic.
	for n := 0; n < len(raw); n += 7 {
		r, err := NewReader(bytes.NewReader(raw[:n]), "Test")
		if err != nil {
			continue
		}
		da := r.Section("alpha")
		db := r.Section("beta")
		if da.Err() == nil && db.Err() == nil && n < len(raw)-1 {
			t.Fatalf("truncation to %d bytes decoded cleanly", n)
		}
	}
}

// TestTrailingSectionsIgnored pins the forward-compatibility rule: within a
// version, a reader that consumed its known sections tolerates trailing
// sections appended by a newer writer, whatever its source.
func TestTrailingSectionsIgnored(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "Test")
	if err != nil {
		t.Fatal(err)
	}
	w.Section("known", func(e *Encoder) { e.Int(1) })
	w.Section("future", func(e *Encoder) { e.String("a section this reader predates") })
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for _, src := range sources {
		r, err := NewReader(src.open(buf.Bytes()), "Test")
		if err != nil {
			t.Fatal(err)
		}
		d := r.Section("known")
		if v := d.Int(); v != 1 || d.Err() != nil {
			t.Fatalf("%s: known section: %d, %v", src.name, v, d.Err())
		}
		if err := r.Close(); err != nil {
			t.Fatalf("%s: trailing section broke Close: %v", src.name, err)
		}
	}
}

// TestHugeSectionLength: a section header claiming 1 TB over a 100-byte
// stream fails on the length check, before anything is sized from the
// header.
func TestHugeSectionLength(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, "Test"); err != nil {
		t.Fatal(err)
	}
	raw := binary.LittleEndian.AppendUint16(buf.Bytes(), 1)
	raw = append(raw, 's')
	raw = binary.LittleEndian.AppendUint64(raw, 1<<40)
	raw = append(raw, make([]byte, 100-len(raw))...)
	for _, src := range sources {
		load := func() {
			r, err := NewReader(src.open(raw), "Test")
			if err != nil {
				t.Fatal(err)
			}
			if d := r.Section("s"); d.Err() == nil {
				t.Fatalf("%s: a 1 TB section over a 100-byte stream was accepted", src.name)
			}
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, load)
		runtime.ReadMemStats(&after)
		perLoad := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
		if perLoad >= 64<<10 {
			t.Fatalf("%s: the failing load allocated %d bytes in %.0f allocations", src.name, perLoad, allocs)
		}
	}
}

// TestCountGuards pins the corrupt-count defense: a count claiming more
// elements than the section holds fails before allocation. 1<<32-1 is a
// count a 32-bit int would read as -1.
func TestCountGuards(t *testing.T) {
	for _, count := range []uint64{1 << 50, 1<<32 - 1} {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf, "Test")
		w.Section("s", func(e *Encoder) {
			e.U64(count) // an absurd count with no payload behind it
		})
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		for name, decode := range map[string]func(*Decoder) bool{
			"Ints":  func(d *Decoder) bool { return d.Ints() != nil },
			"I32s":  func(d *Decoder) bool { return d.I32s() != nil },
			"F64s":  func(d *Decoder) bool { return d.F64s() != nil },
			"Bytes": func(d *Decoder) bool { return d.Bytes() != nil },
		} {
			r, err := NewReader(bytes.NewReader(buf.Bytes()), "Test")
			if err != nil {
				t.Fatal(err)
			}
			d := r.Section("s")
			if decode(d) || d.Err() == nil {
				t.Fatalf("%s: count %d decoded, err %v", name, count, d.Err())
			}
		}
	}
}

// TestDecoderBytesView: Bytes is a view of the section body whose capacity
// ends at its length, so an append to it cannot reach the bytes after it.
// Only a FromBytes source is parsed in place; any other stream is read into
// a buffer of the reader's own, so the view never aliases the caller's bytes.
func TestDecoderBytesView(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, "Test")
	w.Section("s", func(e *Encoder) {
		e.Bytes([]byte{1, 2, 3})
		e.U8(9)
	})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for _, src := range sources {
		raw := bytes.Clone(buf.Bytes())
		r, _ := NewReader(src.open(raw), "Test")
		d := r.Section("s")
		got := d.Bytes()
		if len(got) != 3 || cap(got) != 3 {
			t.Fatalf("%s: view len %d cap %d, want 3 and 3", src.name, len(got), cap(got))
		}
		_ = append(got, 0xff)
		if v := d.U8(); v != 9 || d.Err() != nil {
			t.Fatalf("%s: the byte after the view reads %d (%v)", src.name, v, d.Err())
		}
		for i := range raw {
			raw[i] = 0xff
		}
		if aliased := got[0] == 0xff; aliased != (src.name == "FromBytes") {
			t.Fatalf("%s: view aliases the caller's bytes: %v", src.name, aliased)
		}
	}
}

func TestRegistry(t *testing.T) {
	if _, err := NewByKind("no-such-kind"); err == nil {
		t.Error("unknown kind resolved")
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register("persist-test-kind", func() LoadSaver { return nil })
	Register("persist-test-kind", func() LoadSaver { return nil })
}

func TestLoadAnyErrors(t *testing.T) {
	if _, err := LoadAny(strings.NewReader("garbage")); err == nil {
		t.Error("garbage stream loaded")
	}
	if _, err := LoadAny(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream loaded")
	}
	// A valid header whose kind has no registered factory.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, "UnregisteredKind")
	w.Section("s", func(e *Encoder) { e.Int(1) })
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAny(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("unregistered kind loaded")
	}
}

// TestMatrixAlignment pins the OMXA promise: every matrix payload lands on
// an 8-byte absolute offset regardless of what precedes it.
func TestMatrixAlignment(t *testing.T) {
	for pre := 0; pre < 9; pre++ {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, "Test")
		if err != nil {
			t.Fatal(err)
		}
		pad := make([]byte, pre)
		w.Section("s", func(e *Encoder) {
			e.Bytes(pad)
			e.Matrix(testMatrix(2, 3))
		})
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		// Find the OMXA record and check its payload's absolute offset.
		idx := bytes.Index(raw, []byte("OMXA"))
		if idx < 0 {
			t.Fatal("no OMXA record")
		}
		padLen := int(raw[idx+20])
		payload := idx + 21 + padLen
		if payload%8 != 0 {
			t.Fatalf("pre=%d: payload at %d (pad %d) is unaligned", pre, payload, padLen)
		}
		// And the stream still round-trips.
		r, err := NewReader(bytes.NewReader(raw), "Test")
		if err != nil {
			t.Fatal(err)
		}
		d := r.Section("s")
		d.Bytes()
		m := d.Matrix()
		if err := d.Err(); err != nil {
			t.Fatal(err)
		}
		if m.At(1, 2) != testMatrix(2, 3).At(1, 2) {
			t.Fatal("matrix mangled")
		}
	}
}

// TestSectionIf pins the optional-section probe the additive schedule
// evolution rides on: a matching next section is consumed, a mismatch (or
// clean EOF) leaves the stream untouched for the next strict Section call.
func TestSectionIf(t *testing.T) {
	raw := writeSample(t)
	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			r, err := NewReader(src.open(raw), "Test")
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := r.SectionIf("beta"); ok {
				t.Fatal("probe for the wrong name must not consume")
			}
			if _, ok := r.SectionIf(""); ok {
				t.Fatal("empty name must not match")
			}
			if _, ok := r.SectionIf(strings.Repeat("x", 300)); ok {
				t.Fatal("overlong name must not match")
			}
			d, ok := r.SectionIf("alpha")
			if !ok {
				t.Fatal("probe for the actual next section must hit")
			}
			if v := d.U8(); v != 7 || d.Err() != nil {
				t.Fatalf("alpha via SectionIf: %d, %v", v, d.Err())
			}
			// The rest of the stream reads on, strictly.
			d = r.Section("beta")
			if m := d.Matrix(); d.Err() != nil || m.At(2, 3) != testMatrix(3, 4).At(2, 3) {
				t.Fatalf("beta after SectionIf: %v", d.Err())
			}
			if _, ok := r.SectionIf("gamma"); ok {
				t.Fatal("probe at clean EOF must miss")
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
