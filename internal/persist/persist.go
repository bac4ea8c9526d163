// Package persist implements the versioned snapshot framing every OPTIMUS
// index serializes through. A snapshot stream is
//
//	magic    [4]byte  "OSNP"
//	version  uint32   (currently 1)
//	kind     string   (uint16 length + bytes; e.g. "LEMP", "Sharded")
//
// followed by named sections:
//
//	nameLen  uint16
//	name     [nameLen]byte
//	bodyLen  uint64
//	body     [bodyLen]byte
//	crc      uint32   IEEE CRC-32 of body
//
// Sections are read strictly in the order they were written; a reader asks
// for a section by name and it is an error (not a silent skip) if the stream
// holds anything else. Every section body is checksummed, so torn writes and
// bit flips surface as errors before any decoded value reaches a solver.
// Matrices inside sections use the OMXA aligned layout (internal/mat): the
// writer threads the absolute stream offset through, so float64 payloads
// land on 8-byte file offsets.
//
// A load holds the whole stream as one byte slice. NewReader and LoadAny
// read their stream to EOF, once (not at all for a FromBytes source), and
// every section body is a view of that slice, so a snapshot nested inside a
// section (a server's solver, a composite's shards) is parsed in place
// through FromBytes rather than copied at each level. Decoded values
// (matrices, slices, strings) are fresh copies: no loaded solver aliases its
// stream. Only Decoder.Bytes hands out a view.
//
// The version is bumped when the framing or any solver's section layout
// changes incompatibly; version-1 readers reject higher versions outright
// rather than guessing. Golden snapshots under testdata/ pin the v1 format.
package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"optimus/internal/mat"
)

const (
	// Magic starts every snapshot stream.
	Magic = "OSNP"
	// Version is the current format version.
	Version = 1

	maxKindLen    = 64
	maxSectionLen = 256
	// maxCount bounds every element count a decoder will allocate for
	// before the per-read remaining-bytes check applies. Large enough for
	// any real index, small enough that count*size arithmetic cannot
	// overflow int64, and never above the platform's int, so a count
	// converts to int unchanged on 32-bit builds too.
	maxCount = min(1<<40, math.MaxInt)
)

// Writer emits one snapshot stream. Sections are buffered in memory, so a
// failed Save leaves the underlying writer with at worst a truncated stream
// that readers reject; no partial section is ever emitted.
type Writer struct {
	w   io.Writer
	off int64
	err error
}

// NewWriter writes the stream header for the given kind and returns the
// section writer.
func NewWriter(w io.Writer, kind string) (*Writer, error) {
	if len(kind) == 0 || len(kind) > maxKindLen {
		return nil, fmt.Errorf("persist: kind %q length out of range", kind)
	}
	hdr := make([]byte, 0, 4+4+2+len(kind))
	hdr = append(hdr, Magic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, Version)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(kind)))
	hdr = append(hdr, kind...)
	if _, err := w.Write(hdr); err != nil {
		return nil, fmt.Errorf("persist: write header: %w", err)
	}
	return &Writer{w: w, off: int64(len(hdr))}, nil
}

// Section encodes one named section: fill populates an Encoder whose base
// offset accounts for the section header, then the body is framed and
// checksummed. The first error (from fill or the underlying writer) sticks
// and is returned by Close.
func (w *Writer) Section(name string, fill func(*Encoder)) {
	if w.err != nil {
		return
	}
	if len(name) == 0 || len(name) > maxSectionLen {
		w.err = fmt.Errorf("persist: section name %q length out of range", name)
		return
	}
	hdrLen := int64(2 + len(name) + 8)
	enc := &Encoder{base: w.off + hdrLen}
	fill(enc)
	if enc.err != nil {
		w.err = fmt.Errorf("persist: encode section %q: %w", name, enc.err)
		return
	}
	body := enc.buf.Bytes()
	hdr := make([]byte, 0, hdrLen)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(name)))
	hdr = append(hdr, name...)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(body)))
	if _, err := w.w.Write(hdr); err != nil {
		w.err = fmt.Errorf("persist: write section %q: %w", name, err)
		return
	}
	if _, err := w.w.Write(body); err != nil {
		w.err = fmt.Errorf("persist: write section %q: %w", name, err)
		return
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(body))
	if _, err := w.w.Write(crc[:]); err != nil {
		w.err = fmt.Errorf("persist: write section %q: %w", name, err)
		return
	}
	w.off += hdrLen + int64(len(body)) + 4
}

// Close reports the first error encountered while writing sections.
func (w *Writer) Close() error { return w.err }

// Reader parses one snapshot held in memory as a single byte slice.
type Reader struct {
	data []byte // the whole stream; pos is also the absolute stream offset
	pos  int
	kind string
	err  error
}

// FromBytes returns a stream over an in-memory snapshot that NewReader and
// LoadAny parse in place: no byte of data is copied, and section bodies are
// views of it. data must not change while a load runs. Any other reader of
// the returned stream sees data's bytes as usual.
func FromBytes(data []byte) io.Reader { return &inPlace{data: data} }

type inPlace struct{ data []byte }

func (s *inPlace) Read(p []byte) (int, error) {
	if len(s.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, s.data)
	s.data = s.data[n:]
	return n, nil
}

// readAll takes the rest of r as one slice: a FromBytes source as is, a
// reader that reports its remaining length (*bytes.Reader, *bytes.Buffer)
// with one exactly sized read, anything else with io.ReadAll, whose
// allocation is bounded by the bytes actually present.
func readAll(r io.Reader) ([]byte, error) {
	switch s := r.(type) {
	case *inPlace:
		data := s.data
		s.data = nil
		return data, nil
	case interface{ Len() int }:
		data := make([]byte, s.Len())
		_, err := io.ReadFull(r, data)
		return data, err
	}
	return io.ReadAll(r)
}

// parseHeader validates the stream header and returns the kind and the
// header's length.
func parseHeader(data []byte) (string, int, error) {
	if len(data) < 10 {
		return "", 0, fmt.Errorf("persist: read header: %d of 10 bytes", len(data))
	}
	if string(data[:4]) != Magic {
		return "", 0, fmt.Errorf("persist: bad magic %q, want %q", data[:4], Magic)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != Version {
		return "", 0, fmt.Errorf("persist: unsupported snapshot version %d (reader supports %d)", v, Version)
	}
	kindLen := int(binary.LittleEndian.Uint16(data[8:10]))
	if kindLen == 0 || kindLen > maxKindLen {
		return "", 0, fmt.Errorf("persist: kind length %d out of range", kindLen)
	}
	if len(data) < 10+kindLen {
		return "", 0, fmt.Errorf("persist: read kind: %d of %d bytes", len(data)-10, kindLen)
	}
	return string(data[10 : 10+kindLen]), 10 + kindLen, nil
}

// NewReader takes r to EOF, validates the stream header and returns the
// section reader. wantKind "" accepts any kind (the caller inspects Kind());
// otherwise the stream's kind must match exactly. Pass FromBytes to parse an
// in-memory snapshot without copying it; any other stream is read once.
func NewReader(r io.Reader, wantKind string) (*Reader, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("persist: read stream: %w", err)
	}
	kind, n, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	if wantKind != "" && kind != wantKind {
		return nil, fmt.Errorf("persist: snapshot kind %q, want %q", kind, wantKind)
	}
	return &Reader{data: data, pos: n, kind: kind}, nil
}

// Kind returns the stream's kind string.
func (r *Reader) Kind() string { return r.kind }

// Section reads the next section, which must carry the given name, verifies
// its checksum, and returns a Decoder over the body. After the first error
// every subsequent Section returns a Decoder whose accessors yield zero
// values; Close reports the error.
func (r *Reader) Section(name string) *Decoder {
	if r.err != nil {
		return &Decoder{err: r.err}
	}
	dec, err := r.section(name)
	if err != nil {
		r.err = err
		return &Decoder{err: err}
	}
	return dec
}

// section checks the next section's name, that its body and checksum fit in
// the bytes remaining, and its CRC, then returns a Decoder over a view of
// the body whose capacity ends at the body.
func (r *Reader) section(name string) (*Decoder, error) {
	rest := r.data[r.pos:]
	if len(rest) < 2 {
		return nil, fmt.Errorf("persist: section %q: read header: %w", name, io.ErrUnexpectedEOF)
	}
	nameLen := int(binary.LittleEndian.Uint16(rest))
	if nameLen == 0 || nameLen > maxSectionLen {
		return nil, fmt.Errorf("persist: section name length %d out of range", nameLen)
	}
	lo := 2 + nameLen + 8
	if len(rest) < lo {
		return nil, fmt.Errorf("persist: section %q: read header: %w", name, io.ErrUnexpectedEOF)
	}
	if got := rest[2 : 2+nameLen]; string(got) != name {
		return nil, fmt.Errorf("persist: section %q, want %q", got, name)
	}
	bodyLen := binary.LittleEndian.Uint64(rest[2+nameLen:])
	if avail := len(rest) - lo; bodyLen > uint64(avail) || avail-int(bodyLen) < 4 {
		return nil, fmt.Errorf("persist: section %q: body of %d bytes and checksum overrun the %d bytes left", name, bodyLen, avail)
	}
	hi := lo + int(bodyLen)
	body := rest[lo:hi:hi]
	want := binary.LittleEndian.Uint32(rest[hi:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("persist: section %q: checksum mismatch (got %08x, want %08x)", name, got, want)
	}
	base := int64(r.pos + lo)
	r.pos += hi + 4
	return &Decoder{buf: body, base: base}, nil
}

// SectionIf reads the next section if — and only if — it carries the given
// name, returning (nil, false) without consuming anything when the stream is
// at EOF or the next section is named differently. This is how a reader
// probes for an *optional trailing* section a newer writer may have
// appended: an absent section is not an error (Close's trailing-section
// tolerance, made selective), while a present one is fully validated exactly
// like Section.
func (r *Reader) SectionIf(name string) (*Decoder, bool) {
	if r.err != nil || len(name) == 0 || len(name) > maxSectionLen {
		return nil, false
	}
	hdr := r.data[r.pos:]
	if len(hdr) < 2+len(name) || int(binary.LittleEndian.Uint16(hdr)) != len(name) || string(hdr[2:2+len(name)]) != name {
		return nil, false
	}
	dec, err := r.section(name)
	if err != nil {
		r.err = err
		return &Decoder{err: err}, true
	}
	return dec, true
}

// Close reports the first section-level error. It does not require the
// stream to be fully consumed: trailing sections a newer writer appended are
// ignored, which is the forward-compatibility escape hatch within a version.
func (r *Reader) Close() error { return r.err }

// Encoder accumulates one section body. All integers are little-endian.
// Errors stick; Writer.Section surfaces them.
type Encoder struct {
	buf  bytes.Buffer
	base int64 // absolute stream offset of buf[0]
	err  error
}

// U8 appends one byte.
func (e *Encoder) U8(v uint8) {
	if e.err != nil {
		return
	}
	e.buf.WriteByte(v)
}

// U64 appends a uint64.
func (e *Encoder) U64(v uint64) {
	if e.err != nil {
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.buf.Write(b[:])
}

// Int appends an int as a uint64 (values must be non-negative).
func (e *Encoder) Int(v int) {
	if e.err == nil && v < 0 {
		e.err = fmt.Errorf("negative int %d", v)
		return
	}
	e.U64(uint64(v))
}

// F64 appends a float64 by bit pattern.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// String appends a uint16-length-prefixed string.
func (e *Encoder) String(s string) {
	if e.err != nil {
		return
	}
	if len(s) > math.MaxUint16 {
		e.err = fmt.Errorf("string length %d exceeds uint16", len(s))
		return
	}
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], uint16(len(s)))
	e.buf.Write(b[:])
	e.buf.WriteString(s)
}

// Ints appends a count-prefixed []int (elements encoded as uint64).
func (e *Encoder) Ints(v []int) {
	e.Int(len(v))
	for _, x := range v {
		e.Int(x)
	}
}

// I32s appends a count-prefixed []int32.
func (e *Encoder) I32s(v []int32) {
	if e.err != nil {
		return
	}
	e.Int(len(v))
	b := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
	}
	e.buf.Write(b)
}

// F64s appends a count-prefixed []float64.
func (e *Encoder) F64s(v []float64) {
	if e.err != nil {
		return
	}
	e.Int(len(v))
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	e.buf.Write(b)
}

// Bytes appends a count-prefixed []byte.
func (e *Encoder) Bytes(v []byte) {
	if e.err != nil {
		return
	}
	e.Int(len(v))
	e.buf.Write(v)
}

// Matrix appends m in the OMXA aligned layout, padding so the float64
// payload starts 8-byte-aligned in the enclosing stream.
func (e *Encoder) Matrix(m *mat.Matrix) {
	if e.err != nil {
		return
	}
	if m == nil {
		e.err = fmt.Errorf("nil matrix")
		return
	}
	if _, err := mat.WriteBinaryAligned(&e.buf, m, e.base+int64(e.buf.Len())); err != nil {
		e.err = err
	}
}

// NewEncoder returns a standalone Encoder for framing outside a snapshot
// stream — wire messages reuse the section-body primitives (little-endian
// integers, count-prefixed slices, sticky errors) without the OSNP header.
// The base offset is zero, so Matrix alignment is relative to the message
// start; a transport that needs absolute alignment must pad itself.
func NewEncoder() *Encoder { return &Encoder{} }

// Finish returns the encoded body, or the first sticky error.
func (e *Encoder) Finish() ([]byte, error) {
	if e.err != nil {
		return nil, e.err
	}
	return e.buf.Bytes(), nil
}

// NewDecoder returns a standalone Decoder over data — the read side of
// NewEncoder. The decoder aliases data; callers must not mutate it while
// decoding.
func NewDecoder(data []byte) *Decoder { return &Decoder{buf: data} }

// Decoder reads one section body. The first failure sticks: every later
// accessor returns a zero value, and Err reports the cause. Callers decode
// the whole section and check Err once.
type Decoder struct {
	buf  []byte
	base int64
	pos  int
	err  error
}

// Err returns the first decode error.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread body bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.pos }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.Remaining() < n {
		d.fail("section body truncated: want %d bytes, have %d", n, d.Remaining())
		return nil
	}
	b := d.buf[d.pos : d.pos+n : d.pos+n]
	d.pos += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U64 reads a uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int reads a non-negative int.
func (d *Decoder) Int() int {
	v := d.U64()
	if d.err == nil && v > maxCount {
		d.fail("int value %d out of range", v)
		return 0
	}
	return int(v)
}

// F64 reads a float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// String reads a uint16-length-prefixed string.
func (d *Decoder) String() string {
	b := d.take(2)
	if b == nil {
		return ""
	}
	n := int(binary.LittleEndian.Uint16(b))
	s := d.take(n)
	if s == nil {
		return ""
	}
	return string(s)
}

// count reads an element count and verifies that count*size payload bytes
// are actually present before the caller allocates — a corrupt count can
// never force an allocation beyond the section body it arrived in.
func (d *Decoder) count(size int) int {
	n := d.Int()
	if d.err != nil {
		return 0
	}
	if n > d.Remaining()/size {
		d.fail("count %d exceeds remaining %d bytes", n, d.Remaining())
		return 0
	}
	return n
}

// Ints reads a count-prefixed []int. The result is freshly allocated (nil
// when empty).
func (d *Decoder) Ints() []int {
	n := d.count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	v := make([]int, n)
	for i := range v {
		v[i] = d.Int()
	}
	if d.err != nil {
		return nil
	}
	return v
}

// I32s reads a count-prefixed []int32.
func (d *Decoder) I32s() []int32 {
	n := d.count(4)
	if d.err != nil || n == 0 {
		return nil
	}
	b := d.take(4 * n)
	if b == nil {
		return nil
	}
	v := make([]int32, n)
	for i := range v {
		v[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return v
}

// F64s reads a count-prefixed []float64.
func (d *Decoder) F64s() []float64 {
	n := d.count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	b := d.take(8 * n)
	if b == nil {
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v
}

// Bytes reads a count-prefixed []byte as a view of the section body (its
// capacity ends at its length), not a copy: it is how a nested snapshot is
// handed on, to be parsed in place through FromBytes. A caller that keeps
// the bytes beyond the load clones them, or they pin the whole stream.
func (d *Decoder) Bytes() []byte {
	return d.take(d.count(1))
}

// Matrix reads one OMXA record. The returned matrix owns fresh backing.
func (d *Decoder) Matrix() *mat.Matrix {
	if d.err != nil {
		return nil
	}
	m, n, err := mat.ReadBinaryAligned(d.buf[d.pos:])
	if err != nil {
		d.fail("%v", err)
		return nil
	}
	d.pos += n
	return m
}
