package topk

import (
	"encoding/binary"
	"math"
	"testing"
)

func TestEntryCodecRoundTrip(t *testing.T) {
	rows := [][]Entry{
		{{Item: 3, Score: 1.5}, {Item: 0, Score: 1.5}, {Item: 7, Score: -2.25}},
		nil,
		{{Item: math.MaxInt, Score: math.Inf(-1)}},
		{{Item: 0, Score: 0}},
	}
	buf := AppendRows(nil, rows)
	got, used, err := DecodeRows(buf)
	if err != nil {
		t.Fatalf("DecodeRows: %v", err)
	}
	if used != len(buf) {
		t.Fatalf("DecodeRows consumed %d of %d bytes", used, len(buf))
	}
	if len(got) != len(rows) {
		t.Fatalf("got %d rows, want %d", len(got), len(rows))
	}
	for i := range rows {
		if len(rows[i]) == 0 {
			if got[i] != nil {
				t.Fatalf("row %d: empty row decoded non-nil: %v", i, got[i])
			}
			continue
		}
		if !Equal(got[i], rows[i], 0) {
			t.Fatalf("row %d: got %v, want %v", i, got[i], rows[i])
		}
	}
}

func TestEntryCodecScoreBitsExact(t *testing.T) {
	// Scores must survive as bit patterns, not values: NaN payloads, signed
	// zero, and denormals all round-trip exactly.
	scores := []float64{
		math.Float64frombits(0x7ff8000000000001), // NaN with payload
		math.Copysign(0, -1),
		math.SmallestNonzeroFloat64,
		math.MaxFloat64,
	}
	row := make([]Entry, len(scores))
	for i, s := range scores {
		row[i] = Entry{Item: i, Score: s}
	}
	buf := AppendRow(nil, row)
	got, used, err := DecodeRow(buf)
	if err != nil {
		t.Fatalf("DecodeRow: %v", err)
	}
	if used != len(buf) {
		t.Fatalf("DecodeRow consumed %d of %d bytes", used, len(buf))
	}
	for i := range row {
		if got[i].Item != row[i].Item ||
			math.Float64bits(got[i].Score) != math.Float64bits(row[i].Score) {
			t.Fatalf("entry %d: got %v (bits %x), want %v (bits %x)",
				i, got[i], math.Float64bits(got[i].Score),
				row[i], math.Float64bits(row[i].Score))
		}
	}
}

func TestEntryCodecRejectsCorruptFrames(t *testing.T) {
	buf := AppendRows(nil, [][]Entry{{{Item: 1, Score: 2}}, {{Item: 3, Score: 4}}})

	if _, _, err := DecodeRows(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated row set decoded without error")
	}
	if _, _, err := DecodeRows(buf[:2]); err == nil {
		t.Fatal("truncated row-set header decoded without error")
	}
	if _, _, err := DecodeRow(nil); err == nil {
		t.Fatal("empty row frame decoded without error")
	}

	// A row count claiming more entries than the frame holds must fail before
	// allocating.
	huge := binary.LittleEndian.AppendUint32(nil, 1<<31)
	if _, _, err := DecodeRow(huge); err == nil {
		t.Fatal("oversized row count decoded without error")
	}

	// An item id above MaxInt64 is rejected rather than wrapped negative.
	bad := binary.LittleEndian.AppendUint32(nil, 1)
	bad = binary.LittleEndian.AppendUint64(bad, 1<<63)
	bad = binary.LittleEndian.AppendUint64(bad, math.Float64bits(1))
	if _, _, err := DecodeRow(bad); err == nil {
		t.Fatal("out-of-range item id decoded without error")
	}
}
