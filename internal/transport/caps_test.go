package transport

import (
	"testing"

	"optimus/internal/shard"
)

// TestCapsBitsRoundTrip: the caps reply's flag byte decodes to the word that
// was encoded, for every combination of the six capability flags.
func TestCapsBitsRoundTrip(t *testing.T) {
	for m := 0; m < 1<<6; m++ {
		want := shard.WorkerCaps{
			Batches:   m&(1<<0) != 0,
			Mutable:   m&(1<<1) != 0,
			UserAdds:  m&(1<<2) != 0,
			Scans:     m&(1<<3) != 0,
			Snapshots: m&(1<<4) != 0,
			Sized:     m&(1<<5) != 0,
		}
		if got := capsFromBits(capsBits(want)); got != want {
			t.Fatalf("combination %06b: round trip gave %+v, want %+v", m, got, want)
		}
	}
}
