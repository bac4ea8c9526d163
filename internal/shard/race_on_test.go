//go:build race

package shard

// raceEnabled reports a -race build: the detector instruments Go code but not
// assembly, which skews wall-clock comparisons between the two.
const raceEnabled = true
