//go:build race

package core_test

// raceEnabled: under the race detector sync.Pool drops a share of what is
// put back on purpose, so pooled scratch is minted afresh where a normal
// build recycles it, and allocation counts are not what they measure.
const raceEnabled = true
