//go:build race

package netmpi

// raceEnabled: under the race detector sync.Pool drops a share of what is
// put back on purpose, so the frame-scratch pool mints buffers that a normal
// build recycles, and allocation counts are not zero by construction.
const raceEnabled = true
