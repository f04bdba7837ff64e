//go:build !amd64 || noasm

package blas

import "testing"

// runBodies runs f once, as a subtest, under the portable body: the only one
// this build has.
func runBodies(t *testing.T, f func(t *testing.T)) { t.Run("portable", f) }

// benchBodies runs f once, as the sub-benchmark portable/name.
func benchBodies(b *testing.B, name string, f func(b *testing.B)) { b.Run("portable/"+name, f) }
