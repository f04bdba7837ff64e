//go:build !amd64 || noasm

package blas

import "testing"

// runBodies runs f once, as a subtest, under the portable body: the only one
// this build has.
func runBodies(t *testing.T, f func(t *testing.T)) { t.Run("portable", f) }
