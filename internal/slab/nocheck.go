//go:build !slabcheck

package slab

// The default build trusts the ownership rules; see check.go for the
// slabcheck build that enforces them.

func checkOut([]float64, bool) {}
func checkIn([]float64)        {}
