package core

import (
	"math/bits"
	"sync"
)

// Working-matrix slabs (DESIGN.md §11).
//
// WA and WB live for one multiply but are the same size every time the same
// layout runs, so their backing arrays are recycled through a process-wide
// pool instead of being allocated (and zeroed) per call. Slabs are binned by
// the power of two that bounds their length, so a small job never pins a
// large job's slab, but a slab is allocated at exactly the requested length:
// a recycled slab that turns out too short for the request is dropped and
// replaced, and each bin converges on the largest working matrix of its
// size range that the process actually runs.
//
// Ownership rules:
//
//   - A slab checked out by getSlab belongs to one rank of one multiply. Its
//     contents are whatever the previous owner left: stages 1–2 overwrite
//     every element a DGEMM reads, so nothing is zeroed.
//   - putSlab may be called only once every goroutine that could write the
//     slab has finished. rankMain therefore recycles after a sequential run
//     and after an overlapped run whose comm goroutine was seen to exit; an
//     overlapped run that returns while its comm goroutine may still be
//     inside a broadcast leaves the slabs to the garbage collector.
var slabPools [64]sync.Pool

// slabReuseHook, when set (tests only), sees every recycled slab before it
// is handed out again.
var slabReuseHook func([]float64)

// slabClass is the pool index for slabs of n elements: the k with
// 2^(k-1) < n ≤ 2^k.
func slabClass(n int) int { return bits.Len(uint(max(n, 1) - 1)) }

func getSlab(n int) *[]float64 {
	if s, _ := slabPools[slabClass(n)].Get().(*[]float64); s != nil && cap(*s) >= n {
		*s = (*s)[:n]
		if slabReuseHook != nil {
			slabReuseHook(*s)
		}
		return s
	}
	s := make([]float64, n)
	return &s
}

func putSlab(s *[]float64) { slabPools[slabClass(cap(*s))].Put(s) }
