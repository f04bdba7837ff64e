//go:build slabcheck

package slab

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"unsafe"
)

// The checked build (-tags slabcheck) enforces the ownership rules instead
// of trusting them. It records every buffer Get hands out, keyed by its
// first element's address, with the call site. A Put of a class-sized buffer
// that is not checked out — a second Put, or a buffer Get never handed out —
// panics naming both call sites. Put fills the buffer with a signalling-NaN
// pattern and the next Get that takes it checks the pattern, so a write
// after Put panics there, naming the Put; a read after Put sees NaN, which
// the exact-product tests catch. The default build compiles none of this.

// poison is the signalling NaN a returned buffer is filled with: no
// arithmetic produces it, and it propagates as NaN through any that reads it.
var poison = math.Float64frombits(0x7ff4_dead_0000_0001)

// owners holds the call sites as program counters, named only in a panic:
// a warm Get or Put allocates nothing in the checked build either.
var owners = struct {
	sync.Mutex
	out  map[uintptr]uintptr // checked out: first element → the Get's call site
	back map[uintptr]uintptr // on a free list: first element → the Put's call site
}{out: map[uintptr]uintptr{}, back: map[uintptr]uintptr{}}

// key is the identity of a buffer: its first element's address. Addresses
// rather than pointers, so that a buffer left to the collector is not kept
// alive by the record of it.
func key(s []float64) uintptr { return uintptr(unsafe.Pointer(&s[:1][0])) }

// caller returns the call site of the Get or Put that called the check.
func caller() uintptr {
	var pc [1]uintptr
	runtime.Callers(4, pc[:])
	return pc[0]
}

// site names a call site caller returned.
func site(pc uintptr) string {
	if pc == 0 {
		return "an unknown site"
	}
	f, _ := runtime.CallersFrames([]uintptr{pc}).Next()
	return fmt.Sprintf("%s (%s:%d)", f.Function, f.File, f.Line)
}

// checkOut records s, a buffer Get hands out; recycled is whether it came
// off a free list, whose poison it checks first.
func checkOut(s []float64, recycled bool) {
	if cap(s) == 0 {
		return
	}
	k, pc := key(s), caller()
	owners.Lock()
	defer owners.Unlock()
	if recycled {
		for i, v := range s[:cap(s)] {
			if math.Float64bits(v) != math.Float64bits(poison) {
				panic(fmt.Sprintf("slab: a buffer returned at %s was written after its Put (element %d); taken again at %s",
					site(owners.back[k]), i, site(pc)))
			}
		}
	}
	delete(owners.back, k)
	owners.out[k] = pc
}

// checkIn records the Put of s, which must be checked out, and poisons it,
// before any free list holds it.
func checkIn(s []float64) {
	k, pc := key(s), caller()
	owners.Lock()
	defer owners.Unlock()
	if _, ok := owners.out[k]; !ok {
		if prev, ok := owners.back[k]; ok {
			panic(fmt.Sprintf("slab: Put at %s of a buffer already returned at %s", site(pc), site(prev)))
		}
		panic(fmt.Sprintf("slab: Put at %s of a buffer Get did not hand out", site(pc)))
	}
	delete(owners.out, k)
	owners.back[k] = pc
	s = s[:cap(s)]
	for i := range s {
		s[i] = poison
	}
}
