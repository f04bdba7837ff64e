// Package slab is the process's one free list of recycled []float64
// buffers. The engine's working matrices WA and WB, the DGEMM kernel's packed
// panels, netmpi's panel staging and the scheduler's job operands all come
// from it and go back to it (DESIGN.md §11, §16).
//
// Buffers are binned by size class. A class covers the lengths up to a size
// with at most four significant bits (8 to 15 times a power of two, or any
// length below 16), so a new buffer is rounded up by less than 12.5 %, and
// every buffer of a class is long enough for every request the class serves:
// a recycled buffer is never dropped for being too short. A request whose
// class is empty takes a buffer from one of the next eight classes (at most
// twice its length) before it allocates, so a process that runs many nearby
// sizes — every layout has its own working-matrix sizes — keeps one set of
// buffers for them rather than one per class. A class keeps at most
// maxPerClass buffers, and the list only grows when a request finds nothing,
// so what it retains is the process's high-water working set. Unlike a
// sync.Pool it releases nothing at a garbage collection: once a process is
// warm, Get and Put allocate nothing, whatever the collector does.
//
// Ownership rules:
//
//   - A buffer from Get belongs to the caller until it calls Put. Its
//     contents are whatever the previous owner left: nothing is zeroed.
//   - Put may be called only once no goroutine can still read or write the
//     buffer, and only once per Get. A caller that cannot prove that (a
//     goroutine it did not wait for may still hold the buffer) does not put
//     it back and leaves it to the garbage collector.
package slab

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// maxPerClass caps the buffers one class retains: more than any steady
// state checks out of one class at once (a multiply holds two slabs per rank
// and two panels per kernel worker, a job three operands).
const maxPerClass = 32

// class is one size class's free buffers, used as a stack.
type class struct {
	mu   sync.Mutex
	free [][]float64
}

// classes[k] holds the buffers of class k; 60 shifts of 8 classes above the
// 16 exact small sizes cover every length an int can hold.
var classes [16 + 60*8]class

// reuseHook, when set, sees every recycled buffer before Get hands it out.
var reuseHook atomic.Pointer[func([]float64)]

// classOf returns the class index for a request of n elements and the
// capacity its buffers are allocated with.
func classOf(n int) (k, size int) {
	if n < 16 {
		return n, n
	}
	shift := bits.Len(uint(n)) - 4
	m := (n + 1<<shift - 1) >> shift // the top four bits, rounded up: 8…16
	if m == 16 {
		m, shift = 8, shift+1
	}
	return 16 + (shift-1)*8 + m - 8, m << shift
}

// reach is how many classes above its own a request may take a buffer from:
// eight classes span one doubling of the length.
const reach = 8

// Get returns a buffer of exactly n elements whose contents are undefined.
func Get(n int) []float64 {
	k, size := classOf(n)
	for j := k; j <= min(k+reach, len(classes)-1); j++ {
		if s := classes[j].pop(); s != nil {
			s = s[:n]
			if h := reuseHook.Load(); h != nil {
				(*h)(s)
			}
			return s
		}
	}
	return make([]float64, n, size)
}

// pop takes the most recently returned buffer of the class, or nil.
func (c *class) pop() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	top := len(c.free) - 1
	if top < 0 {
		return nil
	}
	s := c.free[top]
	c.free[top] = nil
	c.free = c.free[:top]
	return s
}

// Put returns a buffer obtained from Get. A slice whose capacity is not a
// class size did not come from Get and is left to the garbage collector, as
// is a buffer whose class is full.
func Put(s []float64) {
	k, size := classOf(cap(s))
	if size == 0 || size != cap(s) {
		return
	}
	c := &classes[k]
	c.mu.Lock()
	if len(c.free) < maxPerClass {
		c.free = append(c.free, s)
	}
	c.mu.Unlock()
}

// SetReuseHook installs f to see every recycled buffer before Get hands it
// out again, and returns a function that restores the previous hook. Tests
// use it to NaN-fill recycled memory, so that a stage that fails to
// overwrite an element it later reads produces NaN instead of quietly
// reusing a previous owner's data. Nil removes the hook.
func SetReuseHook(f func([]float64)) (restore func()) {
	var p *func([]float64)
	if f != nil {
		p = &f
	}
	prev := reuseHook.Swap(p)
	return func() { reuseHook.Store(prev) }
}
