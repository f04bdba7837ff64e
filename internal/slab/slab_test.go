package slab

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

// TestClassRounding: every length maps to a class whose buffers are long
// enough for it, rounded up by less than 12.5 %, and a class's own size maps
// back to the class — so a recycled buffer serves every request of its
// class and is never dropped for being short.
func TestClassRounding(t *testing.T) {
	prevK, prevSize := -1, -1
	for n := 0; n < 1<<16; n++ {
		k, size := classOf(n)
		if size < n || (n >= 16 && 8*(size-n) >= n) {
			t.Fatalf("n=%d: class size %d (rounding %.3f)", n, size, float64(size-n)/float64(n))
		}
		if k2, size2 := classOf(size); k2 != k || size2 != size {
			t.Fatalf("n=%d: class %d size %d, but the size maps to class %d size %d", n, k, size, k2, size2)
		}
		if k < prevK || (k == prevK) != (size == prevSize) {
			t.Fatalf("n=%d: class %d size %d after class %d size %d", n, k, size, prevK, prevSize)
		}
		prevK, prevSize = k, size
	}
	for _, n := range []int{1 << 20, 3<<20 + 1, 512 * 512, 1<<40 - 1} {
		k, size := classOf(n)
		if k >= len(classes) || size < n || 8*(size-n) >= n {
			t.Fatalf("n=%d: class %d size %d", n, k, size)
		}
	}
}

// TestRecycledAcrossGC: a buffer put back is the next one of its class
// handed out, even after garbage collections (a sync.Pool would have dropped
// it), and a request of any length in the class gets it.
func TestRecycledAcrossGC(t *testing.T) {
	const n = 1000
	a := Get(n)
	Put(a)
	runtime.GC()
	runtime.GC()
	_, size := classOf(n)
	b := Get(size) // the longest request of the class
	if &b[:1][0] != &a[:1][0] {
		t.Fatal("recycled buffer lost across a GC")
	}
	if len(b) != size {
		t.Fatalf("len %d, want %d", len(b), size)
	}
	Put(b)
	if allocs := testing.AllocsPerRun(100, func() { Put(Get(n)) }); allocs != 0 {
		t.Fatalf("warm Get/Put allocates %v times", allocs)
	}
}

// TestPerClassCap: a class retains at most maxPerClass buffers, and a slice
// that did not come from Get is never recycled.
func TestPerClassCap(t *testing.T) {
	const n = 777 // a class no other test of this package uses
	k, _ := classOf(n)
	var held [][]float64
	for i := 0; i < maxPerClass+5; i++ {
		held = append(held, Get(n))
	}
	for _, s := range held {
		Put(s)
	}
	if got := len(classes[k].free); got != maxPerClass {
		t.Fatalf("class holds %d buffers, cap %d", got, maxPerClass)
	}
	for range held {
		Get(n)
	}
	Put(make([]float64, n)) // capacity 777 is not a class size
	if got := len(classes[k].free); got != 0 {
		t.Fatalf("foreign slice recycled: class holds %d", got)
	}
}

// TestReuseHookSeesRecycledOnly: the hook sees recycled buffers, not fresh
// ones, and restore removes it.
func TestReuseHookSeesRecycledOnly(t *testing.T) {
	const n = 333
	var seen int
	restore := SetReuseHook(func(s []float64) {
		seen++
		for i := range s {
			s[i] = math.NaN()
		}
	})
	s := Get(n)
	if seen != 0 {
		t.Fatal("hook saw a fresh buffer")
	}
	Put(s)
	s = Get(n)
	if seen != 1 || !math.IsNaN(s[n-1]) {
		t.Fatalf("hook calls %d, last element %g", seen, s[n-1])
	}
	restore()
	Put(s)
	Get(n)
	if seen != 1 {
		t.Fatal("hook still installed after restore")
	}
}

// TestReachUpToTwiceTheLength: a request whose class is empty is served by a
// recycled buffer of up to twice its length — nearby sizes share buffers —
// but never by a longer one, and never by a shorter one.
func TestReachUpToTwiceTheLength(t *testing.T) {
	const n = 50000 // a size range no other test uses
	k, size := classOf(n)
	for j := k - 8; j <= k+reach+1; j++ { // whatever earlier runs left there
		for classes[j].pop() != nil {
		}
	}
	_, twiceSize := classOf(2 * size)       // class k+8: one doubling up
	_, beyondSize := classOf(2*size + 1)    // class k+9
	_, shorterSize := classOf(size * 7 / 8) // the class below k
	twice := make([]float64, twiceSize)
	beyond := make([]float64, beyondSize)
	shorter := make([]float64, shorterSize)
	Put(beyond)
	Put(shorter)
	if s := Get(n); &s[:1][0] == &beyond[0] || &s[:1][0] == &shorter[0] {
		t.Fatal("a request took a buffer outside its reach")
	}
	Put(twice)
	if s := Get(n); &s[:1][0] != &twice[0] || len(s) != n {
		t.Fatal("a request did not take the free buffer one doubling up")
	}
}

// TestConcurrentGetPut: goroutines getting and putting buffers of nearby
// sizes at once never hold the same buffer: each stamps its buffer with its
// own id while it holds it and checks the stamp before putting it back.
// Meant for -race.
func TestConcurrentGetPut(t *testing.T) {
	var wg sync.WaitGroup
	for g := 1; g <= 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				s := Get(3000 + 97*((g*i)%23))
				for j := range s {
					s[j] = float64(g)
				}
				runtime.Gosched()
				for j := range s {
					if s[j] != float64(g) {
						t.Errorf("goroutine %d: buffer written by %g while held", g, s[j])
						return
					}
				}
				Put(s)
			}
		}()
	}
	wg.Wait()
}
