//go:build slabcheck

package slab

import (
	"math"
	"strings"
	"testing"
)

// mustPanic runs f and returns its panic message, failing the test if f
// returns normally.
func mustPanic(t *testing.T, f func()) (msg string) {
	t.Helper()
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("no panic")
		}
		msg, _ = v.(string)
	}()
	f()
	return ""
}

// putTwice and putOnce are call sites the panics must name.
func putTwice(s []float64) { Put(s) }
func putOnce(s []float64)  { Put(s) }

// TestCheckedDoublePut: a second Put of a buffer panics, naming both Puts.
func TestCheckedDoublePut(t *testing.T) {
	s := Get(4321)
	putOnce(s)
	msg := mustPanic(t, func() { putTwice(s) })
	if !strings.Contains(msg, "putTwice") || !strings.Contains(msg, "putOnce") {
		t.Fatalf("panic %q does not name both Puts", msg)
	}
	Get(4321) // take the buffer off the free list again
}

// TestCheckedForeignPut: a Put of a class-sized buffer Get never handed out
// panics, naming the Put.
func TestCheckedForeignPut(t *testing.T) {
	_, size := classOf(4321)
	msg := mustPanic(t, func() { putOnce(make([]float64, size)) })
	if !strings.Contains(msg, "putOnce") || !strings.Contains(msg, "did not hand out") {
		t.Fatalf("panic %q", msg)
	}
}

// TestCheckedWriteAfterPut: a write to a buffer after its Put panics at the
// next Get that takes it, naming the Put and that Get; a read after Put sees
// NaN.
func TestCheckedWriteAfterPut(t *testing.T) {
	const n = 5432 // a class no other test of this package uses
	s := Get(n)
	putOnce(s)
	if v := s[7]; !math.IsNaN(v) {
		t.Fatalf("a read after Put saw %v, want NaN", v)
	}
	s[n-1] = 1
	msg := mustPanic(t, func() { Get(n) })
	if !strings.Contains(msg, "putOnce") || !strings.Contains(msg, "TestCheckedWriteAfterPut") {
		t.Fatalf("panic %q does not name the Put and the Get", msg)
	}
}
