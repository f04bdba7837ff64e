package netmpi

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/partition"
)

// processIO returns the read and write syscalls this process has made, from
// /proc/self/io.
func processIO() (reads, writes int64, err error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	found := 0
	for sc := bufio.NewScanner(f); sc.Scan(); {
		key, val, _ := strings.Cut(sc.Text(), ":")
		var n int64
		if _, err := fmt.Sscan(strings.TrimSpace(val), &n); err != nil {
			continue
		}
		switch key {
		case "syscr":
			reads, found = n, found+1
		case "syscw":
			writes, found = n, found+1
		}
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("/proc/self/io has no syscr and syscw")
	}
	return reads, writes, nil
}

// TestSyscallsPerFrame pins what a data frame costs in syscalls on a warm
// 3-rank loopback mesh with heartbeats off: one writev to send it, and a
// header read and one readv of payload and trailer to receive it, either of
// which may first return EAGAIN and park in the netpoller. At N = 128 on the
// four shapes that is 2.29–2.75 reads and 1.00 write per frame; the ceilings
// are 3.0 and 1.05, so a change that adds a syscall per frame fails here.
// The counts are the whole process's, from /proc/self/io.
func TestSyscallsPerFrame(t *testing.T) {
	const n, warm, runs, maxReads, maxWrites = 128, 20, 100, 3.0, 1.05
	if _, _, err := processIO(); err != nil {
		t.Skipf("no syscall counts here: %v", err)
	}
	eps := localWorld(t, 3)
	procs := make([]core.Proc, len(eps))
	for i, ep := range eps {
		procs[i] = ep.Proc()
	}
	frames := func() (sent int64) {
		for _, ep := range eps {
			for _, ps := range ep.Stats().Peers {
				sent += ps.FramesSent
			}
		}
		return sent
	}
	rng := rand.New(rand.NewSource(41))
	a, b, c := matrix.Random(n, n, rng), matrix.Random(n, n, rng), matrix.New(n, n)
	for i, l := range benchLayouts(t, n) {
		shape, cfg := partition.Shapes[i], core.Config{Layout: l}
		for range warm {
			if _, err := core.MultiplyOn(procs, a, b, c, cfg); err != nil {
				t.Fatal(err)
			}
		}
		f0 := frames()
		r0, w0, err := processIO()
		if err != nil {
			t.Fatal(err)
		}
		for range runs {
			if _, err := core.MultiplyOn(procs, a, b, c, cfg); err != nil {
				t.Fatal(err)
			}
		}
		r1, w1, err := processIO()
		if err != nil {
			t.Fatal(err)
		}
		f := float64(frames() - f0)
		if f == 0 {
			t.Fatalf("%v: no frames sent", shape)
		}
		reads, writes := float64(r1-r0)/f, float64(w1-w0)/f
		t.Logf("%v: %.1f frames per multiply, %.2f reads and %.2f writes per frame", shape, f/runs, reads, writes)
		if reads > maxReads || writes > maxWrites {
			t.Errorf("%v: %.2f reads and %.2f writes per frame, ceilings %.2f and %.2f", shape, reads, writes, maxReads, maxWrites)
		}
	}
}
