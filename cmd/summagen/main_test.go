package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/trace"
)

// TestDigestMatchesScheduler: an in-process run prints, for every paper
// shape, the digest the scheduler reports for a job of the same (N, seed).
func TestDigestMatchesScheduler(t *testing.T) {
	s, err := sched.New(sched.Config{Planner: &sched.Planner{Platform: device.HCLServer1()}, Runner: &sched.InprocRunner{}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Drain(context.Background()) }()
	for _, shape := range []string{"square-corner", "square-rectangle", "block-rectangle", "1d-rectangle"} {
		v, err := s.Submit(sched.JobSpec{N: 96, Shape: shape, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(60 * time.Second); !v.State.Terminal(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: job never finished", shape)
			}
			v, _ = s.Get(v.ID)
		}
		if v.State != sched.StateDone || v.Digest == "" {
			t.Fatalf("%s: job state %v, err %v", shape, v.State, v.Err)
		}

		var stdout, stderr bytes.Buffer
		if code := run([]string{"-n", "96", "-seed", "7", "-shape", shape, "-json"}, &stdout, &stderr, nil); code != 0 {
			t.Fatalf("%s: exit %d: %s", shape, code, stderr.String())
		}
		var rep struct {
			Shape  string `json:"shape"`
			Digest string `json:"digest"`
		}
		if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
			t.Fatalf("%s: stdout is not one JSON report (%v): %s", shape, err, stdout.String())
		}
		if rep.Shape != shape || rep.Digest != v.Digest {
			t.Errorf("%s: report shape %q digest %q, scheduler digest %q", shape, rep.Shape, rep.Digest, v.Digest)
		}
		if !strings.Contains(stderr.String(), "verification: OK") {
			t.Errorf("%s: no verification line on stderr: %s", shape, stderr.String())
		}
	}
}

// TestRankMode: three rank-mode runs over loopback TCP in one process each
// verify the cells their rank owns.
func TestRankMode(t *testing.T) {
	codes, outs, errs := runRanks(t, func(int) []string {
		return []string{"-n", "80", "-seed", "7", "-op-timeout", "20s", "-dial-timeout", "20s"}
	})
	for r := range codes {
		if codes[r] != 0 || !strings.Contains(outs[r].String(), "verification: OK") {
			t.Errorf("rank %d: exit %d\nstdout: %s\nstderr: %s", r, codes[r], outs[r].String(), errs[r].String())
		}
	}
}

// TestRankModeTrace: in rank mode every rank ships its stage spans to rank 0,
// whose -trace file holds one remote lane (pid ChromePIDRemoteBase + r) per
// peer r with that rank's bcastA, bcastB and dgemm spans, and whose report's
// imbalance covers all three ranks; rank 1's covers rank 1 alone. Rank 0's
// per_rank entry is the engine's record of rank 0, flops included.
func TestRankModeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	codes, outs, errs := runRanks(t, func(r int) []string {
		args := []string{"-n", "80", "-seed", "7", "-op-timeout", "20s", "-dial-timeout", "20s"}
		switch r {
		case 0:
			args = append(args, "-json", "-trace", path)
		case 1:
			args = append(args, "-json")
		}
		return args
	})
	for r := range codes {
		if codes[r] != 0 {
			t.Fatalf("rank %d: exit %d\nstdout: %s\nstderr: %s", r, codes[r], outs[r].String(), errs[r].String())
		}
	}
	var rep struct {
		Imbalance *obs.ImbalanceReport `json:"imbalance"`
		PerRank   []trace.Breakdown    `json:"per_rank"`
	}
	if err := json.Unmarshal(outs[0].Bytes(), &rep); err != nil {
		t.Fatalf("rank 0 stdout is not one JSON report (%v): %s", err, outs[0].String())
	}
	if rep.Imbalance == nil || len(rep.Imbalance.Ranks) != 3 {
		t.Errorf("rank 0 imbalance = %+v, want 3 ranks", rep.Imbalance)
	}
	if len(rep.PerRank) != 1 || rep.PerRank[0].Rank != 0 || rep.PerRank[0].Flops <= 0 {
		t.Errorf("rank 0 per_rank = %+v, want one entry, rank 0's, with its flops", rep.PerRank)
	}
	var rep1 struct {
		Imbalance *obs.ImbalanceReport `json:"imbalance"`
	}
	if err := json.Unmarshal(outs[1].Bytes(), &rep1); err != nil {
		t.Fatalf("rank 1 stdout is not one JSON report (%v): %s", err, outs[1].String())
	}
	if rep1.Imbalance == nil || len(rep1.Imbalance.Ranks) != 1 || rep1.Imbalance.Ranks[0].Rank != 1 {
		t.Errorf("rank 1 imbalance = %+v, want rank 1 alone", rep1.Imbalance)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []trace.ChromeEvent
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace is not a JSON event array: %v", err)
	}
	lanes := map[int]map[string]bool{}
	for _, e := range events {
		if lanes[e.PID] == nil {
			lanes[e.PID] = map[string]bool{}
		}
		lanes[e.PID][e.Name] = true
	}
	for r := 1; r < 3; r++ {
		pid := obs.ChromePIDRemoteBase + r
		for _, span := range []string{"bcastA", "bcastB", "dgemm"} {
			if !lanes[pid][span] {
				t.Errorf("rank %d's lane (pid %d) has no %s span", r, pid, span)
			}
		}
	}
}

// TestRankModeLayoutMismatch: a mesh whose ranks built different layouts
// (rank 2 a 1d-rectangle, the others a square-corner) does not multiply.
// Every rank exits 1 within 10 s with an error naming a disagreeing rank
// and both layout digests; without the agreement the ranks wait on each
// other's broadcasts for ever, heartbeats keeping every op alive.
func TestRankModeLayoutMismatch(t *testing.T) {
	codes, _, errs := runRanksWithin(t, 10*time.Second, func(r int) []string {
		shape := "square-corner"
		if r == 2 {
			shape = "1d-rectangle"
		}
		return []string{"-n", "96", "-shape", shape, "-op-timeout", "5s", "-dial-timeout", "10s"}
	})
	mismatch := regexp.MustCompile(`layout agreement: netmpi: rank \d has digest [0-9a-f]{16}, rank \d has [0-9a-f]{16}`)
	for r := range codes {
		if codes[r] != 1 || !mismatch.MatchString(errs[r].String()) {
			t.Errorf("rank %d: exit %d, stderr: %s; want 1 and the layout mismatch", r, codes[r], errs[r].String())
		}
	}
}

// TestRankModeCorruptFrameExitsThree: one corrupt frame — a panel of an
// N = 512 multiply, larger than any frame a sender could keep for a resend —
// fails its peer, and every rank exits 3 well inside one -op-timeout, with
// the default heartbeat feeding every rank's op deadline. The rank that read
// the frame names the CRC failure.
func TestRankModeCorruptFrameExitsThree(t *testing.T) {
	codes, _, errs := runRanksWithin(t, 10*time.Second, func(int) []string {
		return []string{"-n", "512", "-chaos", "corrupt:rank=1,after=2,fires=1"}
	})
	crc := false
	for r := range codes {
		if codes[r] != 3 {
			t.Errorf("rank %d: exit %d, want 3\nstderr: %s", r, codes[r], errs[r].String())
		}
		crc = crc || strings.Contains(errs[r].String(), "corrupt frame from rank 1")
	}
	if !crc {
		t.Error("no rank reported the corrupt frame")
	}
}

// TestRankModeClosesAfterEveryRankIsDone: on links capped at 1 MB/s the
// ranks finish at different times, and a rank that closes its connections
// while a peer still reads what it sent must not cut that read short. Every
// rank verifies its cells and exits 0.
func TestRankModeClosesAfterEveryRankIsDone(t *testing.T) {
	codes, outs, errs := runRanksWithin(t, 20*time.Second, func(int) []string {
		return []string{"-n", "512", "-chaos", "slowlink:rate=1m", "-op-timeout", "10s"}
	})
	for r := range codes {
		if codes[r] != 0 || !strings.Contains(outs[r].String(), "verification: OK") {
			t.Errorf("rank %d: exit %d\nstdout: %s\nstderr: %s", r, codes[r], outs[r].String(), errs[r].String())
		}
	}
}

// runRanksWithin is runRanks that fails the test if the ranks have not all
// returned within d.
func runRanksWithin(t *testing.T, d time.Duration, args func(r int) []string) ([]int, []bytes.Buffer, []bytes.Buffer) {
	t.Helper()
	done := make(chan struct{})
	var codes []int
	var outs, errs []bytes.Buffer
	go func() {
		defer close(done)
		codes, outs, errs = runRanks(t, args)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("ranks still running after %v", d)
	}
	return codes, outs, errs
}

// runRanks runs three rank-mode invocations over loopback TCP in this
// process, rank r with the -rank and -hosts flags plus args(r), and returns
// each rank's exit status, stdout and stderr.
func runRanks(t *testing.T, args func(r int) []string) ([]int, []bytes.Buffer, []bytes.Buffer) {
	const p = 3
	lns := make([]net.Listener, p)
	addrs := make([]string, p)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Error(err)
			return nil, nil, nil
		}
		defer ln.Close()
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	var wg sync.WaitGroup
	codes := make([]int, p)
	outs := make([]bytes.Buffer, p)
	errs := make([]bytes.Buffer, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			flags := append([]string{"-rank", strconv.Itoa(r), "-hosts", strings.Join(addrs, ",")}, args(r)...)
			codes[r] = run(flags, &outs[r], &errs[r], lns[r])
		}(r)
	}
	wg.Wait()
	return codes, outs, errs
}

// TestUsageErrors: flag combinations that name no run exit with status 2
// before anything runs.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-hosts", "127.0.0.1:1,127.0.0.1:2,127.0.0.1:3", "-rank", "0", "-mode", "sim"},
		{"-hosts", "127.0.0.1:1,127.0.0.1:2,127.0.0.1:3", "-rank", "3"},
		{"-hosts", "127.0.0.1:1,127.0.0.1:2,127.0.0.1:3", "-rank", "0", "-repeat"},
		{"-rank", "1"},
		{"-mode", "fast"},
		{"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr, nil); code != 2 || stderr.Len() == 0 {
			t.Errorf("%v: exit %d, stderr %q; want 2 and a message", args, code, stderr.String())
		}
	}
}
