package sched

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// observedJob runs one observed job under runner and returns its digest and
// the rank-tagged spans on the job recorder, where every runner records.
func observedJob(t *testing.T, runner Runner, spec JobSpec) (string, []obs.Span) {
	t.Helper()
	s := newTestScheduler(t, func(c *Config) {
		c.Observe = true
		c.Runner = runner
	})
	v, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, s, v.ID, 60*time.Second)
	if got.State != StateDone || got.Digest == "" {
		t.Fatalf("job state %v, err %v, digest %q", got.State, got.Err, got.Digest)
	}
	var ranked []obs.Span
	for _, sp := range got.Trace.Spans() {
		if sp.Rank >= 0 {
			ranked = append(ranked, sp)
		}
	}
	return got.Digest, ranked
}

// TestStageOrderAndDigests: every rank, on both runtimes and for every plan
// shape, runs the one sequential schedule — its bcastA stage ends before its
// bcastB stage starts, which ends before its dgemm stage starts, and nothing
// records a comm-wait — and both runtimes produce the same digest.
func TestStageOrderAndDigests(t *testing.T) {
	const n, seed = 64, 9
	shapes := []string{"square-corner", "square-rectangle", "block-rectangle", "1d-rectangle", "column-based"}
	for _, shape := range shapes {
		shape := shape
		t.Run(shape, func(t *testing.T) {
			t.Parallel()
			spec := JobSpec{N: n, Shape: shape, Seed: seed}
			var ref string
			for _, tc := range []struct {
				name   string
				runner Runner
			}{
				{"inproc", &InprocRunner{}},
				{"netmpi", &NetmpiRunner{OpTimeout: 10 * time.Second}},
			} {
				digest, spans := observedJob(t, tc.runner, spec)
				if ref == "" {
					ref = digest
				} else if digest != ref {
					t.Errorf("%s digest %q != inproc digest %q", tc.name, digest, ref)
				}
				stages := map[int]map[string]obs.Span{}
				for _, sp := range spans {
					switch sp.Name {
					case "comm-wait":
						t.Errorf("%s rank %d recorded a comm-wait span", tc.name, sp.Rank)
					case "bcastA", "bcastB", "dgemm":
						if stages[sp.Rank] == nil {
							stages[sp.Rank] = map[string]obs.Span{}
						}
						if _, dup := stages[sp.Rank][sp.Name]; dup {
							t.Errorf("%s rank %d recorded %s twice", tc.name, sp.Rank, sp.Name)
						}
						stages[sp.Rank][sp.Name] = sp
					}
				}
				if len(stages) != 3 {
					t.Fatalf("%s: stage spans from %d ranks, want 3", tc.name, len(stages))
				}
				for rank, st := range stages {
					a, b, d := st["bcastA"], st["bcastB"], st["dgemm"]
					if a.End.IsZero() || b.End.IsZero() || d.End.IsZero() {
						t.Fatalf("%s rank %d: missing or open stage span (bcastA %v, bcastB %v, dgemm %v)", tc.name, rank, a, b, d)
					}
					if b.Start.Before(a.End) || d.Start.Before(b.End) {
						t.Errorf("%s rank %d: stages out of order: bcastA [%v, %v], bcastB [%v, %v], dgemm [%v, %v]",
							tc.name, rank, a.Start, a.End, b.Start, b.End, d.Start, d.End)
					}
				}
			}
		})
	}
}
