package core

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/matrix"
	"repro/internal/partition"
	"repro/internal/trace"
)

// The Report JSON form is the one serialization shared by cmd/summagen
// (in-process and rank mode) and the serving API, so it must round-trip exactly
// (minus the Timeline, which has its own Chrome-trace serialization).
func TestReportJSONRoundTrip(t *testing.T) {
	rep := &Report{
		N:               256,
		Shape:           "square-corner",
		ExecutionTime:   0.125,
		ComputeTime:     0.1,
		CommTime:        0.025,
		GFLOPS:          268.4,
		DynamicEnergyJ:  12.5,
		OptimalityRatio: 1.07,
		PerRank: []trace.Breakdown{
			{Rank: 0, ComputeTime: 0.1, CommTime: 0.02, IdleTime: 0.004, BytesMoved: 4096, Flops: 1e9, Finish: 0.125},
			{Rank: 1, ComputeTime: 0.09, CommTime: 0.025, BytesMoved: 2048, Flops: 5e8, Finish: 0.115},
		},
		Timeline: trace.New(),
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	want := *rep
	want.Timeline = nil // excluded from the wire form by design
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestReportJSONFieldNames(t *testing.T) {
	data, err := json.Marshal(&Report{N: 8, Shape: "1d-rectangle"})
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, key := range []string{`"n"`, `"shape"`, `"execution_time_s"`, `"gflops"`, `"per_rank"`} {
		if !strings.Contains(s, key) {
			t.Fatalf("marshalled report %s missing key %s", s, key)
		}
	}
	if strings.Contains(s, "Timeline") || strings.Contains(s, "timeline") {
		t.Fatalf("timeline must not be serialized: %s", s)
	}
}

// A real Multiply fills OptimalityRatio so the serialized report carries
// the paper's layout-quality score without callers recomputing it.
func TestReportCarriesOptimalityRatio(t *testing.T) {
	n := 24
	l := buildLayout(t, partition.SquareCorner, n, []float64{1, 2, 0.9})
	a := matrix.Random(n, n, rand.New(rand.NewSource(1)))
	b := matrix.Random(n, n, rand.New(rand.NewSource(2)))
	c := matrix.New(n, n)
	rep, err := Multiply(a, b, c, Config{Layout: l})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OptimalityRatio < 1 {
		t.Fatalf("OptimalityRatio = %v, want >= 1", rep.OptimalityRatio)
	}
}
