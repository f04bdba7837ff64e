package obs

import (
	"cmp"
	"slices"
	"strings"
)

// Straggler and load-imbalance analytics over recorded stage spans. The
// paper sizes partitions with functional performance models so that every
// device finishes its DGEMM stage at the same moment; the imbalance ratio
// max/mean of per-rank stage time is exactly the quantity a good partition
// drives to 1.0, and the slowest rank is where a lying FPM (or a straggler
// node) shows up first. The input is any flat span slice — a job
// recorder's tree, or the concatenation of per-rank trees after a
// distributed merge — and only rank-tagged spans contribute.

// RankStageStats aggregates one rank's stage timings.
type RankStageStats struct {
	Rank int `json:"rank"`
	// Per-stage wall seconds, from the rank's bcastA/bcastB/dgemm spans.
	BcastASeconds float64 `json:"bcast_a_seconds"`
	BcastBSeconds float64 `json:"bcast_b_seconds"`
	DgemmSeconds  float64 `json:"dgemm_seconds"`
	// DgemmCellSeconds totals the per-rectangle DGEMM spans (named
	// "dgemm[i0:i1,j0:j1]", one per block of adjacent owned cells the
	// engine fuses into one call) — compute time net of the stage's
	// scheduling gaps — and CkptSeconds the checkpoint save/restore spans.
	DgemmCellSeconds float64 `json:"dgemm_cell_seconds"`
	// CommWaitSeconds is always zero: the engine runs its stages back to
	// back and records no wait inside the dgemm stage. The field remains
	// for existing readers of the JSON form.
	CommWaitSeconds float64 `json:"comm_wait_seconds"`
	CkptSeconds     float64 `json:"ckpt_seconds"`
	// DgemmFlops sums the flops attributes of the rectangle spans, and
	// DgemmGFLOPS is the resulting per-rank compute throughput.
	DgemmFlops  float64 `json:"dgemm_flops"`
	DgemmGFLOPS float64 `json:"dgemm_gflops"`
}

// BusySeconds is the rank's total stage time — the quantity whose spread
// across ranks the imbalance ratio measures.
func (r RankStageStats) BusySeconds() float64 {
	return r.BcastASeconds + r.BcastBSeconds + r.DgemmSeconds
}

// ImbalanceReport summarizes the per-rank stage statistics of one run.
type ImbalanceReport struct {
	// Ranks holds one entry per observed rank, ascending.
	Ranks []RankStageStats `json:"ranks"`
	// ImbalanceRatio is max/mean of the per-rank dgemm stage seconds — the
	// paper's load-balance figure of merit, 1.0 for a perfect partition.
	// Zero when no rank recorded a dgemm stage.
	ImbalanceRatio float64 `json:"imbalance_ratio"`
	// SlowestRank is the rank with the largest BusySeconds (-1 when
	// unknown); SlowestBusySeconds is its total.
	SlowestRank        int     `json:"slowest_rank"`
	SlowestBusySeconds float64 `json:"slowest_busy_seconds"`
}

// AnalyzeStageSpans computes per-rank stage statistics and the imbalance
// ratio from a flat span slice. Returns nil when no rank-tagged stage
// spans are present (observability off, or a service-only trace).
func AnalyzeStageSpans(spans []Span) *ImbalanceReport {
	rep := new(ImbalanceReport)
	if !rep.Analyze(spans) {
		return nil
	}
	return rep
}

// Analyze sets r to what AnalyzeStageSpans(spans) returns, and reports
// whether that is a report rather than nil.
func (r *ImbalanceReport) Analyze(spans []Span) bool {
	// Spans mostly come grouped by rank, as an engine's batch does: the
	// rank changes bound the ranks, and a rank is looked up from the last.
	n, last := 0, -1
	for _, s := range spans {
		if s.Rank >= 0 && s.Rank != last {
			n, last = n+1, s.Rank
		}
	}
	*r = ImbalanceReport{Ranks: make([]RankStageStats, 0, n), SlowestRank: -1}
	get := func(rank int) *RankStageStats {
		for i := len(r.Ranks) - 1; i >= 0; i-- {
			if r.Ranks[i].Rank == rank {
				return &r.Ranks[i]
			}
		}
		r.Ranks = append(r.Ranks, RankStageStats{Rank: rank})
		return &r.Ranks[len(r.Ranks)-1]
	}
	for _, s := range spans {
		if s.Rank < 0 {
			continue
		}
		d := s.Duration().Seconds()
		switch {
		case s.Name == "bcastA":
			get(s.Rank).BcastASeconds += d
		case s.Name == "bcastB":
			get(s.Rank).BcastBSeconds += d
		case s.Name == "dgemm":
			get(s.Rank).DgemmSeconds += d
		case strings.HasPrefix(s.Name, "ckpt-"):
			get(s.Rank).CkptSeconds += d
		case strings.HasPrefix(s.Name, "dgemm["):
			st := get(s.Rank)
			st.DgemmCellSeconds += d
			for _, a := range s.Attrs {
				if a.Key == "flops" && a.Kind == KindFloat {
					st.DgemmFlops += a.Float
				}
			}
		}
	}
	if len(r.Ranks) == 0 {
		return false
	}
	slices.SortFunc(r.Ranks, func(a, b RankStageStats) int { return cmp.Compare(a.Rank, b.Rank) })
	var dgemmSum, dgemmMax float64
	dgemmRanks := 0
	for i := range r.Ranks {
		st := &r.Ranks[i]
		if st.DgemmCellSeconds > 0 {
			st.DgemmGFLOPS = st.DgemmFlops / st.DgemmCellSeconds / 1e9
		}
		if st.DgemmSeconds > 0 {
			dgemmSum += st.DgemmSeconds
			if st.DgemmSeconds > dgemmMax {
				dgemmMax = st.DgemmSeconds
			}
			dgemmRanks++
		}
		if busy := st.BusySeconds(); r.SlowestRank < 0 || busy > r.SlowestBusySeconds {
			r.SlowestRank = st.Rank
			r.SlowestBusySeconds = busy
		}
	}
	if dgemmRanks > 0 && dgemmSum > 0 {
		r.ImbalanceRatio = dgemmMax / (dgemmSum / float64(dgemmRanks))
	}
	return true
}
