// Command summagen runs one parallel matrix-matrix multiplication with a
// chosen partition shape: in this process, for real or simulated, or as one
// rank of a run over TCP.
//
// In one process:
//
//	summagen -n 512 -shape square-corner                  # real numerics, verified
//	summagen -n 25600 -shape 1d-rectangle -mode sim       # paper-scale simulation
//	summagen -n 8192 -mode sim -fpm                       # FPM load-imbalancing split
//
// A non-empty -hosts runs this process as rank -rank of a TCP mesh (the
// paper's future-work scenario of distributed-memory nodes). Start one
// process per rank, on one machine or several:
//
//	summagen -rank 0 -hosts :9000,:9001,:9002 -n 512 &
//	summagen -rank 1 -hosts :9000,:9001,:9002 -n 512 &
//	summagen -rank 2 -hosts :9000,:9001,:9002 -n 512
//
// A and B come from the seeded operand stream the service uses
// (matrix.FillSeeded), so an in-process run prints the digest that
// GET /jobs/{id} reports for the same (N, seed). Every rank generates all of
// A and B (standing in for a distributed input pipeline) and verifies the
// cells of C it owns bit for bit against a one-rank DGEMM (DESIGN.md §6).
//
// In rank mode -op-timeout bounds every blocking frame read or write and
// -heartbeat keeps slow-but-alive ranks from being declared dead: a rank
// whose peer fails exits with status 3 and a diagnostic naming the dead
// peer instead of hanging. Before multiplying, the ranks compare their
// layouts' digests: ranks given different layouts (a differing -shape,
// -speeds, -n or -layout) exit with status 1 and name the rank that
// disagrees. -chaos applies a fault plan in the
// internal/faultinject grammar to this rank's connections — corruption
// (caught by the frame CRC and re-requested), bandwidth-capped links,
// partitions that sever until they heal:
//
//	summagen -rank 1 -hosts :9000,:9001,:9002 -n 512 \
//	    -chaos 'corrupt:rank=1,after=2,fires=1,seed=7'
//
// The run must still verify: chaos changes the path, never the product.
//
// Exit status: 0 success, 1 error, 2 usage error, 3 peer failure.
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/balance"
	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/faultinject"
	"repro/internal/fpm"
	"repro/internal/matrix"
	"repro/internal/netmpi"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/stats"
	"repro/internal/trace"
)

// options is one invocation's command line.
type options struct {
	n                                      int
	shape, mode, speeds, layout, traceOut  string
	fpm, verify, ranks, grid, repeat, json bool
	seed                                   int64

	// Rank mode.
	hosts, chaos                                    string
	rank, retries                                   int
	opTimeout, heartbeat, dialTimeout, retryBackoff time.Duration
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil)) }

// run executes one invocation and returns its exit status. ln, when not
// nil, is this rank's pre-bound listener in rank mode.
func run(args []string, stdout, stderr io.Writer, ln net.Listener) int {
	var o options
	fs := flag.NewFlagSet("summagen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&o.n, "n", 512, "matrix dimension N")
	fs.StringVar(&o.shape, "shape", "square-corner", "partition shape: square-corner|square-rectangle|block-rectangle|1d-rectangle|l-rectangle")
	fs.StringVar(&o.mode, "mode", "real", "execution mode: real|sim (sim runs in this process only)")
	fs.StringVar(&o.speeds, "speeds", "1.0,2.0,0.9", "constant relative speeds, comma separated, one per rank")
	fs.BoolVar(&o.fpm, "fpm", false, "partition with the FPM load-imbalancing algorithm (HCLServer1 profiles)")
	fs.StringVar(&o.layout, "layout", "", "load the partition layout from this JSON file instead of building it (ship one file to every rank)")
	fs.BoolVar(&o.verify, "verify", true, "check the cells of C this run owns bit for bit against a one-rank DGEMM (ignored by -mode sim)")
	fs.Int64Var(&o.seed, "seed", 1, "operand seed (must match across ranks)")
	fs.BoolVar(&o.ranks, "ranks", false, "print the per-rank breakdown")
	fs.BoolVar(&o.grid, "grid", false, "render the partition layout")
	fs.BoolVar(&o.repeat, "repeat", false, "repeat until the mean execution time is within the paper's 95% CI / 2.5% precision (Student's t-test); in-process real mode")
	fs.StringVar(&o.traceOut, "trace", "", "write a Chrome trace-event JSON of the run to this file (in rank mode, rank 0 merges every rank's shipped lane, clock-rebased)")
	fs.BoolVar(&o.json, "json", false, "print the report as JSON (the serialization summagen-serve also emits) instead of text")
	fs.StringVar(&o.hosts, "hosts", "", "comma-separated listen addresses, one per rank; non-empty runs this process as rank -rank over TCP")
	fs.IntVar(&o.rank, "rank", -1, "this process's rank, with -hosts")
	fs.DurationVar(&o.opTimeout, "op-timeout", 30*time.Second, "per-operation deadline before a silent peer is declared failed (0 disables)")
	fs.DurationVar(&o.heartbeat, "heartbeat", 2*time.Second, "heartbeat interval keeping slow ranks alive under -op-timeout (0 disables)")
	fs.DurationVar(&o.dialTimeout, "dial-timeout", 30*time.Second, "total budget for establishing the mesh")
	fs.IntVar(&o.retries, "retries", 3, "reconnect attempts after a transient connection loss")
	fs.DurationVar(&o.retryBackoff, "retry-backoff", 10*time.Millisecond, "initial reconnect backoff (doubles per attempt)")
	fs.StringVar(&o.chaos, "chaos", "", "fault plan applied to this rank's connections, in the faultinject grammar (e.g. 'corrupt:rank=1,after=2,fires=1'; testing only)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := o.usage(); err != nil {
		fmt.Fprintln(stderr, "summagen:", err)
		return 2
	}
	err := o.multiply(stdout, stderr, ln)
	var pf *netmpi.PeerFailedError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &pf):
		// Tag the diagnostic with both ranks so a log aggregator can tell
		// detector from victim; status 3 tells a supervisor to restart.
		fmt.Fprintf(stderr, "summagen: [rank %d] peer rank %d failed during %s: %v\n", o.rank, pf.Rank, pf.Op, err)
		return 3
	case o.hosts != "":
		fmt.Fprintf(stderr, "summagen: [rank %d] %v\n", o.rank, err)
	default:
		fmt.Fprintln(stderr, "summagen:", err)
	}
	return 1
}

// usage rejects flag combinations that name no run.
func (o *options) usage() error {
	if o.mode != "real" && o.mode != "sim" {
		return fmt.Errorf("unknown -mode %q (want real or sim)", o.mode)
	}
	if o.hosts == "" {
		if o.rank != -1 {
			return errors.New("-rank needs -hosts")
		}
		return nil
	}
	if p := len(strings.Split(o.hosts, ",")); o.rank < 0 || o.rank >= p {
		return fmt.Errorf("-rank %d is not one of the %d ranks -hosts names", o.rank, p)
	}
	if o.mode == "sim" {
		return errors.New("-hosts runs ranks over TCP; -mode sim runs in this process only")
	}
	if o.repeat {
		return errors.New("-repeat runs in this process only; drop -hosts")
	}
	return nil
}

func (o *options) multiply(stdout, stderr io.Writer, ln net.Listener) error {
	info := stdout // progress lines; stdout stays clean for -json consumers
	if o.json {
		info = stderr
	}
	pl := device.HCLServer1()
	layout, shape, err := o.buildLayout(pl)
	if err != nil {
		return err
	}
	if o.grid {
		fmt.Fprintf(info, "layout (%dx%d grid, areas %v):\n%s\n", layout.GridRows, layout.GridCols, layout.Areas(), layout.Render(32))
	}
	if o.mode == "sim" {
		rep, err := core.Simulate(core.Config{Layout: layout, Platform: pl})
		if err != nil {
			return err
		}
		rep.Shape = shape
		return o.finish(stdout, info, rep, "sim", "", nil, nil)
	}

	n := layout.N
	a, b, c := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
	matrix.FillSeeded(o.seed, a, b)
	// Stage spans are always recorded: one multiply affords the recorder,
	// and it buys the imbalance report, span lanes in -trace and, in rank
	// mode, the span trees shipped to rank 0.
	rec := obs.NewRecorder()
	var rep *core.Report
	var remotes []obs.RemoteTrace
	owner, mode := -1, o.mode // owner: the rank whose cells this process holds, -1 for all
	if o.hosts == "" {
		root := rec.Root("multiply").Int("n", int64(n))
		rep, err = core.Multiply(a, b, c, core.Config{Layout: layout, Span: root})
		root.End()
		if err != nil {
			return err
		}
		rep.Imbalance = obs.AnalyzeStageSpans(rec.Spans())
	} else {
		owner, mode = o.rank, fmt.Sprintf("rank %d of %d", o.rank, layout.P)
		rep, remotes, err = o.runRank(layout, a, b, c, rec, stderr, ln)
		if err != nil {
			// The mesh may be poisoned, so nothing was shipped, but the
			// rank-local trace is what a post-mortem wants. Best effort:
			// the run's error is the one to report.
			_ = writeTrace(o.traceOut, rec, nil, nil)
			return err
		}
	}
	rep.Shape = shape
	if o.verify {
		if err := verifyCells(layout, owner, a, b, c); err != nil {
			return err
		}
		fmt.Fprintln(info, "verification: OK")
	}
	digest := ""
	if owner < 0 {
		digest = matrix.Digest(c)
	}
	if o.repeat {
		// The paper's measurement protocol: re-execute until the sample
		// mean lies in the 95 % confidence interval with 2.5 % precision.
		res, err := stats.MeasureUntil(stats.DefaultProtocol(), func() (float64, error) {
			r, err := core.Multiply(a, b, c, core.Config{Layout: layout})
			if err != nil {
				return 0, err
			}
			return r.ExecutionTime, nil
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(info, "protocol: %d runs, mean %.6f s ± %.6f (95%% CI), converged=%v\n",
			len(res.Samples), res.Mean, res.HalfWidth, res.Converged)
	}
	return o.finish(stdout, info, rep, mode, digest, rec, remotes)
}

// buildLayout loads the -layout file or builds -shape from -fpm or -speeds.
// The shape name is "" for a loaded layout.
func (o *options) buildLayout(pl *device.Platform) (*partition.Layout, string, error) {
	if o.layout != "" {
		f, err := os.Open(o.layout)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		l, err := partition.LoadLayout(f)
		return l, "", err
	}
	shape, err := partition.ParseShape(o.shape)
	if err != nil {
		return nil, "", err
	}
	var areas []int
	if o.fpm {
		models := make([]fpm.Model, pl.P())
		for i, d := range pl.Devices {
			models[i] = d.Speed
		}
		areas, err = balance.FPMAreas(o.n, models)
		balance.Positive(areas)
	} else {
		var speeds []float64
		if speeds, err = balance.ParseSpeeds(o.speeds); err == nil {
			areas, err = balance.Proportional(o.n*o.n, speeds)
		}
	}
	if err != nil {
		return nil, "", err
	}
	l, err := partition.Build(shape, o.n, areas)
	return l, shape.String(), err
}

// runRank joins the TCP mesh as rank o.rank, computes this rank's cells of
// C and, after a successful run, ships span trees to rank 0. The report is
// this rank's view: one PerRank entry, parallel time = this rank's elapsed
// time, stage analytics cluster-wide on rank 0 and rank-local elsewhere.
func (o *options) runRank(layout *partition.Layout, a, b, c *matrix.Dense, rec *obs.Recorder, logw io.Writer, ln net.Listener) (*core.Report, []obs.RemoteTrace, error) {
	addrs := strings.Split(o.hosts, ",")
	if layout.P != len(addrs) {
		return nil, nil, fmt.Errorf("layout has %d processors but %d hosts given", layout.P, len(addrs))
	}
	logger := slog.New(slog.NewTextHandler(logw, nil)).With("rank", o.rank)
	logger.Info("joining mesh", "addrs", fmt.Sprint(addrs))
	var wrap func(peer int, c net.Conn) net.Conn
	if o.chaos != "" {
		plan, err := faultinject.ParsePlan(o.chaos)
		if err != nil {
			return nil, nil, fmt.Errorf("-chaos: %w", err)
		}
		plan.SkipCount = netmpi.IsHeartbeatFrame
		logger.Warn("CHAOS: fault plan armed on this rank's connections", "plan", o.chaos)
		wrap = faultinject.New(plan).WrapConn(o.rank)
	}
	ep, err := netmpi.Dial(netmpi.Config{
		Rank:              o.rank,
		Addrs:             addrs,
		Listener:          ln,
		DialTimeout:       o.dialTimeout,
		OpTimeout:         o.opTimeout,
		HeartbeatInterval: o.heartbeat,
		MaxRetries:        o.retries,
		RetryBackoff:      o.retryBackoff,
		WrapConn:          wrap,
	})
	if err != nil {
		return nil, nil, err
	}
	defer ep.Close()
	// Ranks that built different layouts would wait on each other's
	// broadcasts for ever, heartbeats keeping every op alive: compare first.
	if err := ep.AgreeDigest(layout.Digest()); err != nil {
		return nil, nil, fmt.Errorf("layout agreement: %w", err)
	}

	n := layout.N
	root := rec.Root("rank").OnRank(o.rank).Int("rank", int64(o.rank)).Int("n", int64(n))
	start := time.Now()
	err = core.RunRank(ep.Proc(), core.Config{Layout: layout, Span: root}, a, b, c)
	root.End()
	if err != nil {
		return nil, nil, err
	}
	elapsed := time.Since(start).Seconds()

	remotes := shipSpans(ep, o.rank, layout.P, rec, logger)
	spans := append([]obs.Span(nil), rec.Spans()...)
	for _, rt := range remotes {
		spans = append(spans, rt.Spans...)
	}
	comp, comm, bytes := ep.Breakdown()
	rep := &core.Report{
		N:             n,
		ExecutionTime: elapsed,
		ComputeTime:   comp,
		CommTime:      comm,
		PerRank: []trace.Breakdown{{
			Rank:        o.rank,
			ComputeTime: comp,
			CommTime:    comm,
			BytesMoved:  int(bytes),
			Finish:      elapsed,
		}},
		Imbalance: obs.AnalyzeStageSpans(spans),
	}
	if elapsed > 0 {
		nf := float64(n)
		rep.GFLOPS = 2 * nf * nf * nf / elapsed / 1e9
	}
	if ratio, err := partition.OptimalityRatio(layout); err == nil {
		rep.OptimalityRatio = ratio
	}
	return rep, remotes, nil
}

// shipSpans moves span trees to rank 0 after a successful run. On rank 0
// it returns one RemoteTrace per peer rank (annotated with that link's
// estimated clock offset); on other ranks it sends and returns nil. Ships
// are best-effort: a failed send or receive costs the lane, never the run.
func shipSpans(ep *netmpi.Endpoint, rank, p int, rec *obs.Recorder, logger *slog.Logger) []obs.RemoteTrace {
	if rank != 0 {
		if err := ep.SendSpanBlob(0, obs.EncodeRankTrace(rank, rec)); err != nil {
			logger.Warn("span ship failed", "err", err)
		}
		return nil
	}
	var remotes []obs.RemoteTrace
	for peer := 1; peer < p; peer++ {
		blob, err := ep.RecvSpanBlob(peer)
		if err != nil {
			logger.Warn("span receive failed", "peer", peer, "err", err)
			continue
		}
		rt, err := obs.DecodeRankTrace(blob)
		if err != nil {
			logger.Warn("span decode failed", "peer", peer, "err", err)
			continue
		}
		remotes = append(remotes, rt)
	}
	// Annotate offsets after the receive loop: the blocking reads above
	// are where heartbeats (and so clock samples) were last consumed.
	offsets := map[int]netmpi.PeerStats{}
	for _, ps := range ep.Stats().Peers {
		offsets[ps.Peer] = ps
	}
	for i := range remotes {
		if ps, ok := offsets[remotes[i].Rank]; ok && ps.ClockSamples > 0 {
			remotes[i].OffsetSeconds = ps.ClockOffsetSeconds
			remotes[i].UncertaintySeconds = ps.ClockUncertaintySeconds
		}
	}
	return remotes
}

// verifyCells checks the cells of C that rank owns (all of them when rank
// is negative) bit for bit against a one-rank DGEMM: the exact-result
// contract (DESIGN.md §6).
func verifyCells(l *partition.Layout, rank int, a, b, c *matrix.Dense) error {
	n := l.N
	want := matrix.New(n, n)
	if err := blas.Dgemm(n, n, n, 1, a.Data, a.Stride, b.Data, b.Stride, 0, want.Data, want.Stride); err != nil {
		return err
	}
	for i := 0; i < l.GridRows; i++ {
		for j := 0; j < l.GridCols; j++ {
			if rank >= 0 && l.OwnerAt(i, j) != rank {
				continue
			}
			r0, c0 := l.RowStart(i), l.ColStart(j)
			for r := r0; r < r0+l.RowHeights[i]; r++ {
				for k := c0; k < c0+l.ColWidths[j]; k++ {
					if got, ref := c.At(r, k), want.At(r, k); math.Float64bits(got) != math.Float64bits(ref) {
						return fmt.Errorf("verification FAILED: C[%d,%d] = %v, a one-rank DGEMM gives %v", r, k, got, ref)
					}
				}
			}
		}
	}
	return nil
}

// finish prints the report (to stdout) and writes the -trace file.
func (o *options) finish(stdout, info io.Writer, rep *core.Report, mode, digest string, rec *obs.Recorder, remotes []obs.RemoteTrace) error {
	if o.json {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		// The Report fields, plus the digest GET /jobs/{id} reports.
		if err := enc.Encode(struct {
			*core.Report
			Digest string `json:"digest,omitempty"`
		}{rep, digest}); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(stdout, "shape=%s N=%d mode=%s\n", cmp.Or(rep.Shape, o.layout), rep.N, mode)
		fmt.Fprintf(stdout, "execution time:     %.6f s\n", rep.ExecutionTime)
		fmt.Fprintf(stdout, "computation time:   %.6f s (max over ranks)\n", rep.ComputeTime)
		fmt.Fprintf(stdout, "communication time: %.6f s (max over ranks)\n", rep.CommTime)
		fmt.Fprintf(stdout, "performance:        %.1f GFLOPS\n", rep.GFLOPS)
		if rep.DynamicEnergyJ > 0 {
			fmt.Fprintf(stdout, "dynamic energy:     %.1f J\n", rep.DynamicEnergyJ)
		}
		if imb := rep.Imbalance; imb != nil && imb.ImbalanceRatio > 0 && len(imb.Ranks) > 1 {
			fmt.Fprintf(stdout, "load imbalance:     %.3f (max/mean dgemm stage, slowest rank %d)\n",
				imb.ImbalanceRatio, imb.SlowestRank)
		}
		if digest != "" {
			fmt.Fprintf(stdout, "digest:             %s\n", digest)
		}
		if o.ranks {
			fmt.Fprint(stdout, trace.Render(rep.PerRank))
		}
	}
	if o.traceOut == "" {
		return nil
	}
	if err := writeTrace(o.traceOut, rec, rep.Timeline, remotes); err != nil {
		return err
	}
	fmt.Fprintf(info, "trace written to %s (open in chrome://tracing or Perfetto)\n", o.traceOut)
	return nil
}

// writeTrace writes a Chrome trace: the recorded stage spans (pid 1, one
// thread per rank), the engine timeline (pid 2) and one clock-rebased lane
// per shipped remote trace, on one clock. With no recorder (-mode sim) it
// is the timeline alone. A "" path writes nothing.
func writeTrace(path string, rec *obs.Recorder, tl *trace.Timeline, remotes []obs.RemoteTrace) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if rec != nil {
		err = obs.WriteDistributedChromeTrace(f, rec, tl, 0, remotes)
	} else {
		err = trace.WriteChromeTrace(f, tl)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
