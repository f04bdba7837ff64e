// Command summagen-node runs one rank of a distributed SummaGen over TCP —
// the paper's future-work scenario of distributed-memory nodes. Start one
// process per rank (on one machine or several):
//
//	summagen-node -rank 0 -hosts :9000,:9001,:9002 -n 512 &
//	summagen-node -rank 1 -hosts :9000,:9001,:9002 -n 512 &
//	summagen-node -rank 2 -hosts :9000,:9001,:9002 -n 512
//
// Every rank generates the same A and B from the shared seed (standing in
// for a distributed input pipeline), computes its own partition of C, and
// verifies its partition against a local serial reference.
//
// Fault tolerance: -op-timeout bounds every blocking frame read/write and
// -heartbeat keeps slow-but-alive ranks from being declared dead. A rank
// whose peer fails exits with status 2 and a rank-tagged diagnostic naming
// the dead peer, instead of hanging.
//
// -chaos takes a fault plan in the internal/faultinject grammar and
// applies it to this rank's connections — corruption (caught by the frame
// CRC and re-requested), bandwidth-capped links, partitions that sever
// until they heal:
//
//	summagen-node -rank 1 -hosts :9000,:9001,:9002 -n 512 \
//	    -chaos 'corrupt:rank=1,after=2,fires=1,seed=7'
//
// The run must still verify: chaos changes the path, never the product.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"strings"
	"time"

	"math/rand"

	"repro/internal/balance"
	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/matrix"
	"repro/internal/netmpi"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/trace"
)

// opts bundles the command-line configuration for one rank.
type opts struct {
	rank      int
	hosts     string
	n         int
	shapeName string
	speedsArg string
	seed      int64
	verify    bool
	layoutIn  string
	jsonOut   bool
	traceOut  string

	opTimeout    time.Duration
	heartbeat    time.Duration
	dialTimeout  time.Duration
	retries      int
	retryBackoff time.Duration
	chaosPlan    string
}

func main() {
	var o opts
	flag.IntVar(&o.rank, "rank", -1, "this process's rank")
	flag.StringVar(&o.hosts, "hosts", "", "comma-separated listen addresses, one per rank")
	flag.IntVar(&o.n, "n", 512, "matrix dimension N")
	flag.StringVar(&o.shapeName, "shape", "square-corner", "partition shape")
	flag.StringVar(&o.speedsArg, "speeds", "1.0,2.0,0.9", "constant relative speeds")
	flag.Int64Var(&o.seed, "seed", 1, "matrix random seed (must match across ranks)")
	flag.BoolVar(&o.verify, "verify", true, "verify this rank's C partition against a serial reference")
	flag.StringVar(&o.layoutIn, "layout", "", "load the partition layout from this JSON file instead of computing it (ship one file to every rank)")
	flag.BoolVar(&o.jsonOut, "json", false, "print this rank's report as JSON (the serialization shared with summagen and summagen-serve)")
	flag.StringVar(&o.traceOut, "trace", "", "write this rank's Chrome trace to this file (rank 0 merges every rank's shipped lane, clock-rebased)")
	flag.DurationVar(&o.opTimeout, "op-timeout", 30*time.Second, "per-operation deadline before a silent peer is declared failed (0 disables)")
	flag.DurationVar(&o.heartbeat, "heartbeat", 2*time.Second, "heartbeat interval keeping slow ranks alive under -op-timeout (0 disables)")
	flag.DurationVar(&o.dialTimeout, "dial-timeout", 30*time.Second, "total budget for establishing the mesh")
	flag.IntVar(&o.retries, "retries", 3, "reconnect attempts after a transient connection loss")
	flag.DurationVar(&o.retryBackoff, "retry-backoff", 10*time.Millisecond, "initial reconnect backoff (doubles per attempt)")
	flag.StringVar(&o.chaosPlan, "chaos", "", "fault plan applied to this rank's connections, in the faultinject grammar (e.g. 'corrupt:rank=1,after=2,fires=1'; testing only)")
	flag.Parse()
	if err := run(o); err != nil {
		var pf *netmpi.PeerFailedError
		if errors.As(err, &pf) {
			// A peer died: tag the diagnostic with both ranks so a log
			// aggregator can tell detector from victim, and exit with a
			// distinct status for supervisors that restart the job.
			// Status 3, because the flag package already claims 2 for
			// usage errors.
			fmt.Fprintf(os.Stderr, "summagen-node: [rank %d] peer rank %d failed during %s: %v\n",
				o.rank, pf.Rank, pf.Op, err)
			os.Exit(3)
		}
		fmt.Fprintf(os.Stderr, "summagen-node: [rank %d] %v\n", o.rank, err)
		os.Exit(1)
	}
}

func run(o opts) error {
	rank, n, seed, verify := o.rank, o.n, o.seed, o.verify
	addrs := strings.Split(o.hosts, ",")
	if len(addrs) < 1 || o.hosts == "" {
		return fmt.Errorf("-hosts is required (one address per rank)")
	}
	layoutIn, shapeName, speedsArg := o.layoutIn, o.shapeName, o.speedsArg
	var layout *partition.Layout
	shapeStr := "" // canonical shape name when the layout was built from one
	if layoutIn != "" {
		f, err := os.Open(layoutIn)
		if err != nil {
			return err
		}
		layout, err = partition.LoadLayout(f)
		f.Close()
		if err != nil {
			return err
		}
		if layout.P != len(addrs) {
			return fmt.Errorf("layout has %d processors but %d hosts given", layout.P, len(addrs))
		}
		n = layout.N
	} else {
		shape, err := partition.ParseShape(shapeName)
		if err != nil {
			return err
		}
		shapeStr = shape.String()
		var speeds []float64
		for _, s := range strings.Split(speedsArg, ",") {
			var v float64
			if _, err := fmt.Sscanf(strings.TrimSpace(s), "%g", &v); err != nil {
				return fmt.Errorf("bad speed %q: %w", s, err)
			}
			speeds = append(speeds, v)
		}
		if len(speeds) != len(addrs) {
			return fmt.Errorf("%d speeds for %d ranks", len(speeds), len(addrs))
		}
		areas, err := balance.Proportional(n*n, speeds)
		if err != nil {
			return err
		}
		layout, err = partition.Build(shape, n, areas)
		if err != nil {
			return err
		}
	}

	logOut := os.Stdout
	if o.jsonOut {
		logOut = os.Stderr // keep stdout clean for the JSON report
	}
	logger := slog.New(slog.NewTextHandler(logOut, nil)).With("rank", rank)
	logger.Info("joining mesh", "addrs", fmt.Sprint(addrs))
	var wrap func(peer int, c net.Conn) net.Conn
	if o.chaosPlan != "" {
		plan, err := faultinject.ParsePlan(o.chaosPlan)
		if err != nil {
			return fmt.Errorf("-chaos: %w", err)
		}
		plan.SkipCount = netmpi.IsHeartbeatFrame
		logger.Warn("CHAOS: fault plan armed on this rank's connections", "plan", o.chaosPlan)
		wrap = faultinject.New(plan).WrapConn(rank)
	}
	ep, err := netmpi.Dial(netmpi.Config{
		Rank:              rank,
		Addrs:             addrs,
		DialTimeout:       o.dialTimeout,
		OpTimeout:         o.opTimeout,
		HeartbeatInterval: o.heartbeat,
		MaxRetries:        o.retries,
		RetryBackoff:      o.retryBackoff,
		WrapConn:          wrap,
	})
	if err != nil {
		return err
	}
	defer ep.Close()

	rng := rand.New(rand.NewSource(seed))
	a := matrix.Random(n, n, rng)
	b := matrix.Random(n, n, rng)
	c := matrix.New(n, n)

	// Rank-local recording is always on: a node process runs exactly one
	// multiply, so the recorder costs a handful of allocations and buys a
	// shippable trace plus the per-stage report totals.
	rec := obs.NewRecorder()
	root := rec.Root("rank").OnRank(rank).Int("rank", int64(rank)).Int("n", int64(n))

	start := time.Now()
	runErr := core.RunRank(ep.Proc(), core.Config{Layout: layout, Span: root}, a, b, c)
	root.End()
	if runErr != nil {
		// The mesh may be poisoned, so don't attempt a ship — but the
		// rank-local trace is exactly what post-mortems want.
		if werr := writeNodeTrace(o.traceOut, rec, nil); werr != nil {
			logger.Warn("trace write failed", "err", werr)
		}
		return runErr
	}
	elapsed := time.Since(start).Seconds()

	// Span shipping: every rank > 0 sends its serialized span tree to rank
	// 0, which merges one clock-rebased lane per rank into its trace and
	// computes the cluster-wide stage analytics. Rank > 0 keeps its own
	// rank-local view.
	remotes := shipSpans(ep, rank, len(addrs), rec, logger)
	var imb *obs.ImbalanceReport
	if rank == 0 {
		all := append([]obs.Span(nil), rec.Spans()...)
		for _, rt := range remotes {
			all = append(all, rt.Spans...)
		}
		imb = obs.AnalyzeStageSpans(all)
	} else {
		imb = obs.AnalyzeStageSpans(rec.Spans())
	}
	if err := writeNodeTrace(o.traceOut, rec, remotes); err != nil {
		logger.Warn("trace write failed", "err", err)
	}

	comp, comm, bytes := ep.Breakdown()
	if o.jsonOut {
		// Emit this rank's view in the shared Report serialization: one
		// PerRank entry, parallel time = this rank's elapsed time.
		rep := &core.Report{
			N:             n,
			Shape:         shapeStr,
			ExecutionTime: elapsed,
			ComputeTime:   comp,
			CommTime:      comm,
			PerRank: []trace.Breakdown{{
				Rank:        rank,
				ComputeTime: comp,
				CommTime:    comm,
				BytesMoved:  int(bytes),
				Finish:      elapsed,
			}},
		}
		if elapsed > 0 {
			nf := float64(n)
			rep.GFLOPS = 2 * nf * nf * nf / elapsed / 1e9
		}
		if ratio, err := partition.OptimalityRatio(layout); err == nil {
			rep.OptimalityRatio = ratio
		}
		// Per-stage timing totals: cluster-wide on rank 0 (from the
		// shipped traces), this rank's own elsewhere.
		rep.Imbalance = imb
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		logger.Info("done", "elapsed_s", elapsed, "compute_s", comp, "comm_s", comm, "bytes_recv", bytes)
		if rank == 0 && imb != nil && imb.ImbalanceRatio > 0 {
			logger.Info("load balance", "imbalance_ratio", imb.ImbalanceRatio,
				"slowest_rank", imb.SlowestRank, "slowest_busy_s", imb.SlowestBusySeconds)
		}
	}

	if verify {
		want := matrix.New(n, n)
		if err := blas.Dgemm(n, n, n, 1, a.Data, a.Stride, b.Data, b.Stride, 0, want.Data, want.Stride); err != nil {
			return err
		}
		for i := 0; i < layout.GridRows; i++ {
			for j := 0; j < layout.GridCols; j++ {
				if layout.OwnerAt(i, j) != rank {
					continue
				}
				h, w := layout.RowHeights[i], layout.ColWidths[j]
				got := c.MustView(layout.RowStart(i), layout.ColStart(j), h, w)
				ref := want.MustView(layout.RowStart(i), layout.ColStart(j), h, w)
				if !matrix.EqualApprox(got.Clone(), ref.Clone(), 1e-9) {
					return fmt.Errorf("rank %d: partition (%d,%d) verification FAILED", rank, i, j)
				}
			}
		}
		logger.Info("verification OK")
	}
	return nil
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

// writeNodeTrace writes the rank's Chrome trace: its own spans (the engine
// lane) plus, on rank 0, one clock-rebased lane per shipped peer trace. A
// "" path means no trace was requested.
func writeNodeTrace(path string, rec *obs.Recorder, remotes []obs.RemoteTrace) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteDistributedChromeTrace(f, rec, nil, 0, remotes); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
