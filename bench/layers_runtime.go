package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/hockney"
	"repro/internal/netmpi"
	"repro/internal/obs"
	"repro/internal/recover"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/stats"
)

// onRanks runs fn on every endpoint of the mesh at once and returns the first
// error.
func (m *tcpMultiplier) onRanks(fn func(rank int, ep *netmpi.Endpoint) error) error {
	errs := make([]error, len(m.eps))
	var wg sync.WaitGroup
	for r, ep := range m.eps {
		wg.Add(1)
		go func(r int, ep *netmpi.Endpoint) {
			defer wg.Done()
			errs[r] = fn(r, ep)
		}(r, ep)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// netmpi measures the TCP runtime's fixed costs (dial, epoch agreement), its
// point-to-point latency and bandwidth with the Hockney α and β fitted to
// them, and its 3-rank broadcast beside the model's prediction for the fitted
// link.
func (l *ladder) netmpi() error {
	var err error
	dial := best(timeIt(l.box(rungTime), 3, func() {
		m, e := dialMesh(3, 0)
		if e != nil {
			err = e
			return
		}
		m.close()
	}))
	if err != nil {
		return err
	}
	l.set("netmpi.dial3_ms", 1e3*dial, "ms")

	mesh, err := dialMesh(3, 0)
	if err != nil {
		return err
	}
	defer mesh.close()
	agree := best(timeIt(l.box(rungTime)/4, 5, func() {
		if e := mesh.onRanks(func(_ int, ep *netmpi.Endpoint) error { return ep.AgreeEpoch() }); e != nil {
			err = e
		}
	}))
	if err != nil {
		return err
	}
	l.set("netmpi.agree_epoch_us", 1e6*agree, "us")

	// pingPong returns the best round-trip time for a payload of count
	// float64 one way and one float64 back.
	pingPong := func(count, reps int) (float64, error) {
		payload, ack := make([]float64, count), make([]float64, 1)
		var rtt float64
		err := mesh.onRanks(func(rank int, ep *netmpi.Endpoint) error {
			switch rank {
			case 0:
				rtt = math.Inf(1)
				for i := 0; i < reps; i++ {
					t := time.Now()
					if err := ep.Send(1, 7, payload); err != nil {
						return err
					}
					if _, err := ep.Recv(1, 8); err != nil {
						return err
					}
					rtt = math.Min(rtt, time.Since(t).Seconds())
				}
			case 1:
				for i := 0; i < reps; i++ {
					if _, err := ep.Recv(0, 7); err != nil {
						return err
					}
					if err := ep.Send(0, 8, ack); err != nil {
						return err
					}
				}
			}
			return nil
		})
		return rtt, err
	}
	rtt8, err := pingPong(1, l.count(300, 10))
	if err != nil {
		return err
	}
	l.set("netmpi.rtt_8b_us", 1e6*rtt8, "us")
	// One-way time of m bytes ≈ round trip − half an 8-byte round trip (the
	// ack's way back). Fit t = α + β·m over five sizes.
	var sizes, times []float64
	for _, count := range []int{1, 512, 8 << 10, 64 << 10, 512 << 10} {
		reps := l.count(200, 10)
		if count >= 64<<10 {
			reps = l.count(12, 3)
		}
		rtt, err := pingPong(count, reps)
		if err != nil {
			return err
		}
		sizes, times = append(sizes, float64(8*count)), append(times, rtt-rtt8/2)
	}
	alpha, beta := fitLine(sizes, times)
	l.set("netmpi.alpha_us", 1e6*alpha, "us")
	l.set("netmpi.beta_ns_per_byte", 1e9*beta, "ns/B")
	l.set("netmpi.p2p_4m_gbps", sizes[4]/times[4]/1e9, "GB/s")

	bcast := func(count, reps int) (float64, error) {
		src := make([]float64, count)
		var per float64
		err := mesh.onRanks(func(rank int, ep *netmpi.Endpoint) error {
			comm := ep.Split([]int{0, 1, 2})
			var buf []float64
			if rank == 0 {
				buf = src
			}
			if err := comm.Barrier(); err != nil {
				return err
			}
			t := time.Now()
			for i := 0; i < reps; i++ {
				if _, err := comm.Bcast(buf, count, 0); err != nil {
					return err
				}
			}
			if err := comm.Barrier(); err != nil {
				return err
			}
			if rank == 0 {
				per = time.Since(t).Seconds() / float64(reps)
			}
			return nil
		})
		return per, err
	}
	small, err := bestOfThree(func() (float64, error) { return bcast(bcastSmall, l.count(100, 5)) })
	if err != nil {
		return err
	}
	large, err := bestOfThree(func() (float64, error) { return bcast(bcastLarge, l.count(10, 2)) })
	if err != nil {
		return err
	}
	l.set("netmpi.bcast3_64k_us", 1e6*small, "us")
	l.set("netmpi.bcast3_2m_gbps", 8*bcastLarge/large/1e9, "GB/s")
	link := hockney.Link{Alpha: math.Max(alpha, 0), Beta: math.Max(beta, 0)}
	l.set("hockney.bcast_model_ratio", large/hockney.BcastTime(hockney.BcastBinomial, link, 8*bcastLarge, 3), "ratio")
	return nil
}

// variant is one engine configuration the core rungs interleave.
type variant struct {
	name     string
	mul      multiplier
	noOvl    bool
	recorded bool
	ms       []float64
}

// coreRounds is how many times the core rungs go round their variants × the
// four shapes; the time box stops them early on a large N.
const coreRounds = 6

// coreRung interleaves the variants over the four paper shapes at the
// workload's N (A-B-C-A-B-C, so drift hits every variant alike) and reports
// the default configuration's split plus each variant's ratio to it.
func (l *ladder) coreRung(suffix string, vs []*variant) (shapeMs map[int][]float64, err error) {
	var compute, comm, imbalance, self []float64
	stage := map[string][]float64{}
	shapeMs = map[int][]float64{}
	begin := time.Now()
	for round := 0; round < l.count(coreRounds, 1) && (round < 2 || time.Since(begin) < 8*rungTime); round++ {
		for s, layout := range l.in.layouts {
			for _, v := range vs {
				cfg := core.Config{Layout: layout, DisableOverlap: v.noOvl}
				var rec *obs.Recorder
				if v.recorded {
					rec = obs.NewRecorder()
					cfg.Span = rec.Root("op")
				}
				t := time.Now()
				rep, err := v.mul.multiply(l.in, cfg)
				end := time.Now()
				if err != nil {
					return nil, fmt.Errorf("core rung %s/%s: %w", suffix, v.name, err)
				}
				v.ms = append(v.ms, ms(end.Sub(t)))
				switch {
				case v == vs[0]:
					compute, comm = append(compute, 1e3*rep.ComputeTime), append(comm, 1e3*rep.CommTime)
					shapeMs[s] = append(shapeMs[s], ms(end.Sub(t)))
				case v.recorded:
					cfg.Span.End()
					// Stage times: max over ranks per op, median over ops.
					worst := map[string]float64{}
					ir := obs.AnalyzeStageSpans(rec.Spans())
					for _, r := range ir.Ranks {
						worst["bcastA"] = math.Max(worst["bcastA"], r.BcastASeconds)
						worst["bcastB"] = math.Max(worst["bcastB"], r.BcastBSeconds)
						worst["dgemm"] = math.Max(worst["dgemm"], r.DgemmSeconds)
						worst["commwait"] = math.Max(worst["commwait"], r.CommWaitSeconds)
					}
					for k, sec := range worst {
						stage[k] = append(stage[k], 1e3*sec)
					}
					imbalance = append(imbalance, ir.ImbalanceRatio)
					// Self time of the call: what no stage span covers —
					// slab allocation, world and goroutine spin-up, report.
					tr := &tracer{}
					tr.addRecorder(rec, 0, tr.add("core", 0, -1, 0, t, end))
					self = append(self, tr.selfTimes()["core"].Ms)
				}
			}
		}
	}
	base := median(vs[0].ms)
	// The default configuration's own op-to-op spread, each op taken relative
	// to its shape's median: what a ratio below must exceed to mean anything.
	var rel []float64
	for _, xs := range shapeMs {
		for _, x := range xs {
			rel = append(rel, x/median(xs))
		}
	}
	l.set("core.op_spread."+suffix, spread(rel), "ratio")
	l.set("core.compute_ms."+suffix, median(compute), "ms")
	l.set("core.comm_ms."+suffix, median(comm), "ms")
	l.set("core.comm_share."+suffix, median(comm)/(median(comm)+median(compute)), "ratio")
	l.set("core.imbalance."+suffix, median(imbalance), "ratio")
	l.set("core.stage.bcastA_ms."+suffix, median(stage["bcastA"]), "ms")
	l.set("core.stage.bcastB_ms."+suffix, median(stage["bcastB"]), "ms")
	l.set("core.stage.dgemm_ms."+suffix, median(stage["dgemm"]), "ms")
	l.set("core.stage.commwait_ms."+suffix, median(stage["commwait"]), "ms")
	l.set("core.self_ms."+suffix, median(self), "ms")
	for _, v := range vs[1:] {
		l.set(v.name+"."+suffix, median(v.ms)/base, "ratio")
	}
	return shapeMs, nil
}

func (l *ladder) coreInproc() error {
	mul := inprocMultiplier{}
	shapeMs, err := l.coreRung("inproc", []*variant{
		{name: "default", mul: mul},
		{name: "core.overlap_ratio", mul: mul, noOvl: true},
		{name: "core.obs_on_ratio", mul: mul, recorded: true},
	})
	if err != nil {
		return err
	}
	for s, sh := range l.in.shapes {
		l.set("core.shape."+sh.String()+".p50_ms", median(shapeMs[s]), "ms")
	}
	return nil
}

// coreTCP runs the same rung over two warm meshes — the negotiated wire (v2,
// CRC32C trailers) and one pinned to v1 — and reads the transport's own
// counters for the default variant's ops.
func (l *ladder) coreTCP() error {
	v2, err := dialMesh(3, 0)
	if err != nil {
		return err
	}
	defer v2.close()
	v1, err := dialMesh(3, 1)
	if err != nil {
		return err
	}
	defer v1.close()
	// Counters are read over a dedicated pass of default ops on the v2 mesh,
	// so that the other variants' traffic is not in them.
	before, gets0, _, news0 := v2.totals()
	var predicted float64
	ops := 0
	for round := 0; round < l.count(2, 1); round++ {
		for s, layout := range l.in.layouts {
			if _, err := v2.multiply(l.in, core.Config{Layout: layout}); err != nil {
				return err
			}
			ops++
			predicted += 8 * l.m["partition.comm_elems."+l.in.shapes[s].String()].Value
		}
	}
	after, gets1, _, news1 := v2.totals()
	n := float64(ops)
	l.set("netmpi.frames_per_op", float64(after.frames-before.frames)/n, "count")
	l.set("netmpi.bytes_per_op", float64(after.bytes-before.bytes)/n, "B")
	l.set("netmpi.send_wait_ms_per_op", 1e3*(after.sendSec-before.sendSec)/n, "ms")
	l.set("netmpi.recv_wait_ms_per_op", 1e3*(after.recvSec-before.recvSec)/n, "ms")
	l.set("netmpi.retries", float64(after.retries-before.retries), "count")
	l.set("netmpi.corrupt_frames", float64(after.corrupt-before.corrupt), "count")
	l.set("netmpi.framepool_hit_ratio", 1-float64(news1-news0)/math.Max(1, float64(gets1-gets0)), "ratio")
	l.set("netmpi.comm_volume_ratio", float64(after.bytes-before.bytes)/predicted, "ratio")

	_, err = l.coreRung("tcp", []*variant{
		{name: "default", mul: v2},
		{name: "core.overlap_ratio", mul: v2, noOvl: true},
		{name: "core.obs_on_ratio", mul: v2, recorded: true},
		{name: "netmpi.wire_v1_ratio", mul: v1},
	})
	if err != nil {
		return err
	}
	// The wire ratio is a property of the transport, not of core.
	l.m["netmpi.wire_v1_ratio"] = l.m["netmpi.wire_v1_ratio.tcp"]
	delete(l.m, "netmpi.wire_v1_ratio.tcp")
	return nil
}

// meshTotals sums the transport counters over a mesh's endpoints.
type meshTotals struct {
	frames, bytes, retries, corrupt int64
	sendSec, recvSec                float64
}

func (m *tcpMultiplier) totals() (t meshTotals, gets, puts, news int64) {
	for _, ep := range m.eps {
		for _, p := range ep.Stats().Peers {
			t.frames += p.FramesRecv
			t.bytes += p.BytesRecv
			t.retries += p.Retries
			t.corrupt += p.CorruptFrames
			t.sendSec += p.SendSeconds
			t.recvSec += p.RecvSeconds
		}
	}
	gets, puts, news = netmpi.FramePoolStats()
	return t, gets, puts, news
}

// jobTimes are the scheduler-side timestamps of one finished job, whichever
// API they came through.
type jobTimes struct {
	enqueued, started, finished time.Time
	batch                       int
}

// setSchedSplit reports where jobs spent their time inside the scheduler.
func setSchedSplit(m map[string]metric, jobs []jobTimes) {
	var wait, run, batch []float64
	for _, j := range jobs {
		wait = append(wait, ms(j.started.Sub(j.enqueued)))
		run = append(run, ms(j.finished.Sub(j.started)))
		batch = append(batch, float64(max(1, j.batch)))
	}
	m["sched.queue_wait_p50_ms"] = metric{median(wait), "ms"}
	m["sched.run_p50_ms"] = metric{median(run), "ms"}
	m["sched.batch_size_mean"] = metric{stats.Mean(batch), "count"}
}

// setSchedCounters reports the plan cache's hit ratio and the refusals, summed
// over the schedulers given.
func setSchedCounters(m map[string]metric, scheds ...*sched.Scheduler) {
	var hits, misses, rejected uint64
	for _, s := range scheds {
		sm := s.Metrics()
		hits, misses = hits+sm.PlanCacheHits, misses+sm.PlanCacheMisses
		rejected += sm.Counters.RejectedQueueFull + sm.Counters.RejectedTenant + sm.Counters.RejectedDraining
	}
	m["sched.plan_cache_hit_ratio"] = metric{float64(hits) / math.Max(1, float64(hits+misses)), "ratio"}
	m["sched.rejected"] = metric{float64(rejected), "count"}
}

// jobSpec is the scheduler's form of a submit request.
func jobSpec(r *serve.SubmitRequest) sched.JobSpec {
	return sched.JobSpec{N: r.N, Shape: r.Shape, Speeds: r.Speeds, Seed: r.Seed}
}

// sched measures the planner (hit and miss), the digest, both runners called
// directly, checkpointing's share of a netmpi run, and the sample job stream
// through a scheduler with no HTTP in front.
func (l *ladder) sched() error {
	planner := &sched.Planner{Platform: device.HCLServer1()}
	var miss, hit []float64
	seen := map[string]bool{}
	for _, r := range l.specs {
		spec := jobSpec(r)
		key := sched.PlanKey(spec)
		if seen[key] {
			continue
		}
		seen[key] = true
		t := time.Now()
		_, err := planner.Plan(spec)
		miss = append(miss, time.Since(t).Seconds())
		if err != nil {
			return fmt.Errorf("plan: %w", err)
		}
		hit = append(hit, best(timeIt(0, 50, func() { planner.Plan(spec) }))) //nolint:errcheck // same spec just planned
	}
	l.set("sched.plan_miss_ms", 1e3*median(miss), "ms")
	l.set("sched.plan_hit_us", 1e6*median(hit), "us")

	n := l.w.n
	l.set("sched.digest_us", 1e6*best(timeIt(l.box(rungTime)/4, 3, func() { sched.MatrixDigest(l.in.c) })), "us")

	// Both runners on the workload's N, alternating with and without a
	// checkpoint on the netmpi runner.
	plan, err := planner.Plan(sched.JobSpec{N: n, Shape: l.in.shapes[0].String(), Speeds: engineSpeeds})
	if err != nil {
		return err
	}
	inproc, netRunner := &sched.InprocRunner{}, &sched.NetmpiRunner{OpTimeout: 10 * time.Second}
	var inprocMs, plainMs, ckptMs []float64
	cells := 0
	begin := time.Now()
	for i := 0; i < l.count(8, 1) && (i < 3 || time.Since(begin) < 6*rungTime); i++ {
		run := func(r sched.Runner, opts sched.RunOpts) (float64, error) {
			t := time.Now()
			_, err := r.Run(fmt.Sprintf("ladder-%d", i), plan, l.in.a, l.in.b, l.in.c, opts)
			return ms(time.Since(t)), err
		}
		d, err := run(inproc, sched.RunOpts{})
		if err != nil {
			return fmt.Errorf("inproc runner: %w", err)
		}
		inprocMs = append(inprocMs, d)
		if d, err = run(netRunner, sched.RunOpts{}); err != nil {
			return fmt.Errorf("netmpi runner: %w", err)
		}
		plainMs = append(plainMs, d)
		store := recover.NewMemStore()
		binding, err := recover.NewBinding(store, "ladder")
		if err != nil {
			return err
		}
		if d, err = run(netRunner, sched.RunOpts{Checkpoint: binding}); err != nil {
			return fmt.Errorf("netmpi runner with checkpoint: %w", err)
		}
		ckptMs = append(ckptMs, d)
		saved, err := store.Load("ladder")
		if err != nil {
			return err
		}
		cells = len(saved)
	}
	l.set("sched.inproc_run_ms", median(inprocMs), "ms")
	l.set("sched.netmpi_run_ms", median(plainMs), "ms")
	l.set("recover.ckpt_overhead_ratio", median(ckptMs)/median(plainMs), "ratio")
	l.set("recover.ckpt_cells_per_job", float64(cells), "count")
	return nil
}

// serviceJobTimes reads the scheduler-side timestamps off job statuses.
func serviceJobTimes(results []jobResult) []jobTimes {
	var out []jobTimes
	for _, j := range results {
		if j.st != nil && j.st.StartedAt != nil && j.st.FinishedAt != nil {
			out = append(out, jobTimes{j.st.EnqueuedAt, *j.st.StartedAt, *j.st.FinishedAt, j.st.BatchSize})
		}
	}
	return out
}

// setRouting reports how the router spread jobs over its backends.
func setRouting(m map[string]metric, results []jobResult) {
	perBackend := map[string]float64{}
	var total, reroutes float64
	for _, j := range results {
		if j.st != nil {
			perBackend[j.st.Instance]++
			total++
			reroutes += float64(j.st.Reroutes)
		}
	}
	var most float64
	for _, c := range perBackend {
		most = math.Max(most, c)
	}
	m["router.backend_share_max"] = metric{most / math.Max(1, total), "ratio"}
	m["router.reroutes"] = metric{reroutes, "count"}
}

// frontDoors sends every job of the sample stream three ways in turn —
// straight into a scheduler, over HTTP through one serve instance, and through
// the router in front of two — with all three standing at once. A job's three
// latencies are then taken moments apart, and the HTTP hop and the router hop
// are medians of paired differences, not differences of medians.
func (l *ladder) frontDoors() error {
	done := make(chan sched.JobView, 1)
	cfg := stackConfig{netmpi: l.w.tcp}.schedConfig()
	cfg.OnJobDone = func(v sched.JobView) { done <- v }
	direct, err := sched.New(cfg)
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		direct.Drain(ctx) //nolint:errcheck // every job has already finished
	}()
	serveSt, err := startStack(stackConfig{netmpi: l.w.tcp})
	if err != nil {
		return err
	}
	defer serveSt.stop()
	routerSt, err := startStack(stackConfig{router: true, netmpi: l.w.tcp})
	if err != nil {
		return err
	}
	defer routerSt.stop()
	serveCl, routerCl := newClient(serveSt.url), newClient(routerSt.url)
	defer serveCl.close()
	defer routerCl.close()

	var directMs, serveMs, serveHop, routerHop, polls []float64
	submit := map[string][]float64{}
	var jobs []jobTimes
	var routed []jobResult
	var lastServe string
	for _, r := range l.specs {
		t := time.Now()
		if _, err := direct.Submit(jobSpec(r)); err != nil {
			return fmt.Errorf("direct submit: %w", err)
		}
		v := <-done
		if v.State != sched.StateDone {
			return fmt.Errorf("direct job %s: %v", v.ID, v.Err)
		}
		d := ms(v.FinishedAt.Sub(t))
		jobs = append(jobs, jobTimes{v.EnqueuedAt, v.StartedAt, v.FinishedAt, v.BatchSize})

		var lat [2]float64
		for k, cl := range []*client{serveCl, routerCl} {
			j := runJob(cl, r)
			if j.err != nil || j.st == nil || j.st.State != "done" {
				return fmt.Errorf("front-door rung: job %s failed: %v", j.id, j.err)
			}
			lat[k] = ms(j.st.FinishedAt.Sub(j.sent))
			name := []string{"serve", "router"}[k]
			submit[name] = append(submit[name], us(j.ack.Sub(j.sent)))
			if k == 0 {
				polls, lastServe = append(polls, float64(j.polls)), j.id
			} else {
				routed = append(routed, j)
			}
		}
		directMs, serveMs = append(directMs, d), append(serveMs, lat[0])
		serveHop, routerHop = append(serveHop, lat[0]-d), append(routerHop, lat[1]-lat[0])
	}
	l.set("sched.direct_job_p50_ms", median(directMs), "ms")
	setSchedSplit(l.m, jobs)
	setSchedCounters(l.m, direct)
	l.set("serve.direct_job_p50_ms", median(serveMs), "ms")
	l.set("serve.hop_ms", median(serveHop), "ms")
	l.set("router.hop_ms", median(routerHop), "ms")
	l.set("serve.submit_p50_us", median(submit["serve"]), "us")
	l.set("router.submit_p50_us", median(submit["router"]), "us")
	l.set("serve.polls_per_job", stats.Mean(polls), "count")
	setRouting(l.m, routed)

	last := routed[len(routed)-1].id
	status := func(cl *client, id string) float64 {
		return 1e6 * median(timeIt(0, l.count(40, 5), func() { cl.status(id) })) //nolint:errcheck // the job was just fetched
	}
	l.set("router.status_p50_us", status(routerCl, last), "us")
	l.set("serve.status_p50_us", status(serveCl, lastServe), "us")
	l.set("serve.metrics_scrape_ms", 1e3*best(timeIt(0, 5, func() { serveCl.get("/metrics", nil) })), "ms") //nolint:errcheck // timing only

	policy, err := router.ParsePolicy("affinity")
	if err != nil {
		return err
	}
	backends := []*router.Backend{router.NewLocalBackend("i0", nil), router.NewLocalBackend("i1", nil)}
	key := sched.PlanKey(jobSpec(l.specs[0]))
	picks := l.count(10000, 100)
	pick := best(timeIt(l.box(rungTime)/8, 3, func() {
		for i := 0; i < picks; i++ {
			policy.Pick(key, backends)
		}
	}))
	l.set("router.pick_ns", 1e9*pick/float64(picks), "ns")
	return nil
}
