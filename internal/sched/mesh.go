package sched

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/netmpi"
)

// Mesh leasing (DESIGN.md §16). A first attempt whose connections nobody
// wraps leases a warm mesh of its rank count, or dials one, and puts it back
// after a clean run; a mesh serves one run at a time, and AgreeEpoch runs on
// every lease as the per-job barrier. A leased mesh that fails that fence
// went bad while idle and is replaced by a fresh dial within the attempt.
// Anything else — a failed run, an unhealthy endpoint, a cancelled job
// context, wrapped connections, a recovery epoch — closes the mesh instead of
// returning it, as does an idle spell longer than OpTimeout (nobody reads the
// heartbeats its peers keep writing). Tag sequences need no reset: every
// member issues the same collectives in the same order on every run.
// Endpoint counters are cumulative, so every per-job figure is a difference
// from what the mesh had counted when its previous run ended.

// mesh is one dialled loopback world: an endpoint per rank, all in this
// process.
type mesh struct {
	eps []*netmpi.Endpoint
	lns []net.Listener
	// cancel ends the mesh's own context, which aborts its dial and its
	// reconnect waits and stops its heartbeats.
	cancel context.CancelFunc
	// folded is what each endpoint had counted when the mesh's previous run
	// ended (zero for a new mesh).
	folded []epCounters
	idle   time.Time // when the mesh went back on the free list
}

// epCounters is what one endpoint has counted since its mesh was dialled.
type epCounters struct {
	stats         netmpi.Stats
	compute, comm float64
	bytes         int64
}

// close tears the mesh down; it is idempotent and safe to call concurrently.
func (m *mesh) close() {
	m.cancel()
	for _, ep := range m.eps {
		if ep != nil {
			ep.Close()
		}
	}
	for _, ln := range m.lns {
		if ln != nil {
			ln.Close()
		}
	}
}

// healthy reports whether every endpoint can still run a collective.
func (m *mesh) healthy() bool {
	for _, ep := range m.eps {
		if !ep.Healthy() {
			return false
		}
	}
	return true
}

// counters snapshots every endpoint's cumulative counters.
func (m *mesh) counters() []epCounters {
	out := make([]epCounters, len(m.eps))
	for i, ep := range m.eps {
		out[i].stats = ep.Stats()
		out[i].compute, out[i].comm, out[i].bytes = ep.Breakdown()
	}
	return out
}

// fence runs the epoch agreement on every rank at once. It doubles as the
// per-job barrier: no rank starts a run until the whole mesh is there. With
// closeOnFailure the first failing rank closes the mesh, so the others stop
// waiting for it at once instead of after OpTimeout — for a leased mesh,
// which is discarded on any failure and whose error attribution nobody
// reads.
func (m *mesh) fence(closeOnFailure bool) error {
	errs := make([]error, len(m.eps))
	var wg sync.WaitGroup
	for rank, ep := range m.eps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[rank] = ep.AgreeEpoch(); errs[rank] != nil && closeOnFailure {
				m.close()
			}
		}()
	}
	wg.Wait()
	return pickRootCause(errs)
}

// wrappers asks the WrapConn hook for every rank's connection wrapper for
// this attempt. It returns nil when there is no hook or it wraps nothing.
func (r *NetmpiRunner) wrappers(jobID string, epoch, p int) []func(int, net.Conn) net.Conn {
	if r.WrapConn == nil {
		return nil
	}
	wraps := make([]func(int, net.Conn) net.Conn, p)
	wrapped := false
	for rank := range wraps {
		wraps[rank] = r.WrapConn(jobID, epoch, rank)
		wrapped = wrapped || wraps[rank] != nil
	}
	if !wrapped {
		return nil
	}
	return wraps
}

// acquire returns the mesh an attempt runs on, under a "mesh-dial" span:
// a warm one off the free list when lease is set and one is there (leased),
// else a freshly dialled one.
func (r *NetmpiRunner) acquire(p int, lease bool, wraps []func(int, net.Conn) net.Conn, opts RunOpts) (m *mesh, leased bool, err error) {
	sp := opts.Span.Child("mesh-dial").Int("ranks", int64(p))
	if lease {
		if m = r.lease(p); m != nil {
			sp.Int("leased", 1).End()
			return m, true, nil
		}
	}
	if m, err = r.dial(p, opts.Epoch, wraps, opts.Ctx); err != nil {
		sp.Str("error", err.Error()).End()
		return nil, false, err
	}
	sp.End()
	return m, false, nil
}

// lease takes the most recently returned mesh of p ranks off the free list,
// or returns nil. The list is ordered by return time, so when its newest
// mesh has been idle too long every mesh on it has, and all are closed.
func (r *NetmpiRunner) lease(p int) *mesh {
	r.meshMu.Lock()
	free := r.idle[p]
	var m *mesh
	if top := len(free) - 1; top >= 0 && time.Since(free[top].idle) < r.opTimeout() {
		m = free[top]
		free[top] = nil
		r.idle[p] = free[:top]
		free = nil
	} else {
		delete(r.idle, p)
	}
	r.meshMu.Unlock()
	for _, stale := range free {
		stale.close()
	}
	return m
}

// release folds the counters of the run that just ended on m into the
// runner's totals, then puts m back on the free list when keep is set and
// the job's context is live, or closes it. It reports whether m went back.
func (r *NetmpiRunner) release(m *mesh, keep bool, ctx context.Context) bool {
	r.foldStats(m)
	if keep {
		r.meshMu.Lock()
		// Checked under the lock CloseIdle takes: once a drain has cancelled
		// the job's context and emptied the list, no mesh slips back on.
		if ctx == nil || ctx.Err() == nil {
			if r.idle == nil {
				r.idle = make(map[int][]*mesh)
			}
			m.idle = time.Now()
			r.idle[len(m.eps)] = append(r.idle[len(m.eps)], m)
			r.meshMu.Unlock()
			return true
		}
		r.meshMu.Unlock()
	}
	m.close()
	return false
}

// CloseIdle closes every mesh waiting on the free list. Scheduler.Drain
// calls it; a job run afterwards dials a fresh mesh.
func (r *NetmpiRunner) CloseIdle() {
	r.meshMu.Lock()
	idle := r.idle
	r.idle = nil
	r.meshMu.Unlock()
	for _, free := range idle {
		for _, m := range free {
			m.close()
		}
	}
}

// dial binds one loopback listener per rank and dials a p-rank mesh at the
// given epoch; wraps, when non-nil, wraps each rank's connections.
// Cancelling ctx aborts the dial.
func (r *NetmpiRunner) dial(p, epoch int, wraps []func(int, net.Conn) net.Conn, ctx context.Context) (*mesh, error) {
	mctx, cancel := context.WithCancel(context.Background())
	if ctx != nil {
		defer context.AfterFunc(ctx, cancel)()
	}
	m := &mesh{
		eps:    make([]*netmpi.Endpoint, p),
		lns:    make([]net.Listener, p),
		cancel: cancel,
		folded: make([]epCounters, p),
	}
	addrs := make([]string, p)
	for i := range m.lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			m.close()
			return nil, fmt.Errorf("sched: netmpi listen: %w", err)
		}
		m.lns[i], addrs[i] = ln, ln.Addr().String()
	}
	errs := make([]error, p)
	var wg sync.WaitGroup
	for rank := range m.eps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := netmpi.Config{
				Rank:              rank,
				Addrs:             addrs,
				Listener:          m.lns[rank],
				DialTimeout:       r.dialTimeout(),
				OpTimeout:         r.opTimeout(),
				HeartbeatInterval: r.heartbeat(),
				MaxRetries:        r.MaxRetries,
				Epoch:             uint32(epoch),
				Ctx:               mctx,
			}
			if wraps != nil {
				cfg.WrapConn = wraps[rank]
			}
			m.eps[rank], errs[rank] = netmpi.Dial(cfg)
		}()
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			m.close()
			return nil, fmt.Errorf("sched: netmpi rank %d dial: %w", rank, err)
		}
	}
	return m, nil
}
