// Package mpi is an in-process message-passing runtime that stands in for
// the MPI library used by the paper's SummaGen implementation (Intel MPI
// 5.1.3, one process per abstract processor).
//
// Ranks are goroutines inside one World. The world communicator's broadcast
// and barrier have the blocking semantics of their MPI counterparts and are
// really synchronized through channels. Payloads are physically copied
// between ranks. Like internal/netmpi, it is a pure transport and records
// nothing.
//
// The engine does not run on it: core.Multiply's ranks share A and B and
// copy each panel straight out of it, with no rendezvous (internal/core,
// runtime.go). What is left is what the benchmark's layer timings use
// (bench/layers.go): NewWorld and Run (mpi.world_run_us), and CommWorld's
// Bcast and Barrier (mpi.bcast3_*). The package is deleted together with
// those timings (ROADMAP item 30(b)).
package mpi

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
)

// Config parameterizes a World.
type Config struct {
	// Procs is the number of ranks (abstract processors).
	Procs int
}

// World is a set of ranks that can communicate.
type World struct {
	cfg Config

	abortMu  sync.Mutex
	abortErr *PeerFailedError
	abortCh  chan struct{} // closed on first rank failure

	world *Comm
}

// PeerFailedError reports that a rank exited with an error (or panicked)
// while other ranks were still communicating. It matches the error
// semantics of the distributed runtime (netmpi.PeerFailedError): blocked
// collectives abort with this error instead of deadlocking on the dead rank.
type PeerFailedError struct {
	// Rank is the rank that failed.
	Rank int
	// Op names the operation that was aborted by the failure.
	Op string
	// Err is the failed rank's error.
	Err error
}

func (e *PeerFailedError) Error() string {
	return fmt.Sprintf("mpi: rank %d failed during %s: %v", e.Rank, e.Op, e.Err)
}

func (e *PeerFailedError) Unwrap() error { return e.Err }

// abort records the first rank failure and wakes every blocked operation.
func (w *World) abort(rank int, cause error) {
	w.abortMu.Lock()
	defer w.abortMu.Unlock()
	if w.abortErr == nil {
		w.abortErr = &PeerFailedError{Rank: rank, Op: "rank-exit", Err: cause}
		close(w.abortCh)
	}
}

// aborted returns the recorded failure, or nil.
func (w *World) aborted() *PeerFailedError {
	w.abortMu.Lock()
	defer w.abortMu.Unlock()
	return w.abortErr
}

// abortPanic raises the abort as a typed panic naming the blocked op; Run
// recovers it into a per-rank error.
func (w *World) abortPanic(op string) {
	a := w.aborted()
	panic(&PeerFailedError{Rank: a.Rank, Op: op, Err: a.Err})
}

// NewWorld validates cfg and builds a World.
func NewWorld(cfg Config) (*World, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("mpi: Procs must be >= 1, got %d", cfg.Procs)
	}
	w := &World{
		cfg:     cfg,
		abortCh: make(chan struct{}),
	}
	all := make([]int, cfg.Procs)
	for i := range all {
		all[i] = i
	}
	w.world = newComm(w, all)
	return w, nil
}

// Run starts one goroutine per rank executing fn and waits for all of them.
// Panics inside ranks are recovered and returned as errors. A rank that
// exits with an error (or panics) aborts the world: ranks blocked in
// collectives fail with a *PeerFailedError
// naming the dead rank instead of deadlocking. The returned error joins
// every rank failure.
func (w *World) Run(fn func(p *Proc) error) error {
	errs := make([]error, w.cfg.Procs)
	var wg sync.WaitGroup
	for r := 0; r < w.cfg.Procs; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					if pf, ok := rec.(*PeerFailedError); ok {
						// The abort echo: this rank was blocked on a rank
						// that already failed.
						errs[rank] = fmt.Errorf("mpi: rank %d: %w", rank, pf)
						return
					}
					errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v\n%s", rank, rec, debug.Stack())
					w.abort(rank, fmt.Errorf("panic: %v", rec))
				}
			}()
			p := &Proc{world: w, rank: rank}
			if err := fn(p); err != nil {
				errs[rank] = fmt.Errorf("mpi: rank %d: %w", rank, err)
				w.abort(rank, err)
			}
		}(r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Proc is one rank's handle, valid only inside the goroutine Run created.
type Proc struct {
	world *World
	rank  int
}

// Rank returns this rank's id in the world.
func (p *Proc) Rank() int { return p.rank }

// CommWorld returns the communicator spanning all ranks.
func (p *Proc) CommWorld() *Comm { return p.world.world }

// Comm is a communicator over world ranks, numbered 0..len(ranks)-1 in the
// order of the ascending rank list, like MPI_Comm_create over an ordered
// group. The world communicator is the only one.
type Comm struct {
	world *World
	ranks []int // world ranks, ascending

	in   chan contribution
	outs []chan []float64 // indexed by comm rank
	// contribs is the coordinator's gather scratch. Only comm rank 0 touches
	// it, and it finishes distributing one collective's results before it
	// can enter the next, so one slice serves every collective on the comm.
	contribs []contribution
}

// collOp names a collective. The rendezvous switches on it, and an abort
// names it.
type collOp uint8

const (
	opBcast collOp = iota
	opBarrier
	numOps
)

var opNames = [numOps]string{opBcast: "bcast", opBarrier: "barrier"}

// contribution is what one member deposits at the rendezvous. The caller
// fills op and the payload fields; collective adds commRank.
type contribution struct {
	commRank int
	op       collOp
	data     []float64
}

func newComm(w *World, ranks []int) *Comm {
	c := &Comm{
		world:    w,
		ranks:    append([]int(nil), ranks...),
		in:       make(chan contribution, len(ranks)),
		outs:     make([]chan []float64, len(ranks)),
		contribs: make([]contribution, len(ranks)),
	}
	for i := range c.outs {
		c.outs[i] = make(chan []float64, 1)
	}
	return c
}

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.ranks) }

// RankOf returns the communicator rank of a world rank, or -1.
func (c *Comm) RankOf(worldRank int) int {
	for i, r := range c.ranks {
		if r == worldRank {
			return i
		}
	}
	return -1
}

// collective is the shared rendezvous behind every Comm operation. Members
// deposit contributions; comm-rank 0 acts as coordinator, combining them
// and distributing the result, the payload a Bcast delivers. MPI ordering
// rules (all members issue collectives on a comm in the same order) make
// this race-free.
func (c *Comm) collective(p *Proc, ct contribution, root int) []float64 {
	op := ct.op
	me := c.RankOf(p.rank)
	if me < 0 {
		panic(fmt.Sprintf("mpi: rank %d not in communicator %v", p.rank, c.ranks))
	}
	if c.world.aborted() != nil {
		c.world.abortPanic(opNames[op])
	}
	ct.commRank = me
	select {
	case c.in <- ct:
	case <-c.world.abortCh:
		c.world.abortPanic(opNames[op])
	}
	if me == 0 {
		contribs := c.contribs
		for i := 0; i < c.Size(); i++ {
			var ct contribution
			select {
			case ct = <-c.in:
			case <-c.world.abortCh:
				c.world.abortPanic(opNames[op])
			}
			contribs[ct.commRank] = ct
		}
		var res []float64
		switch op {
		case opBcast:
			// Copy the payload so the root may reuse its buffer as soon
			// as its call returns (MPI buffer semantics).
			if d := contribs[root].data; d != nil {
				res = append([]float64(nil), d...)
			}
		case opBarrier:
			// synchronization only
		default:
			panic(fmt.Sprintf("mpi: unknown collective %d", op))
		}
		clear(contribs) // the scratch must not pin the members' buffers
		for i := 0; i < c.Size(); i++ {
			select {
			case c.outs[i] <- res:
			case <-c.world.abortCh:
				c.world.abortPanic(opNames[op])
			}
		}
	}
	var res []float64
	select {
	case res = <-c.outs[me]:
	case <-c.world.abortCh:
		c.world.abortPanic(opNames[op])
	}
	return res
}

// Bcast broadcasts the root's buffer to every member. On the root, buf is
// the source; on other ranks buf (if non-nil) receives a copy and must be
// exactly as long as the root's buffer — a mismatch panics rather than
// leave a stale tail in a buffer the caller may have recycled. When buf is
// nil on a receiver, Bcast returns the payload copy that every such receiver
// shares. count is MPI_Bcast's element count; it is not read, since the
// root's buffer carries its own length.
func (c *Comm) Bcast(p *Proc, buf []float64, count, root int) []float64 {
	if root < 0 || root >= c.Size() {
		panic(fmt.Sprintf("mpi: Bcast root %d out of range (size %d)", root, c.Size()))
	}
	me := c.RankOf(p.rank)
	var data []float64
	if me == root {
		data = buf
	}
	res := c.collective(p, contribution{op: opBcast, data: data}, root)
	if me == root {
		return buf
	}
	if buf != nil && res != nil {
		if len(buf) != len(res) {
			panic(fmt.Sprintf("mpi: Bcast length mismatch: rank %d expects %d elements, root sent %d", p.rank, len(buf), len(res)))
		}
		copy(buf, res)
		return buf
	}
	return res
}

// Barrier blocks until every member arrives.
func (c *Comm) Barrier(p *Proc) {
	c.collective(p, contribution{op: opBarrier}, 0)
}
