// Package mpi is an in-process message-passing runtime that stands in for
// the MPI library used by the paper's SummaGen implementation (Intel MPI
// 5.1.3, one process per abstract processor).
//
// Ranks are goroutines inside one World. Communicators, sub-communicator
// creation, broadcasts and barriers have the blocking semantics of their MPI
// counterparts and are really synchronized through channels. Payloads are
// physically copied between ranks. Like internal/netmpi, it is a pure
// transport and records nothing.
//
// The engine no longer runs on it: core.Multiply's ranks share A and B and
// copy each panel straight out of it, with no rendezvous (internal/core,
// runtime.go). The one caller left is the benchmark's layer timings
// (bench/layers.go: mpi.world_run_us, mpi.bcast3_*), and the package is
// deleted together with them (ROADMAP item 30(b)).
package mpi

import (
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"

	"repro/internal/matrix"
)

// Config parameterizes a World.
type Config struct {
	// Procs is the number of ranks (abstract processors).
	Procs int
}

// World is a set of ranks that can communicate.
type World struct {
	cfg Config

	commMu sync.Mutex
	comms  []*Comm // one per rank set Split has seen, kept while the world lives

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

// Size returns the number of ranks.
func (w *World) Size() int { return w.cfg.Procs }

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

// Size returns the world size.
func (p *Proc) Size() int { return p.world.cfg.Procs }

// World returns the enclosing world.
func (p *Proc) World() *World { return p.world }

// CommWorld returns the communicator spanning all ranks.
func (p *Proc) CommWorld() *Comm { return p.world.world }

// Comm is a communicator over a subset of world ranks. Ranks inside a Comm
// are numbered 0..len(ranks)-1 in the order of the (sorted) rank list, like
// MPI_Comm_create over an ordered group.
type Comm struct {
	world *World
	ranks []int // world ranks, ascending

	in   chan contribution
	outs []chan result // indexed by comm rank
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
	// opPanel is BcastPanel: a broadcast whose payload is the root's own
	// strided view, handed to the receivers uncloned.
	opPanel
	opBarrier
	opSplit
	numOps
)

var opNames = [numOps]string{opBcast: "bcast", opPanel: "bcast", opBarrier: "barrier", opSplit: "split"}

// contribution is what one member deposits at the rendezvous. The caller
// fills op and the payload fields; collective adds commRank.
type contribution struct {
	commRank int
	op       collOp
	data     []float64
	stride   int // opPanel: row stride of data
	bytes    int // opPanel: 8·rows·cols, which every member checks
}

type result struct {
	data   []float64
	stride int
	bytes  int
}

func newComm(w *World, ranks []int) *Comm {
	c := &Comm{
		world:    w,
		ranks:    append([]int(nil), ranks...),
		in:       make(chan contribution, len(ranks)),
		outs:     make([]chan result, len(ranks)),
		contribs: make([]contribution, len(ranks)),
	}
	for i := range c.outs {
		c.outs[i] = make(chan result, 1)
	}
	return c
}

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.ranks) }

// Ranks returns the world ranks in the communicator (ascending).
func (c *Comm) Ranks() []int { return append([]int(nil), c.ranks...) }

// RankOf returns the communicator rank of a world rank, or -1.
func (c *Comm) RankOf(worldRank int) int {
	for i, r := range c.ranks {
		if r == worldRank {
			return i
		}
	}
	return -1
}

// WorldRank returns the world rank of a communicator rank.
func (c *Comm) WorldRank(commRank int) int { return c.ranks[commRank] }

// Split returns the communicator over the given world ranks, creating it
// collectively on first use. Every member must call Split with the same
// rank set (order-insensitive; the caller's rank must be included). Like
// MPI_Comm_split, creation is a synchronization of the members.
func (p *Proc) Split(ranks []int) *Comm {
	rs := ranks
	if !slices.IsSorted(rs) {
		rs = slices.Clone(ranks)
		slices.Sort(rs)
	}
	found := false
	for _, r := range rs {
		if r == p.rank {
			found = true
		}
		if r < 0 || r >= p.Size() {
			panic(fmt.Sprintf("mpi: Split with invalid rank %d", r))
		}
	}
	if !found {
		panic(fmt.Sprintf("mpi: rank %d calling Split on group %v it does not belong to", p.rank, rs))
	}
	w := p.world
	w.commMu.Lock()
	var c *Comm
	for _, have := range w.comms {
		if slices.Equal(have.ranks, rs) {
			c = have
			break
		}
	}
	if c == nil {
		c = newComm(w, rs)
		w.comms = append(w.comms, c)
	}
	w.commMu.Unlock()
	// Creation synchronization: a barrier-weight collective on every Split
	// call (MPI_Comm_split is collective).
	c.collective(p, contribution{op: opSplit}, 0)
	return c
}

// collective is the shared rendezvous behind every Comm operation. Members
// deposit contributions; comm-rank 0 acts as coordinator, combining them
// and distributing results. MPI ordering rules (all members issue
// collectives on a comm in the same order) make this race-free.
func (c *Comm) collective(p *Proc, ct contribution, root int) result {
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
		res := result{}
		switch op {
		case opBcast:
			// Copy the payload so the root may reuse its buffer as soon
			// as its call returns (MPI buffer semantics).
			if d := contribs[root].data; d != nil {
				res.data = append([]float64(nil), d...)
			}
		case opPanel:
			// The members Put straight out of the root's view: no
			// clone, and so no reuse of the source before Run returns
			// (see BcastPanel).
			res.data, res.stride = contribs[root].data, contribs[root].stride
			res.bytes = contribs[root].bytes
		case opSplit, opBarrier:
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
	var res result
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
	if buf != nil && res.data != nil {
		if len(buf) != len(res.data) {
			panic(fmt.Sprintf("mpi: Bcast length mismatch: rank %d expects %d elements, root sent %d", p.rank, len(buf), len(res.data)))
		}
		copy(buf, res.data)
		return buf
	}
	return res.data
}

// BcastPanel broadcasts the root's rows×cols panel src into every member's
// dst (the root's included); the dimensions are dst's, and src is read on
// the root only. Every member Puts straight out of the root's view — one
// pass per member, into whatever form its dst has, with no staging and no
// intermediate clone — so unlike Bcast the source is NOT released when the
// root's call returns: it must stay unwritten until World.Run returns (the
// engine passes views of its read-only A and B). A member whose dimensions
// disagree with the root's panics.
func (c *Comm) BcastPanel(p *Proc, src matrix.Dense, dst matrix.Dest, root int) {
	if root < 0 || root >= c.Size() {
		panic(fmt.Sprintf("mpi: BcastPanel root %d out of range (size %d)", root, c.Size()))
	}
	ct := contribution{op: opPanel, bytes: 8 * dst.Rows * dst.Cols}
	if c.RankOf(p.rank) == root {
		if src.Rows != dst.Rows || src.Cols != dst.Cols {
			panic(fmt.Sprintf("mpi: BcastPanel root source is %dx%d, destination %dx%d", src.Rows, src.Cols, dst.Rows, dst.Cols))
		}
		ct.data, ct.stride = src.Data, src.Stride
	}
	res := c.collective(p, ct, root)
	if res.bytes != ct.bytes {
		panic(fmt.Sprintf("mpi: BcastPanel length mismatch: rank %d expects %dx%d (%d bytes), root sent %d bytes",
			p.rank, dst.Rows, dst.Cols, ct.bytes, res.bytes))
	}
	from := matrix.Dense{Rows: dst.Rows, Cols: dst.Cols, Stride: res.stride, Data: res.data}
	if err := dst.Put(&from); err != nil {
		panic(err)
	}
}

// Barrier blocks until every member arrives.
func (c *Comm) Barrier(p *Proc) {
	c.collective(p, contribution{op: opBarrier}, 0)
}
