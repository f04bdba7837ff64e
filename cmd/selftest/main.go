// Command selftest verifies every multiplication path in the repository
// against a serial reference on this machine: SummaGen over all shape
// families (in-process and over TCP); the SUMMA and block-cyclic
// baselines, which are partition.BlockCyclic layouts run by the same
// engine; the 2.5D and Cannon baselines; and the simulated engine's
// accounting invariants. Run it after building to sanity-check an
// installation.
package main

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/balance"
	"repro/internal/blas"
	"repro/internal/cannon"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/matrix"
	"repro/internal/netmpi"
	"repro/internal/partition"
	"repro/internal/summa25d"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "selftest: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("selftest: all checks passed")
}

type check struct {
	name string
	fn   func(a, b, want *matrix.Dense) error
}

func run() error {
	const n = 96
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	a := matrix.Random(n, n, rng)
	b := matrix.Random(n, n, rng)
	want := matrix.New(n, n)
	if err := blas.Dgemm(n, n, n, 1, a.Data, a.Stride, b.Data, b.Stride, 0, want.Data, want.Stride); err != nil {
		return err
	}
	areas, err := balance.Proportional(n*n, []float64{1.0, 2.0, 0.9})
	if err != nil {
		return err
	}

	var checks []check
	for _, shape := range partition.ExtendedShapes {
		shape := shape
		checks = append(checks, check{
			name: fmt.Sprintf("summagen/%v", shape),
			fn:   viaEngine(func() (*partition.Layout, error) { return partition.Build(shape, n, areas) }),
		})
	}
	checks = append(checks,
		check{"summa/2x3", viaEngine(func() (*partition.Layout, error) { return partition.BlockCyclic(n, 2, 3, 2, 3) })},
		check{"summa25d/q2c2", func(a, b, want *matrix.Dense) error {
			c := matrix.New(n, n)
			if _, err := summa25d.Multiply(a, b, c, summa25d.Config{Q: 2, C: 2, PanelSize: 13}); err != nil {
				return err
			}
			return compare(c, want)
		}},
		check{"cannon/3x3", func(a, b, want *matrix.Dense) error {
			c := matrix.New(n, n)
			if _, err := cannon.Multiply(a, b, c, cannon.Config{Q: 3}); err != nil {
				return err
			}
			return compare(c, want)
		}},
		check{"blockcyclic/2x2", viaEngine(func() (*partition.Layout, error) { return partition.BlockCyclic(n, 2, 2, n/8, n/8) })},
		check{"summagen-tcp/square-corner", func(a, b, want *matrix.Dense) error {
			return tcpCheck(n, areas, a, b, want)
		}},
		check{"simulate/hclserver1", func(a, b, want *matrix.Dense) error {
			layout, err := partition.Build(partition.SquareRectangle, 25600, mustAreas(25600))
			if err != nil {
				return err
			}
			rep, err := core.Simulate(core.Config{Layout: layout, Platform: device.ConstantHCLServer1()})
			if err != nil {
				return err
			}
			if rep.ExecutionTime <= 0 || rep.GFLOPS <= 0 || rep.DynamicEnergyJ <= 0 {
				return fmt.Errorf("incomplete simulated report: %+v", rep)
			}
			return nil
		}},
	)

	for _, ck := range checks {
		start := time.Now()
		if err := ck.fn(a, b, want); err != nil {
			return fmt.Errorf("%s: %w", ck.name, err)
		}
		fmt.Printf("  ok  %-32s %8.1f ms\n", ck.name, time.Since(start).Seconds()*1000)
	}
	return nil
}

// viaEngine checks core.Multiply on the layout build returns.
func viaEngine(build func() (*partition.Layout, error)) func(a, b, want *matrix.Dense) error {
	return func(a, b, want *matrix.Dense) error {
		layout, err := build()
		if err != nil {
			return err
		}
		c := matrix.New(a.Rows, a.Cols)
		if _, err := core.Multiply(a, b, c, core.Config{Layout: layout}); err != nil {
			return err
		}
		return compare(c, want)
	}
}

func mustAreas(n int) []int {
	areas, err := balance.Proportional(n*n, []float64{1.0, 2.0, 0.9})
	if err != nil {
		panic(err)
	}
	return areas
}

func compare(got, want *matrix.Dense) error {
	if !matrix.EqualApprox(got, want, 1e-9) {
		return fmt.Errorf("result mismatch: max diff %g", matrix.MaxAbsDiff(got, want))
	}
	return nil
}

// tcpCheck runs SummaGen across three loopback TCP endpoints.
func tcpCheck(n int, areas []int, a, b, want *matrix.Dense) error {
	layout, err := partition.Build(partition.SquareCorner, n, areas)
	if err != nil {
		return err
	}
	listeners := make([]net.Listener, 3)
	addrs := make([]string, 3)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	cs := make([]*matrix.Dense, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					errs[rank] = fmt.Errorf("rank %d panicked: %v", rank, rec)
				}
			}()
			ep, err := netmpi.Dial(netmpi.Config{Rank: rank, Addrs: addrs, Listener: listeners[rank]})
			if err != nil {
				errs[rank] = err
				return
			}
			defer ep.Close()
			c := matrix.New(n, n)
			cs[rank] = c
			errs[rank] = core.RunRank(ep.Proc(), core.Config{Layout: layout}, a.Clone(), b.Clone(), c)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	got := matrix.New(n, n)
	for i := 0; i < layout.GridRows; i++ {
		for j := 0; j < layout.GridCols; j++ {
			owner := layout.OwnerAt(i, j)
			h, w := layout.RowHeights[i], layout.ColWidths[j]
			src := cs[owner].MustView(layout.RowStart(i), layout.ColStart(j), h, w)
			dst := got.MustView(layout.RowStart(i), layout.ColStart(j), h, w)
			if err := matrix.CopyBlock(dst, src, h, w); err != nil {
				return err
			}
		}
	}
	return compare(got, want)
}
