package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// contract is the part of BENCHMARK.json the agreement tool reads.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadContract(dir string) (*contract, error) {
	b, err := os.ReadFile(filepath.Join(dir, "..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is what the
// driver computes spreads with. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	asc := sorted(xs)
	m := len(asc)
	at := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (asc[j-1]*(4-delta) + asc[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// verdict compares the first set's median with the worst later set's. A
// spread wider than the bound means the runs cannot resolve a difference of
// that size: the pairing is unresolved, not unchanged.
func verdict(sets [][]float64, better string, bound float64) (first, worst, diff, widest float64, word string) {
	first, worst = median(sets[0]), median(sets[0])
	for _, set := range sets {
		widest = max(widest, spread(set))
	}
	for _, set := range sets[1:] {
		m := median(set)
		if (better == "lower" && m > worst) || (better == "higher" && m < worst) {
			worst = m
		}
	}
	diff = (worst - first) / first
	if better == "higher" {
		diff = -diff
	}
	switch {
	case widest > bound:
		word = "unresolved"
	case diff > bound:
		word = "beyond bound"
	default:
		word = "ok"
	}
	return first, worst, diff, widest, word
}

// runsPerSet is how many runs of each workload, on consecutive seeds, make one
// set: the fewest whose quartiles (positions 2 and 6 of 7) leave the set's
// fastest and slowest run out, so that one run inside a noisy minute does not
// decide the spread.
const runsPerSet = 7

// agree runs the full untraced set o.agree times on the same seeds,
// alternating the workload order between sets, and checks every pairing of
// end-to-end metric and workload against BENCHMARK.json's bound. A later
// issue's parent-versus-change comparison reads the same table.
func agree(o options) error {
	c, err := loadContract(o.dir)
	if err != nil {
		return err
	}
	if o.agree < 2 {
		return fmt.Errorf("-agree needs at least 2 sets")
	}
	// values[workload][metric][set] holds one value per run.
	values := map[string]map[string][][]float64{}
	for set := 0; set < o.agree; set++ {
		for k := range c.Workloads {
			if set%2 == 1 {
				k = len(c.Workloads) - 1 - k
			}
			name := c.Workloads[k].Name
			if values[name] == nil {
				values[name] = map[string][][]float64{}
			}
			for run := 0; run < runsPerSet; run++ {
				res, err := runChild(o, name, o.seed+int64(run), false, "-trace", "0")
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s: %d of %d ops failed", name, res.Failed, res.Attempted)
				}
				fmt.Fprintf(os.Stderr, "set %d %s run %d done\n", set+1, name, run+1)
				for _, m := range c.EndToEnd {
					v, ok := res.Metrics[m.Name]
					if !ok {
						return fmt.Errorf("%s: metric %s missing from the result", name, m.Name)
					}
					sets := values[name][m.Name]
					for len(sets) <= set {
						sets = append(sets, nil)
					}
					sets[set] = append(sets[set], v.Value)
					values[name][m.Name] = sets
				}
			}
		}
	}
	fmt.Printf("agreement of %d sets × %d runs (seeds %d…%d), run length %g s\n\n", o.agree, runsPerSet, o.seed, o.seed+runsPerSet-1, o.seconds)
	fmt.Printf("| workload | metric | unit | first set median | worst later median | worse by | widest spread | bound | verdict |\n|---|---|---|---|---|---|---|---|---|\n")
	beyond := 0
	for _, w := range c.Workloads {
		for _, m := range c.EndToEnd {
			first, worst, diff, widest, word := verdict(values[w.Name][m.Name], m.Better, m.Bound)
			if word == "beyond bound" {
				beyond++
			}
			fmt.Printf("| %s | %s | %s | %.5g | %.5g | %+.1f%% | %.1f%% | %.0f%% | %s |\n",
				w.Name, m.Name, m.Unit, first, worst, 100*diff, 100*widest, 100*m.Bound, word)
		}
	}
	if beyond > 0 {
		return fmt.Errorf("%d pairings beyond their bound", beyond)
	}
	return nil
}
