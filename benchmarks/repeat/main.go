// Command repeat checks that the benchmark agrees with itself: it runs
// every workload of ../BENCHMARK.json as two interleaved sets A and B on
// one commit (A and B use the same seeds 1..n, and run back to back for
// each seed so both see the same phases of the host), and reports for every
// pairing of end-to-end metric and workload both medians, both quartile
// pairs, the gap between the medians and the spread of each set, against
// the metric's bound.
//
//	cd benchmarks && go run ./repeat -runs 10 > REPEATABILITY.json
//
// It exits non-zero when a gap exceeds half its bound, when a spread other
// than setup_s's exceeds its bound (the rule the benchmark is accepted by),
// or when any run fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"

	"repro/benchmarks/internal/harness"
)

// spec is the part of BENCHMARK.json this tool reads.
type spec struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type set struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3-q1)/median
	Values []float64 `json:"values"`
}

func summarize(v []float64) set {
	q1, q3 := harness.Quartiles(v)
	return set{Median: harness.Median(v), Q1: q1, Q3: q3, Spread: harness.Spread(v), Values: v}
}

type pairing struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Bound    float64 `json:"bound"`
	A        set     `json:"a"`
	B        set     `json:"b"`
	// Gap is how much worse the worse set's median is than the other's, as
	// a share of the better one.
	Gap float64 `json:"gap"`
	OK  bool    `json:"ok"`
}

type report struct {
	NProc      int       `json:"nproc"`
	GoVersion  string    `json:"go_version"`
	RunSeconds int       `json:"run_seconds"`
	RunsPerSet int       `json:"runs_per_set"`
	Canaries   canaries  `json:"canaries_ms"`
	FailedRuns int       `json:"failed_runs"`
	Pairings   []pairing `json:"pairings"`
	OK         bool      `json:"ok"`
}

// canaries are the host readings before the first run and after the last.
type canaries struct {
	ALUStart   float64 `json:"alu_start"`
	ALUEnd     float64 `json:"alu_end"`
	ChaseStart float64 `json:"chase_start"`
	ChaseEnd   float64 `json:"chase_end"`
}

func main() {
	runs := flag.Int("runs", 10, "runs per set and workload (seeds 1..runs), at least 5")
	root := flag.String("root", "..", "root of the checkout, where BENCHMARK.json is and the command runs")
	flag.Parse()
	if *runs < 5 {
		fmt.Fprintln(os.Stderr, "repeat: -runs must be at least 5")
		os.Exit(2)
	}
	b, err := os.ReadFile(*root + "/BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		fatal(err)
	}

	rep := report{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), RunSeconds: sp.RunSeconds, RunsPerSet: *runs}
	alu, chase := harness.Canaries(5)
	rep.Canaries.ALUStart, rep.Canaries.ChaseStart = harness.Median(alu), harness.Median(chase)

	// values[{workload, metric}][set] in seed order.
	values := map[[2]string]*[2][]float64{}
	for seed := 1; seed <= *runs; seed++ {
		for _, w := range sp.Workloads {
			for s := 0; s < 2; s++ {
				res, err := runOnce(*root, sp, w.Name, seed)
				if err != nil || !res.Correct {
					rep.FailedRuns++
					fmt.Fprintf(os.Stderr, "repeat: %s seed %d set %c: failed: %v\n", w.Name, seed, 'A'+s, err)
					continue
				}
				for _, m := range sp.EndToEnd {
					k := [2]string{w.Name, m.Name}
					if values[k] == nil {
						values[k] = &[2][]float64{}
					}
					values[k][s] = append(values[k][s], res.Metrics[m.Name].Value)
				}
				fmt.Fprintf(os.Stderr, "repeat: %s seed %d set %c done\n", w.Name, seed, 'A'+s)
			}
		}
	}
	alu, chase = harness.Canaries(5)
	rep.Canaries.ALUEnd, rep.Canaries.ChaseEnd = harness.Median(alu), harness.Median(chase)

	rep.OK = rep.FailedRuns == 0
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			v := values[[2]string{w.Name, m.Name}]
			if v == nil || len(v[0]) < 2 || len(v[1]) < 2 {
				rep.OK = false
				continue
			}
			p := pairing{Workload: w.Name, Metric: m.Name, Unit: m.Unit, Bound: m.Bound, A: summarize(v[0]), B: summarize(v[1])}
			lo, hi := math.Min(p.A.Median, p.B.Median), math.Max(p.A.Median, p.B.Median)
			if m.Better == "higher" {
				p.Gap = (hi - lo) / hi
			} else {
				p.Gap = (hi - lo) / lo
			}
			p.OK = p.Gap <= m.Bound/2
			if m.Name != "setup_s" && (p.A.Spread > m.Bound || p.B.Spread > m.Bound) {
				p.OK = false
			}
			rep.OK = rep.OK && p.OK
			rep.Pairings = append(rep.Pairings, p)
		}
	}

	out, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !rep.OK {
		os.Exit(1)
	}
}

// runOnce runs the benchmark's command from the root of the checkout, as
// the driver does, and decodes its last line.
func runOnce(root string, sp spec, workload string, seed int) (harness.Result, error) {
	args := append(append([]string(nil), sp.Command[1:]...),
		"--workload", workload, "--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(sp.RunSeconds), "--trace", "0")
	cmd := exec.Command(sp.Command[0], args...)
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return harness.Result{}, err
	}
	return harness.ParseLastLine(out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "repeat:", err)
	os.Exit(1)
}
