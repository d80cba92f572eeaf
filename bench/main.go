// Command bench is the deployment benchmark: it stands the real
// monitor → summary → wire → controller → alert path up inside one
// process over loopback TCP, feeds it pre-encoded IPv4 header bytes in a
// closed loop, scores the alerts against per-packet ground truth, and
// reports eight end-to-end metrics or, with -trace 1, a per-layer
// ledger. See README.md in this directory.
//
//	go run ./bench -workload backbone -seed 1 -seconds 20 -trace 0
//	go run ./bench                 # every workload, both passes
//	go run ./bench -selfcheck      # determinism self-check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run (default: all of them, untraced then traced)")
		seed      = flag.Int64("seed", 1, "workload seed: the same seed gives the same header bytes and rules")
		seconds   = flag.Float64("seconds", 20, "how long one run measures")
		traceOn   = flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics instead of the end-to-end ones")
		epochs    = flag.Int("epochs", 0, "run exactly this many epochs with no warm-up instead of -seconds; every count is then a pure function of (workload, seed, epochs)")
		selfcheck = flag.Bool("selfcheck", false, "run each workload twice at 48 epochs and require identical counts and alert hashes")
	)
	flag.Parse()
	// The deployment is sized for two cores: one feeder per monitor and
	// no other load threads.
	runtime.GOMAXPROCS(2)

	if err := mainErr(*workload, *seed, runLimit{seconds: *seconds, epochs: *epochs}, *traceOn != 0, *selfcheck); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, limit runLimit, traced, selfcheck bool) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	specs := workloads
	if workload != "" {
		sp, err := workloadByName(workload)
		if err != nil {
			return err
		}
		specs = []spec{sp}
	}
	if selfcheck {
		return selfCheck(specs, seed)
	}
	fmt.Println(environment())
	passes := []bool{traced}
	if workload == "" {
		passes = []bool{false, true}
	}
	var bad error
	for _, sp := range specs {
		for _, tr := range passes {
			rep, err := measure(sp, seed, limit, tr)
			if err != nil {
				return fmt.Errorf("%s: %w", sp.name, err)
			}
			if err := rep.print(os.Stdout); err != nil {
				return err
			}
			if !rep.Correct {
				bad = fmt.Errorf("%s: run is not correct (see VIOLATION and DRIFT lines)", sp.name)
			}
		}
	}
	return bad
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's result. Its JSON form is the line the benchmark
// contract asks for; the rest is printed above that line for people.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	workload string
	notes    []string
	// violations are failed output correctness checks; drift is the layer
	// probe's reconciliation failure. Either makes the run incorrect.
	violations []string
	drift      string
}

// print writes the readable report and, last, the contract's JSON line.
func (r *report) print(w io.Writer) error {
	fmt.Fprintf(w, "== %s\n", r.workload)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-36s %16.4f %s\n", name, m.Value, m.Unit)
	}
	for _, v := range r.violations {
		fmt.Fprintln(w, "VIOLATION:", v)
	}
	if r.drift != "" {
		fmt.Fprintln(w, "DRIFT:", r.drift)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
