// Command jaal-benchdiff compares two scripts/bench.sh JSON captures
// and reports per-benchmark drift, so a PR's perf delta is one readable
// table instead of two files to eyeball.
//
// Usage:
//
//	jaal-benchdiff [-threshold 0.15] [-fail] old.json new.json
//
// Benchmarks are joined on (pkg, name). For each pair the ns/op and
// allocs/op deltas are printed; a delta beyond -threshold (relative,
// default 15%) is marked as drift. Benchmarks present on only one side
// are listed as added/removed. The default exit status is 0 even with
// drift — CI runs this warn-only, because shared runners make wall
// clock noisy — while -fail turns drift into exit 1 for local
// before/after checks on a quiet machine. allocs/op is deterministic,
// so one case always fails, -fail or not: a benchmark whose baseline is
// 0 allocs/op capturing more than 0 (marked ALLOCS) exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

type benchFile struct {
	Go         string  `json:"go"`
	Date       string  `json:"date"`
	Benchmarks []bench `json:"benchmarks"`
}

type bench struct {
	Pkg     string             `json:"pkg"`
	Name    string             `json:"name"`
	Iters   int64              `json:"iterations"`
	Metrics map[string]float64 `json:"metrics"`
}

type key struct{ pkg, name string }

func load(path string) (*benchFile, map[key]bench, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	m := make(map[key]bench, len(f.Benchmarks))
	for _, b := range f.Benchmarks {
		m[key{b.Pkg, b.Name}] = b
	}
	return &f, m, nil
}

// delta returns the relative change cur vs base for metric name, and
// whether both sides carry it.
func delta(base, cur bench, metric string) (float64, bool) {
	ov, ok1 := base.Metrics[metric]
	nv, ok2 := cur.Metrics[metric]
	if !ok1 || !ok2 || ov == 0 {
		return 0, false
	}
	return (nv - ov) / ov, true
}

// report writes the per-benchmark comparison and returns how many
// benchmarks drifted beyond the threshold and how many allocation-free
// baselines now allocate.
func report(w io.Writer, oldBy, newBy map[key]bench, threshold float64) (drifted, allocating int) {
	var keys []key
	for k := range oldBy {
		keys = append(keys, k)
	}
	for k := range newBy {
		if _, ok := oldBy[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pkg != keys[j].pkg {
			return keys[i].pkg < keys[j].pkg
		}
		return keys[i].name < keys[j].name
	})

	for _, k := range keys {
		o, haveOld := oldBy[k]
		n, haveNew := newBy[k]
		switch {
		case !haveOld:
			fmt.Fprintf(w, "ADDED    %s %s\n", k.pkg, k.name)
			continue
		case !haveNew:
			fmt.Fprintf(w, "REMOVED  %s %s\n", k.pkg, k.name)
			continue
		}
		var cols string
		mark := false
		for _, metric := range [2]string{"ns/op", "allocs/op"} {
			d, ok := delta(o, n, metric)
			if !ok {
				continue
			}
			cols += fmt.Sprintf("  %s %+.1f%%", metric, 100*d)
			if d > threshold {
				mark = true
			}
		}
		status := "ok"
		if mark {
			status = "DRIFT"
			drifted++
		}
		// delta skips a zero baseline, which is the one allocs/op
		// change that is a defect rather than a drift.
		if was, ok := o.Metrics["allocs/op"]; ok && was == 0 && n.Metrics["allocs/op"] > 0 {
			status = "ALLOCS"
			allocating++
			cols += fmt.Sprintf("  allocs/op 0 -> %g", n.Metrics["allocs/op"])
		}
		fmt.Fprintf(w, "%-8s %s %s%s\n", status, k.pkg, k.name, cols)
	}
	return drifted, allocating
}

func main() {
	threshold := flag.Float64("threshold", 0.15, "relative drift that counts as a regression")
	fail := flag.Bool("fail", false, "exit 1 when any benchmark drifts beyond the threshold")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: jaal-benchdiff [-threshold 0.15] [-fail] old.json new.json")
		os.Exit(2)
	}
	oldFile, oldBy, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "jaal-benchdiff:", err)
		os.Exit(2)
	}
	newFile, newBy, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "jaal-benchdiff:", err)
		os.Exit(2)
	}
	fmt.Printf("old: %s (%s)\nnew: %s (%s)\n\n", flag.Arg(0), oldFile.Date, flag.Arg(1), newFile.Date)

	drifted, allocating := report(os.Stdout, oldBy, newBy, *threshold)
	if drifted > 0 {
		fmt.Printf("\n%d benchmark(s) drifted beyond %.0f%%\n", drifted, 100**threshold)
	}
	if allocating > 0 {
		fmt.Printf("\n%d benchmark(s) with a 0 allocs/op baseline now allocate\n", allocating)
	}
	os.Exit(exitStatus(drifted, allocating, *fail))
}

// exitStatus is 1 when an allocation-free baseline allocates, or when
// -fail was given and anything drifted.
func exitStatus(drifted, allocating int, fail bool) int {
	if allocating > 0 || (fail && drifted > 0) {
		return 1
	}
	return 0
}
