package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// smokeEpochs is the length of a smoke run: two attack windows.
const smokeEpochs = 12

// shrunk scales a workload down to what a race-detector build gets
// through in seconds. The smoke tests check the shape of the output,
// not the numbers, so the scale does not matter to them.
func shrunk(sp spec) spec {
	sp.offered = max(2000, sp.offered/15)
	sp.genRules /= 20
	return sp
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.95, 4.8}, {1, 5},
	} {
		if got := percentile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0}, {[]float64{7}, 7}, {[]float64{9, 1}, 5}, {[]float64{3, 100, 1}, 3},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// TestMedianOfCycles pins the rate metrics' estimator: the median over
// measured cycles, so one disturbed cycle does not move the result.
func TestMedianOfCycles(t *testing.T) {
	rates := []float64{100, 101, 40, 99, 100}
	if got := median(rates); got != 100 {
		t.Errorf("median cycle rate = %v, want 100", got)
	}
}

func TestRawFetchCover(t *testing.T) {
	spans := []span{
		{Name: "raw_fetch", Epoch: 3, Start: 10, End: 20},
		{Name: "raw_fetch", Epoch: 3, Start: 15, End: 30}, // overlaps the first
		{Name: "raw_fetch", Epoch: 3, Start: 40, End: 45},
		{Name: "raw_fetch", Epoch: 3, Start: 41, End: 44}, // inside the third
		{Name: "poll", Epoch: 3, Start: 0, End: 100},
		{Name: "raw_fetch", Epoch: 4, Start: 0, End: 7},
	}
	got := rawFetchCover(spans)
	if got[3] != 25 || got[4] != 7 || len(got) != 2 {
		t.Errorf("rawFetchCover = %v, want map[3:25 4:7]", got)
	}
}

// TestSmoke runs both passes of every workload, scaled down, and checks
// that each produces every declared metric, finite and with its
// declared unit, and that the output correctness checks hold.
func TestSmoke(t *testing.T) {
	outDir = t.TempDir()
	for _, sp := range workloads {
		// The race detector slows summarization about tenfold. Under it
		// the two workloads with concurrency of their own are enough:
		// feedback's raw fetches record spans from pool goroutines, and
		// overload runs the sketch pass under both feeders.
		if raceBuild && sp.name != "feedback" && sp.name != "overload" {
			continue
		}
		sp := shrunk(sp)
		for _, traced := range []bool{false, true} {
			rep, err := measure(sp, 1, runLimit{epochs: smokeEpochs}, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.name, traced, err)
			}
			for _, v := range rep.violations {
				t.Errorf("%s traced=%v: violation: %s", sp.name, traced, v)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", sp.name, traced, len(rep.Metrics), len(defs))
			}
			for _, def := range defs {
				m, ok := rep.Metrics[def.name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s missing", sp.name, def.name)
				case m.Unit != def.unit:
					t.Errorf("%s: metric %s has unit %q, want %q", sp.name, def.name, m.Unit, def.unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s is %v", sp.name, def.name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", sp.name, def.name, m.Value)
				}
			}
			if rep.Attempted != smokeEpochs || rep.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d, want %d and 0", sp.name, traced, rep.Attempted, rep.Failed, smokeEpochs)
			}
			if traced {
				checkSpanTree(t, sp.name)
			}
		}
	}
}

// checkSpanTree reads the span file the traced pass wrote and checks
// that it is a forest with one root per epoch, every child inside its
// parent and in its parent's epoch.
func checkSpanTree(t *testing.T, workload string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(outDir, "trace-"+workload+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	roots := make(map[int]int)
	names := make(map[string]bool)
	for i, sp := range spans {
		names[sp.Name] = true
		if sp.End < sp.Start {
			t.Errorf("%s: span %d (%s) ends before it starts", workload, i, sp.Name)
		}
		if sp.Parent < 0 {
			if sp.Name != "epoch" {
				t.Errorf("%s: root span %d is %q, want epoch", workload, i, sp.Name)
			}
			roots[sp.Epoch]++
			continue
		}
		if sp.Parent >= i {
			t.Errorf("%s: span %d (%s) names a parent opened after it", workload, i, sp.Name)
			continue
		}
		p := spans[sp.Parent]
		if p.Epoch != sp.Epoch || sp.Start < p.Start || sp.End > p.End {
			t.Errorf("%s: span %d (%s, epoch %d, %d-%d) is not inside its parent %s (epoch %d, %d-%d)",
				workload, i, sp.Name, sp.Epoch, sp.Start, sp.End, p.Name, p.Epoch, p.Start, p.End)
		}
	}
	for epoch := 0; epoch < smokeEpochs; epoch++ {
		if roots[epoch] != 1 {
			t.Errorf("%s: epoch %d has %d root spans, want 1", workload, epoch, roots[epoch])
		}
	}
	for _, name := range []string{"epoch", "feed.m0", "feed.m1", "poll", "observe_digests", "process_epoch", "raw_fetch", "alert_send", "sink_wait", "load_query"} {
		if !names[name] {
			t.Errorf("%s: no %s span", workload, name)
		}
	}
}

// TestSameSeedSameCounts is the determinism self-check in small: two
// fixed-length runs of one seed agree on the alert stream and the wire
// bytes, and another seed changes the alert stream.
func TestSameSeedSameCounts(t *testing.T) {
	sp := shrunk(workloads[0])
	type counts struct {
		sha      string
		up, down int64
	}
	run := func(seed int64) counts {
		in, err := prepare(sp, seed)
		if err != nil {
			t.Fatal(err)
		}
		d, err := deploy(in, false)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.runAndClose(runLimit{epochs: smokeEpochs})
		if err != nil {
			t.Fatal(err)
		}
		return counts{res.allSHA, res.wireUp, res.wireDown}
	}
	a, b, other := run(1), run(1), run(2)
	if a != b {
		t.Errorf("two runs of seed 1 differ: %+v vs %+v", a, b)
	}
	if a.sha == other.sha {
		t.Errorf("seeds 1 and 2 give the same alert stream %s", a.sha)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step
// with the tables the harness reports from.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", file.Command, file.Paths)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, harness has %s: %s", i, file.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: reason is %d characters, limit 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
			return
		}
		for i, def := range want {
			g := got[i]
			if g.Name != def.name || g.Unit != def.unit || g.Better != def.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %s/%s/%s, harness has %s/%s/%s",
					kind, i, g.Name, g.Unit, g.Better, def.name, def.unit, def.better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != def.bound || def.bound <= 0 || def.bound > 0.25):
				t.Errorf("%s metric %s: bound %v, harness has %v (must be in (0, 0.25])", kind, def.name, g.Bound, def.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s metric %s carries a bound", kind, def.name)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)
}
