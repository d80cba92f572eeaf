package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mkBench(pkg, name string, ns, allocs float64) bench {
	return bench{Pkg: pkg, Name: name, Iters: 100,
		Metrics: map[string]float64{"ns/op": ns, "allocs/op": allocs}}
}

func TestLoadBenchJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.json")
	data := `{"go":"go1.24","date":"2026-08-06T00:00:00Z","benchmarks":[
		{"pkg":"repro","name":"BenchmarkX","iterations":7,"metrics":{"ns/op":120.5,"B/op":64,"allocs/op":2}}]}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	f, by, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Go != "go1.24" || len(by) != 1 {
		t.Fatalf("loaded %+v", f)
	}
	b := by[key{"repro", "BenchmarkX"}]
	if b.Iters != 7 || b.Metrics["ns/op"] != 120.5 {
		t.Fatalf("benchmark decoded as %+v", b)
	}
	if _, _, err := load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestDelta(t *testing.T) {
	old := mkBench("p", "B", 100, 10)
	cur := mkBench("p", "B", 130, 10)
	if d, ok := delta(old, cur, "ns/op"); !ok || d != 0.3 {
		t.Fatalf("ns/op delta = %v, %v", d, ok)
	}
	if d, ok := delta(old, cur, "allocs/op"); !ok || d != 0 {
		t.Fatalf("allocs/op delta = %v, %v", d, ok)
	}
	if _, ok := delta(old, cur, "B/op"); ok {
		t.Fatal("metric absent on both sides must report !ok")
	}
	if _, ok := delta(mkBench("p", "B", 0, 0), cur, "ns/op"); ok {
		t.Fatal("zero baseline must report !ok (no divide)")
	}
}

func TestReport(t *testing.T) {
	oldBy := map[key]bench{
		{"p", "BenchmarkSame"}:    mkBench("p", "BenchmarkSame", 100, 5),
		{"p", "BenchmarkSlow"}:    mkBench("p", "BenchmarkSlow", 100, 5),
		{"p", "BenchmarkFast"}:    mkBench("p", "BenchmarkFast", 100, 5),
		{"p", "BenchmarkRemoved"}: mkBench("p", "BenchmarkRemoved", 100, 5),
	}
	newBy := map[key]bench{
		{"p", "BenchmarkSame"}:  mkBench("p", "BenchmarkSame", 101, 5),
		{"p", "BenchmarkSlow"}:  mkBench("p", "BenchmarkSlow", 200, 5), // +100% ns/op: drift
		{"p", "BenchmarkFast"}:  mkBench("p", "BenchmarkFast", 50, 5),  // improvement: not drift
		{"p", "BenchmarkAdded"}: mkBench("p", "BenchmarkAdded", 10, 1),
	}
	var sb strings.Builder
	drifted, allocating := report(&sb, oldBy, newBy, 0.15)
	out := sb.String()
	if drifted != 1 || allocating != 0 {
		t.Fatalf("drifted = %d, allocating = %d, want 1 and 0\n%s", drifted, allocating, out)
	}
	for _, want := range []string{
		"ADDED    p BenchmarkAdded",
		"REMOVED  p BenchmarkRemoved",
		"DRIFT    p BenchmarkSlow",
		"ok       p BenchmarkFast",
		"ok       p BenchmarkSame",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Output must be sorted, so repeated runs diff cleanly.
	if strings.Index(out, "BenchmarkAdded") > strings.Index(out, "BenchmarkFast") {
		t.Errorf("report not in sorted order:\n%s", out)
	}
}

// A 0 allocs/op baseline is the one deterministic gate: capturing an
// allocation there is counted (and main exits 1 on it) however small
// the ns/op movement; staying at 0, or allocating more where the
// baseline already allocated, is not.
func TestReportAllocGate(t *testing.T) {
	oldBy := map[key]bench{
		{"p", "BenchmarkStillFree"}: mkBench("p", "BenchmarkStillFree", 100, 0),
		{"p", "BenchmarkNowAllocs"}: mkBench("p", "BenchmarkNowAllocs", 100, 0),
		{"p", "BenchmarkAlready"}:   mkBench("p", "BenchmarkAlready", 100, 5),
	}
	newBy := map[key]bench{
		{"p", "BenchmarkStillFree"}: mkBench("p", "BenchmarkStillFree", 300, 0), // ns/op drift only
		{"p", "BenchmarkNowAllocs"}: mkBench("p", "BenchmarkNowAllocs", 100, 1),
		{"p", "BenchmarkAlready"}:   mkBench("p", "BenchmarkAlready", 100, 5.5),
	}
	var sb strings.Builder
	drifted, allocating := report(&sb, oldBy, newBy, 0.15)
	out := sb.String()
	if drifted != 1 || allocating != 1 {
		t.Fatalf("drifted = %d, allocating = %d, want 1 and 1\n%s", drifted, allocating, out)
	}
	if exitStatus(drifted, allocating, false) != 1 {
		t.Fatal("a free baseline that allocates must exit 1 without -fail")
	}
	for _, want := range []string{
		"ALLOCS   p BenchmarkNowAllocs  ns/op +0.0%  allocs/op 0 -> 1",
		"DRIFT    p BenchmarkStillFree",
		"ok       p BenchmarkAlready",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	newBy[key{"p", "BenchmarkNowAllocs"}] = mkBench("p", "BenchmarkNowAllocs", 100, 0)
	drifted, allocating = report(&sb, oldBy, newBy, 0.15)
	if allocating != 0 {
		t.Fatalf("allocating = %d with every free baseline still free", allocating)
	}
	if exitStatus(drifted, allocating, false) != 0 || exitStatus(drifted, allocating, true) != 1 {
		t.Fatal("ns/op drift alone must stay warn-only unless -fail is given")
	}
}
