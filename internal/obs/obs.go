// Package obs is Jaal's stdlib-only observability layer: atomic
// counters, gauges and fixed-bucket histograms behind a process-wide
// registry, exported two ways — Prometheus text over HTTP (plus pprof)
// and an end-of-run summary table. Stage timings are internal/trace
// spans, which observe into these histograms; the controller's
// JSON-lines epoch log is a reader of the sealed epoch trace.
//
// The paper's whole premise is a measurable trade (summaries cut
// monitor→engine communication by ~4 orders of magnitude while keeping
// accuracy, §8); this package makes that trade visible at runtime
// instead of only after rerunning whole experiments.
//
// Two properties are load-bearing:
//
//   - Instrumentation never affects outputs. Metrics are write-only
//     side channels; no code path branches on a metric value, so
//     same-seed runs with observability on and off are byte-identical
//     (TestPipelineObsDeterminism locks this in).
//   - Disabled is (almost) free. Collection is off by default; every
//     hot-path call is one atomic load and a branch, with zero heap
//     allocations (BenchmarkObsOverhead). Handles are package-level
//     vars created at init, so instrumented code never pays a lookup.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// on gates all collection. Exporters read stored values regardless, so
// a scrape after SetEnabled(false) still sees the last state.
var on atomic.Bool

// SetEnabled turns metric collection on or off process-wide.
func SetEnabled(v bool) { on.Store(v) }

// Enabled reports whether collection is active. Instrumented code may
// use it to skip work (e.g. a time.Now pair) that only feeds metrics.
func Enabled() bool { return on.Load() }

// Metric is one registered series. Implementations are lock-free on
// the write path; exporters only read.
type Metric interface {
	// Name is the full Prometheus series name, optionally carrying a
	// fixed label set, e.g. `jaal_wire_tx_frames_total{type="summary"}`.
	Name() string
	// Help is the one-line description emitted as # HELP.
	Help() string
	// Kind is the Prometheus type: "counter", "gauge" or "histogram".
	Kind() string
	// writeProm emits the metric's sample lines in text exposition
	// format.
	writeProm(w io.Writer)
	// rows yields the summary-table view; empty when the metric has
	// recorded nothing.
	rows() []Row
	// Reset zeroes the metric (tests and benchmarks).
	Reset()
}

// registry holds every metric created through this package. There is
// one per process; metrics register at package init of their users.
type registry struct {
	mu      sync.Mutex
	metrics []Metric
	byName  map[string]Metric
}

var def = &registry{byName: make(map[string]Metric)}

func register(m Metric) {
	def.mu.Lock()
	defer def.mu.Unlock()
	if _, dup := def.byName[m.Name()]; dup {
		panic("obs: duplicate metric " + m.Name())
	}
	def.byName[m.Name()] = m
	def.metrics = append(def.metrics, m)
}

// snapshot returns the registered metrics sorted by name.
func snapshot() []Metric {
	def.mu.Lock()
	ms := make([]Metric, len(def.metrics))
	copy(ms, def.metrics)
	def.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name() < ms[j].Name() })
	return ms
}

// CounterValues returns the current value of every registered counter,
// keyed by series name. The trace layer uses it to attach the counter
// movement that accompanied a slow epoch to that epoch's exemplar.
func CounterValues() map[string]int64 {
	def.mu.Lock()
	defer def.mu.Unlock()
	out := make(map[string]int64, len(def.metrics))
	for _, m := range def.metrics {
		if c, ok := m.(*Counter); ok {
			out[c.Name()] = c.Value()
		}
	}
	return out
}

// ResetAll zeroes every registered metric (tests and benchmarks).
func ResetAll() {
	for _, m := range snapshot() {
		m.Reset()
	}
}

// baseName strips the label set from a series name.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// WritePrometheus writes every registered metric in Prometheus text
// exposition format. Labeled series sharing a base name are grouped
// under one # HELP/# TYPE header.
func WritePrometheus(w io.Writer) {
	var lastBase string
	for _, m := range snapshot() {
		if b := baseName(m.Name()); b != lastBase {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", b, m.Help(), b, m.Kind())
			lastBase = b
		}
		m.writeProm(w)
	}
}

// Counter is a monotonically increasing int64.
type Counter struct {
	nm, hp string
	v      atomic.Int64
}

// NewCounter creates and registers a counter.
func NewCounter(name, help string) *Counter {
	c := &Counter{nm: name, hp: help}
	register(c)
	return c
}

// Add increments the counter by n when collection is enabled. The
// disabled path is one atomic load and a branch, no allocation.
func (c *Counter) Add(n int64) {
	if on.Load() {
		c.v.Add(n)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Name implements Metric.
func (c *Counter) Name() string { return c.nm }

// Help implements Metric.
func (c *Counter) Help() string { return c.hp }

// Kind implements Metric.
func (c *Counter) Kind() string { return "counter" }

// Reset implements Metric.
func (c *Counter) Reset() { c.v.Store(0) }

func (c *Counter) writeProm(w io.Writer) {
	fmt.Fprintf(w, "%s %d\n", c.nm, c.v.Load())
}

func (c *Counter) rows() []Row {
	v := c.v.Load()
	if v == 0 {
		return nil
	}
	return []Row{{Name: c.nm, Value: fmt.Sprintf("%d", v)}}
}

// IntGauge is a settable int64 level (pending packets, active workers).
type IntGauge struct {
	nm, hp string
	v      atomic.Int64
}

// NewIntGauge creates and registers an integer gauge.
func NewIntGauge(name, help string) *IntGauge {
	g := &IntGauge{nm: name, hp: help}
	register(g)
	return g
}

// Set stores v when collection is enabled.
func (g *IntGauge) Set(v int64) {
	if on.Load() {
		g.v.Store(v)
	}
}

// Add moves the gauge by delta when collection is enabled.
func (g *IntGauge) Add(delta int64) {
	if on.Load() {
		g.v.Add(delta)
	}
}

// Value returns the current level.
func (g *IntGauge) Value() int64 { return g.v.Load() }

// Name implements Metric.
func (g *IntGauge) Name() string { return g.nm }

// Help implements Metric.
func (g *IntGauge) Help() string { return g.hp }

// Kind implements Metric.
func (g *IntGauge) Kind() string { return "gauge" }

// Reset implements Metric.
func (g *IntGauge) Reset() { g.v.Store(0) }

func (g *IntGauge) writeProm(w io.Writer) {
	fmt.Fprintf(w, "%s %d\n", g.nm, g.v.Load())
}

func (g *IntGauge) rows() []Row {
	v := g.v.Load()
	if v == 0 {
		return nil
	}
	return []Row{{Name: g.nm, Value: fmt.Sprintf("%d", v)}}
}

// Gauge is a settable float64 level (a ratio, a rate).
type Gauge struct {
	nm, hp string
	bits   atomic.Uint64
}

// NewGauge creates and registers a float gauge.
func NewGauge(name, help string) *Gauge {
	g := &Gauge{nm: name, hp: help}
	register(g)
	return g
}

// Set stores v when collection is enabled.
func (g *Gauge) Set(v float64) {
	if on.Load() {
		g.bits.Store(floatBits(v))
	}
}

// Value returns the current level.
func (g *Gauge) Value() float64 { return floatFromBits(g.bits.Load()) }

// Name implements Metric.
func (g *Gauge) Name() string { return g.nm }

// Help implements Metric.
func (g *Gauge) Help() string { return g.hp }

// Kind implements Metric.
func (g *Gauge) Kind() string { return "gauge" }

// Reset implements Metric.
func (g *Gauge) Reset() { g.bits.Store(0) }

func (g *Gauge) writeProm(w io.Writer) {
	fmt.Fprintf(w, "%s %g\n", g.nm, g.Value())
}

func (g *Gauge) rows() []Row {
	v := g.Value()
	if v == 0 {
		return nil
	}
	return []Row{{Name: g.nm, Value: fmt.Sprintf("%.6g", v)}}
}
