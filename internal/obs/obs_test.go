package obs

import (
	"bytes"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// Metrics here are created once at package scope: the registry is
// process-wide and rejects duplicate names, so tests share handles and
// reset state instead of re-registering.
var (
	tCounter = NewCounter("test_counter_total", "a test counter")
	tLabeled = NewCounter("test_labeled_total{kind=\"a\"}", "a labeled test counter")
	tGauge   = NewGauge("test_gauge", "a test gauge")
	tInt     = NewIntGauge("test_int_gauge", "a test int gauge")
	tHist    = NewHistogram("test_hist_seconds", "a test histogram", []float64{0.1, 1, 10})
)

func resetOn(tb testing.TB) {
	tb.Helper()
	SetEnabled(true)
	tb.Cleanup(func() {
		SetEnabled(false)
		ResetAll()
	})
	ResetAll()
}

func TestDisabledIsNoop(t *testing.T) {
	SetEnabled(false)
	ResetAll()
	tCounter.Add(5)
	tGauge.Set(3.5)
	tInt.Set(7)
	tHist.Observe(0.5)
	if tCounter.Value() != 0 || tGauge.Value() != 0 || tInt.Value() != 0 || tHist.Count() != 0 {
		t.Fatalf("disabled metrics recorded: counter=%d gauge=%v int=%d hist=%d",
			tCounter.Value(), tGauge.Value(), tInt.Value(), tHist.Count())
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	resetOn(t)
	tCounter.Add(2)
	tCounter.Inc()
	if tCounter.Value() != 3 {
		t.Fatalf("counter = %d, want 3", tCounter.Value())
	}
	tGauge.Set(0.35)
	if tGauge.Value() != 0.35 {
		t.Fatalf("gauge = %v, want 0.35", tGauge.Value())
	}
	tInt.Add(4)
	tInt.Add(-1)
	if tInt.Value() != 3 {
		t.Fatalf("int gauge = %d, want 3", tInt.Value())
	}
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		tHist.Observe(v)
	}
	if tHist.Count() != 5 {
		t.Fatalf("hist count = %d, want 5", tHist.Count())
	}
	if got := tHist.Sum(); got != 56.05 {
		t.Fatalf("hist sum = %v, want 56.05", got)
	}
	if m := tHist.Mean(); m < 11.209 || m > 11.211 {
		t.Fatalf("hist mean = %v, want ≈11.21", m)
	}
	// 0.05→bucket 0.1; two 0.5→bucket 1; 5→bucket 10; 50→overflow.
	if q := tHist.Quantile(0.5); q != 1 {
		t.Fatalf("p50 = %v, want 1", q)
	}
	if q := tHist.Quantile(0.99); q != 10 {
		t.Fatalf("p99 = %v, want 10 (overflow reports largest finite bound)", q)
	}
}

func TestPrometheusFormat(t *testing.T) {
	resetOn(t)
	tCounter.Add(7)
	tLabeled.Add(2)
	tHist.Observe(0.5)
	var b bytes.Buffer
	WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP test_counter_total a test counter",
		"# TYPE test_counter_total counter",
		"test_counter_total 7",
		"test_labeled_total{kind=\"a\"} 2",
		"# TYPE test_hist_seconds histogram",
		"test_hist_seconds_bucket{le=\"0.1\"} 0",
		"test_hist_seconds_bucket{le=\"1\"} 1",
		"test_hist_seconds_bucket{le=\"+Inf\"} 1",
		"test_hist_seconds_sum 0.5",
		"test_hist_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestHandlerServesMetrics(t *testing.T) {
	resetOn(t)
	tCounter.Add(9)
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	NewMux().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "test_counter_total 9") {
		t.Fatalf("metrics body missing counter:\n%s", rec.Body.String())
	}
}

// TestMetricsConcurrentReadWrite writes every metric kind from four
// goroutines while the test goroutine renders the registry every way an
// operator reads it. It holds the invariant that every metric field is a
// typed atomic that nothing copies: a plain read beside an atomic write,
// or a copy of Histogram.counts, is a data race. It bites only under
// -race, which scripts/check.sh and CI use; plain go test passes either
// way.
func TestMetricsConcurrentReadWrite(t *testing.T) {
	resetOn(t)
	const writers, n = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				tCounter.Inc()
				tInt.Add(1)
				tGauge.Set(float64(i))
				tHist.Observe(float64(i%20) / 2)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		WritePrometheus(io.Discard)
		WriteTable(io.Discard)
		CounterValues()
		tHist.Quantile(0.99)
		tHist.Mean()
	}
	if got := tCounter.Value(); got != writers*n {
		t.Fatalf("counter = %d after %d concurrent increments", got, writers*n)
	}
	if got := tHist.Count(); got != writers*n {
		t.Fatalf("histogram count = %d after %d concurrent observations", got, writers*n)
	}
}

func TestTableSkipsZeros(t *testing.T) {
	resetOn(t)
	tCounter.Add(4)
	var b bytes.Buffer
	WriteTable(&b)
	out := b.String()
	if !strings.Contains(out, "test_counter_total") {
		t.Fatalf("table missing non-zero counter:\n%s", out)
	}
	if strings.Contains(out, "test_gauge") {
		t.Fatalf("table must omit zero-valued metrics:\n%s", out)
	}
}

// The metric writes instrumented code makes per packet and per batch,
// each under the enablement its benchmark names. The benchmarks time
// them and TestMetricWritesZeroAlloc holds them to zero allocations.
func counterDisabledOp(testing.TB) func() {
	SetEnabled(false)
	return func() { tCounter.Inc() }
}

func counterEnabledOp(tb testing.TB) func() {
	resetOn(tb)
	return func() { tCounter.Inc() }
}

func histogramEnabledOp(tb testing.TB) func() {
	resetOn(tb)
	return func() { tHist.Observe(0.5) }
}

func benchOp(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkCounterDisabled is the disabled hot path: a couple of
// nanoseconds.
func BenchmarkCounterDisabled(b *testing.B)         { benchOp(b, counterDisabledOp(b)) }
func BenchmarkCounterEnabled(b *testing.B)          { benchOp(b, counterEnabledOp(b)) }
func BenchmarkHistogramObserveEnabled(b *testing.B) { benchOp(b, histogramEnabledOp(b)) }

func TestMetricWritesZeroAlloc(t *testing.T) {
	for _, w := range []struct {
		name string
		op   func(testing.TB) func()
	}{
		{"CounterDisabled", counterDisabledOp},
		{"CounterEnabled", counterEnabledOp},
		{"HistogramObserveEnabled", histogramEnabledOp},
	} {
		t.Run(w.name, func(t *testing.T) {
			if n := testing.AllocsPerRun(1000, w.op(t)); n != 0 {
				t.Fatalf("%s made %v allocations per write, want 0", w.name, n)
			}
		})
	}
}
