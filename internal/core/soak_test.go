//go:build soak

package core

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/obs"
)

// The soak harness (scripts/soak.sh, `go test -tags soak`) runs the
// seeded wire pipeline continuously for SOAK_DURATION (default 30s)
// and scrapes its own /metrics endpoint between epochs to assert the
// deployment is leak-free at steady state:
//
//   - goroutine count flat after warmup (no per-epoch goroutine leak);
//   - summary-arena amortization holds: chunks are carved arenaBatch
//     takes at a time, so chunk allocs per take must stay near the
//     designed 1/arenaBatch, not degrade to one alloc per summary;
//   - heap in-use bounded by a fixed multiple of its post-warmup level
//     (expired chunks are garbage; live memory must not accumulate).

// scrapeMetrics fetches url and returns metric name → value for plain
// (unlabeled) series.
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	vals := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 || strings.Contains(fields[0], "{") {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		vals[fields[0]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scrape: %v", err)
	}
	return vals
}

func soakDuration() time.Duration {
	if s := os.Getenv("SOAK_DURATION"); s != "" {
		d, err := time.ParseDuration(s)
		if err == nil {
			return d
		}
	}
	return 30 * time.Second
}

func TestSoakSteadyState(t *testing.T) {
	addr, err := obs.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { obs.SetEnabled(false); obs.ResetAll() }()
	url := fmt.Sprintf("http://%s/metrics", addr)

	const monitors, perEpoch = 3, 3000
	d := startChaosDeployment(t, monitors, chaosRetryConfig(), false,
		func(int, int) *faultnet.Plan { return nil })

	// Each epoch's alerts leave through an AlertWriter to an AlertSink,
	// so the gates below cover the writer goroutine and its buffers too.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var delivered atomic.Int64
	sink := &AlertSink{Handler: func(string) { delivered.Add(1) }}
	go sink.ListenAndServe(ln)
	alerts := NewAlertWriter(func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) }, chaosRetryConfig())
	sent := 0

	duration := soakDuration()
	deadline := time.Now().Add(duration)
	t.Logf("soaking for %v against %s", duration, url)

	// Warmup: let arenas, TCP buffers and the inference caches reach
	// steady state before taking the baseline.
	const warmupEpochs = 10
	epochs := 0
	runEpoch := func() {
		ingestEpoch(t, d, perEpoch)
		res, err := d.engine.RunEpoch()
		if err != nil {
			t.Fatalf("epoch %d: %v", epochs, err)
		}
		if res.Degraded {
			t.Fatalf("epoch %d degraded in a fault-free soak", epochs)
		}
		for _, a := range res.Alerts {
			if err := alerts.Send(a); err != nil {
				t.Fatalf("epoch %d: alert delivery: %v", epochs, err)
			}
		}
		sent += len(res.Alerts)
		epochs++
	}
	for i := 0; i < warmupEpochs; i++ {
		runEpoch()
	}
	base := scrapeMetrics(t, url)
	baseGoroutines := base["jaal_go_goroutines"]
	baseChunks := base["jaal_summary_arena_chunk_allocs_total"]
	baseTakes := base["jaal_summary_arena_takes_total"]
	baseHeap := base["jaal_go_heap_inuse_bytes"]
	if baseGoroutines == 0 || baseHeap == 0 {
		t.Fatalf("runtime gauges missing from scrape: %v", base)
	}

	var maxGoroutines float64
	for time.Now().Before(deadline) {
		for i := 0; i < 5; i++ {
			runEpoch()
		}
		cur := scrapeMetrics(t, url)
		if g := cur["jaal_go_goroutines"]; g > maxGoroutines {
			maxGoroutines = g
		}
	}
	final := scrapeMetrics(t, url)
	if err := alerts.Close(); err != nil {
		t.Fatalf("alert writer close: %v", err)
	}
	deliveredBy := time.Now().Add(10 * time.Second)
	for delivered.Load() < int64(sent) && time.Now().Before(deliveredBy) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := delivered.Load(); got != int64(sent) {
		t.Errorf("alert sink saw %d of the %d alerts sent", got, sent)
	}
	takes := final["jaal_summary_arena_takes_total"] - baseTakes
	chunks := final["jaal_summary_arena_chunk_allocs_total"] - baseChunks
	t.Logf("soak: %d epochs, %d alerts, goroutines %.0f→%.0f, arena %.0f takes / %.0f chunks, heap %.0fMB→%.0fMB",
		epochs, sent, baseGoroutines, final["jaal_go_goroutines"], takes, chunks,
		baseHeap/(1<<20), final["jaal_go_heap_inuse_bytes"]/(1<<20))

	// Zero goroutine growth: transient scrape/accept goroutines allow a
	// small constant band, but nothing may scale with epoch count.
	if got := final["jaal_go_goroutines"]; got > baseGoroutines+5 {
		t.Errorf("goroutines grew from %.0f to %.0f over %d epochs", baseGoroutines, got, epochs)
	}
	if maxGoroutines > baseGoroutines+10 {
		t.Errorf("goroutine high-water %.0f far above post-warmup %.0f", maxGoroutines, baseGoroutines)
	}
	// Flat arena amortization: summaries are carved arenaBatch (8) at a
	// time, so chunk allocs per take should sit near 1/8. A ratio
	// climbing toward 1 means the reuse path broke and every summary
	// pays a fresh slab.
	if takes > 0 {
		if ratio := chunks / takes; ratio > 0.3 {
			t.Errorf("arena reuse degraded: %.0f chunk allocs for %.0f takes (ratio %.2f, want ~0.125)",
				chunks, takes, ratio)
		}
	}
	// Heap bounded: steady-state churn is fine, monotonic growth is not.
	if got := final["jaal_go_heap_inuse_bytes"]; got > 2*baseHeap+(64<<20) {
		t.Errorf("heap in-use grew from %.0f to %.0f bytes", baseHeap, got)
	}
}
