package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rules"
	"repro/internal/sketch"
	"repro/internal/summary"
	"repro/internal/trace"
	"repro/internal/trafficgen"
)

// TestRejectsNonPositiveEpoch builds the command and runs it with
// -epoch 0: it must exit non-zero naming the flag before it dials any
// monitor, not panic in time.NewTicker after dialling every one.
func TestRejectsNonPositiveEpoch(t *testing.T) {
	bin := buildCommand(t)
	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-epoch", "0", "-monitors", "127.0.0.1:1")
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("-epoch 0: want a non-zero exit, got %v\nstderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-epoch") {
		t.Fatalf("-epoch 0: stderr does not name the flag:\n%s", stderr.String())
	}
}

// buildCommand builds the command into the test's temporary directory
// and returns the binary's path.
func buildCommand(t *testing.T) string {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "jaal-controller")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestSignalDrainsAlerts runs the command against one monitor that sees
// a SYN flood and against an alert sink, sends SIGTERM once the epoch
// log holds two records, and wants a clean exit within 5 s: the sink
// has received every alert the records count, and with -trace-out the
// trace file parses.
func TestSignalDrainsAlerts(t *testing.T) {
	bin := buildCommand(t)
	for _, withTrace := range []bool{false, true} {
		name := "plain"
		if withTrace {
			name = "trace-out"
		}
		t.Run(name, func(t *testing.T) {
			monAddr := serveFloodedMonitor(t)
			sinkAddr, delivered := serveAlertSink(t)
			dir := t.TempDir()
			logPath := filepath.Join(dir, "epochs.jsonl")
			tracePath := filepath.Join(dir, "epochs.trace.json")
			args := []string{"-monitors", monAddr, "-epoch", "100ms", "-volume", "2000",
				"-alert-addr", sinkAddr, "-epochlog", logPath}
			if withTrace {
				args = append(args, "-trace-out", tracePath)
			}
			var stderr bytes.Buffer
			cmd := exec.Command(bin, args...)
			cmd.Stderr = &stderr
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			exited := make(chan error, 1)
			go func() { exited <- cmd.Wait() }()
			t.Cleanup(func() { cmd.Process.Kill() })
			// killedStderr stops a process still running, so its stderr
			// is read only once nothing writes it.
			killedStderr := func() string {
				cmd.Process.Kill()
				<-exited
				return stderr.String()
			}

			for deadline := time.Now().Add(60 * time.Second); len(readRecords(t, logPath)) < 2; time.Sleep(20 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("no two epoch records within 60 s\nstderr:\n%s", killedStderr())
				}
			}
			if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-exited:
				if err != nil {
					t.Fatalf("SIGTERM: want exit 0, got %v\nstderr:\n%s", err, stderr.String())
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("still running 5 s after SIGTERM\nstderr:\n%s", killedStderr())
			}

			want := 0
			for _, rec := range readRecords(t, logPath) {
				want += rec.Alerts
			}
			if want == 0 {
				t.Fatalf("the epoch records count no alert\nstderr:\n%s", stderr.String())
			}
			if got := delivered(); got != want {
				t.Fatalf("sink received %d alerts, the epoch records count %d\nstderr:\n%s", got, want, stderr.String())
			}
			if withTrace {
				b, err := os.ReadFile(tracePath)
				if err != nil {
					t.Fatal(err)
				}
				var tf struct {
					TraceEvents []json.RawMessage `json:"traceEvents"`
				}
				if err := json.Unmarshal(b, &tf); err != nil || len(tf.TraceEvents) == 0 {
					t.Fatalf("trace file does not parse as trace events (%v):\n%.200s", err, b)
				}
			}
		})
	}
}

// readRecords parses the alert counts of the -epochlog file's complete
// lines.
func readRecords(t *testing.T, path string) []struct{ Alerts int } {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	var recs []struct{ Alerts int }
	for _, line := range strings.SplitAfter(string(b), "\n") {
		if !strings.HasSuffix(line, "\n") {
			break // not yet complete
		}
		var rec struct{ Alerts int }
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("epoch log line does not parse: %v\n%s", err, line)
		}
		recs = append(recs, rec)
	}
	return recs
}

// serveFloodedMonitor serves one monitor on a loopback port and feeds
// it backbone traffic carrying a SYN flood, 2 000 packets per 100 ms,
// until the test ends.
func serveFloodedMonitor(t *testing.T) string {
	t.Helper()
	m, err := core.NewMonitorSketch(0, summary.Config{
		BatchSize: 500, Rank: 12, Centroids: 100, MinBatch: 100, Seed: 1,
	}, sketch.Config{})
	if err != nil {
		t.Fatal(err)
	}
	atk, err := trafficgen.NewAttack(rules.AttackSYNFlood, trafficgen.AttackConfig{Seed: 2, Victim: 0x0A000001})
	if err != nil {
		t.Fatal(err)
	}
	mix := trafficgen.NewMixer(trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(1)), atk, trafficgen.MixConfig{Seed: 3})
	done := make(chan struct{})
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			for i := 0; i < 200; i++ {
				if err := m.Ingest(mix.Next().Header); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		srv := &core.MonitorServer{Monitor: m}
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				srv.Serve(conn)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		close(done)
		<-fed
	})
	return ln.Addr().String()
}

// serveAlertSink serves an alert sink on a loopback port. delivered
// stops accepting, waits until every connection the sink accepted has
// reached EOF and returns how many alerts arrived.
func serveAlertSink(t *testing.T) (addr string, delivered func() int) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		count int
		conns sync.WaitGroup
	)
	sink := &core.AlertSink{Handler: func(string) {
		mu.Lock()
		count++
		mu.Unlock()
	}}
	accepting := make(chan struct{})
	go func() {
		defer close(accepting)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func() {
				defer conns.Done()
				defer conn.Close()
				sink.Serve(conn)
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String(), func() int {
		ln.Close()
		<-accepting // no Add after this, so Wait cannot race one
		conns.Wait()
		mu.Lock()
		defer mu.Unlock()
		return count
	}
}

// TestEpochRecordReadsTrace runs three traced epochs of an engine over
// two wire monitors and writes each one's -epochlog record: one JSON
// line per epoch, carrying the epoch's counts and its sealed trace,
// whose spans say where the epoch's time went.
func TestEpochRecordReadsTrace(t *testing.T) {
	trace.Reset()
	trace.SetEnabled(true)
	t.Cleanup(func() {
		trace.SetEnabled(false)
		trace.Reset()
	})

	env := rules.NewEnvironment()
	env.Set("HOME_NET", netip.MustParsePrefix("10.0.0.0/8"))
	qs, err := rules.LibraryQuestions(env, rules.TranslateConfig{
		DefaultDistanceThreshold: 0.08,
		VarianceThreshold:        0.005,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := core.NewController(core.ControllerConfig{Env: env, Questions: qs})
	if err != nil {
		t.Fatal(err)
	}
	engine := &core.Engine{Controller: ctrl}
	var mons []*core.Monitor
	for id := 0; id < 2; id++ {
		m, err := core.NewMonitorSketch(id, summary.Config{
			BatchSize: 500, Rank: 12, Centroids: 100, MinBatch: 100, Seed: int64(id) + 1,
		}, sketch.Config{})
		if err != nil {
			t.Fatal(err)
		}
		client, server := net.Pipe()
		go (&core.MonitorServer{Monitor: m}).Serve(server)
		rm, err := core.DialMonitorRetry(func() (net.Conn, error) { return client, nil }, core.RetryConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rm.Close() })
		ctrl.RegisterSource(rm.ID(), rm)
		engine.Endpoints = append(engine.Endpoints, rm)
		mons = append(mons, m)
	}

	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(1))
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	var results []core.EpochResult
	for e := 0; e < 3; e++ {
		for _, m := range mons {
			if err := m.IngestBatch(bg.Batch(1200)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := engine.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if err := writeEpochRecord(enc, res, ctrl.Stats()); err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}

	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != len(results) {
		t.Fatalf("epoch log has %d lines for %d epochs:\n%s", len(lines), len(results), buf.String())
	}
	for i, line := range lines {
		var rec struct {
			Epoch            uint64  `json:"epoch"`
			Summaries        int     `json:"summaries"`
			Declines         int     `json:"declines"`
			Degraded         bool    `json:"degraded"`
			Alerts           int     `json:"alerts"`
			OverheadFraction float64 `json:"overhead_fraction"`
			Trace            *struct {
				Epoch uint64 `json:"epoch"`
				Spans []struct {
					Stage string `json:"stage"`
				} `json:"spans"`
			} `json:"trace"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		res := results[i]
		if rec.Epoch != res.Epoch || rec.Summaries != len(res.Summaries) || rec.Declines != len(res.Declines) ||
			rec.Degraded != res.Degraded || rec.Alerts != len(res.Alerts) {
			t.Fatalf("line %d counts differ from the epoch's result (epoch %d, %d summaries, %d declines, degraded %v, %d alerts):\n%s",
				i, res.Epoch, len(res.Summaries), len(res.Declines), res.Degraded, len(res.Alerts), line)
		}
		if rec.Summaries == 0 || rec.OverheadFraction <= 0 {
			t.Fatalf("line %d: the epoch summarized nothing:\n%s", i, line)
		}
		if rec.Trace == nil || rec.Trace.Epoch != rec.Epoch {
			t.Fatalf("line %d: trace missing or for another epoch:\n%s", i, line)
		}
		stages := map[string]bool{}
		for _, sp := range rec.Trace.Spans {
			stages[sp.Stage] = true
		}
		for _, want := range []string{"epoch", "ship", "collect", "infer"} {
			if !stages[want] {
				t.Fatalf("line %d: trace has no %s span:\n%s", i, want, line)
			}
		}
	}
}
