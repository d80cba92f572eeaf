package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"net/netip"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

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
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "jaal-controller")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-epoch", "0", "-monitors", "127.0.0.1:1")
	cmd.Stderr = &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("-epoch 0: want a non-zero exit, got %v\nstderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-epoch") {
		t.Fatalf("-epoch 0: stderr does not name the flag:\n%s", stderr.String())
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
