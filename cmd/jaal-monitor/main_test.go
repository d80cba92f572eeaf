package main

import (
	"bytes"
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestTickQuotaMeetsRate holds the ingest pacing: ten ticks make exactly
// pps packets, each tick within one packet of pps/10, for rates the old
// per-tick floor of pps/10 missed (below 10, and not a multiple of 10).
func TestTickQuotaMeetsRate(t *testing.T) {
	for _, pps := range []int{1, 7, 10, 15, 999, 5000, 12345} {
		sum := 0
		for tick := 0; tick < 10; tick++ {
			n := tickQuota(pps, tick)
			if n < pps/10 || n > pps/10+1 {
				t.Fatalf("pps %d tick %d: quota %d, want %d or %d", pps, tick, n, pps/10, pps/10+1)
			}
			sum += n
		}
		if sum != pps {
			t.Fatalf("pps %d: ten ticks make %d packets", pps, sum)
		}
	}
}

// TestRejectsNonPositivePPS builds the command and runs it with -pps 0:
// it must exit non-zero naming the flag before it listens, not serve a
// monitor that never synthesizes a packet.
func TestRejectsNonPositivePPS(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "jaal-monitor")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// A monitor that accepted the flag would serve until killed.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, "-pps", "0", "-listen", "127.0.0.1:0")
	cmd.Stderr = &stderr
	err = cmd.Run()
	if ctx.Err() != nil {
		t.Fatalf("-pps 0: the monitor started serving instead of exiting\nstderr:\n%s", stderr.String())
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("-pps 0: want a non-zero exit, got %v\nstderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-pps") {
		t.Fatalf("-pps 0: stderr does not name the flag:\n%s", stderr.String())
	}
}
