package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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
