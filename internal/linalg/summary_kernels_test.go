package linalg_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/linalg"
	"repro/internal/packet"
	"repro/internal/summary"
	"repro/internal/trafficgen"
)

// TestSummaryBytesAcrossKernelSets summarizes the same backbone batches
// once per kernel set this machine runs, each time with a fresh
// same-seed Summarizer, and wants every encoded summary byte equal to
// the portable set's, on the split path and on the combined one. The
// leaf tests hold each set to the scalar references kernel by kernel;
// this holds the whole summary, so a tier can be trusted end to end
// without a build tag that forces it. It switches the package's kernel
// set, so it must not run in parallel.
func TestSummaryBytesAcrossKernelSets(t *testing.T) {
	const n, batches = 1000, 4
	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(3))
	traffic := make([][]packet.Header, batches)
	for b := range traffic {
		traffic[b] = bg.Batch(n)
	}
	configs := []struct {
		name string
		cfg  summary.Config
		kind summary.Kind
	}{
		{"split r=12 k=200", summary.DefaultConfig(), summary.KindSplit},
		{"combined r=12 k=20", summary.Config{BatchSize: n, Rank: 12, Centroids: 20, MinBatch: 600, Seed: 1}, summary.KindCombined},
	}
	encode := func(t *testing.T, cfg summary.Config, kind summary.Kind) [][]byte {
		s, err := summary.NewSummarizer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]byte, batches)
		for b, hs := range traffic {
			sum, err := s.Summarize(hs, 0, uint64(b))
			if err != nil {
				t.Fatal(err)
			}
			if sum.Kind != kind {
				t.Fatalf("batch %d summarized as %v, want %v", b, sum.Kind, kind)
			}
			if out[b], err = sum.Marshal(); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}

	sets := linalg.KernelSetNames()
	t.Logf("kernel sets run: %s", strings.Join(sets, ", "))
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			var want [][]byte
			for _, set := range sets {
				t.Run("leaf="+set, func(t *testing.T) {
					linalg.UseKernelSet(t, set)
					got := encode(t, c.cfg, c.kind)
					if want == nil {
						want = got
						return
					}
					for b := range got {
						if !bytes.Equal(got[b], want[b]) {
							t.Fatalf("batch %d: %s", b, firstDiff(got[b], want[b], sets[0]))
						}
					}
				})
			}
		})
	}
}

// firstDiff describes where got first departs from want, the summary the
// reference set encoded.
func firstDiff(got, want []byte, ref string) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("byte %d of %d is %#02x, %s set's %#02x", i, len(want), got[i], ref, want[i])
		}
	}
	return fmt.Sprintf("%d bytes, %s set's %d", len(got), ref, len(want))
}
