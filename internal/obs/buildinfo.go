package obs

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// jaal_build_info identifies the binary under test on every scrape: a
// constant-1 gauge whose labels carry the module version, Go toolchain
// and VCS revision from the build metadata. Soak logs and benchmark
// archives join on these labels instead of guessing which binary
// produced a run.

var (
	buildInfoOnce  sync.Once
	buildInfoGauge *Gauge
)

// sampleBuildInfo registers the jaal_build_info gauge on first use and
// re-asserts its constant value on every scrape (so a test's ResetAll
// cannot leave it reading 0). It runs lazily from the metrics handler
// (not package init) because the label values come from
// debug.ReadBuildInfo, and the gauge name must embed them before
// registration.
func sampleBuildInfo() {
	buildInfoOnce.Do(func() {
		version, revision := "unknown", "unknown"
		if bi, ok := debug.ReadBuildInfo(); ok {
			if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
				version = bi.Main.Version
			} else {
				version = "devel"
			}
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" {
					revision = s.Value
					if len(revision) > 12 {
						revision = revision[:12]
					}
				}
			}
		}
		name := fmt.Sprintf("jaal_build_info{version=%q,goversion=%q,revision=%q}",
			version, runtime.Version(), revision)
		buildInfoGauge = NewGauge(name, "build metadata of the running binary (constant 1)")
	})
	buildInfoGauge.forceSet(1)
}

// forceSet stores v regardless of the enablement gate: build info is
// constant identity, not a measurement, so it must survive scrapes that
// happen while collection is toggled off.
func (g *Gauge) forceSet(v float64) { g.bits.Store(floatBits(v)) }
