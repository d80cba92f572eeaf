package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/trafficgen"
)

// runSeededWorkload builds a pipeline with the given worker count (both
// the per-monitor epoch fan-out and the controller's per-question
// fan-out), drives three identical epochs of seeded mixed traffic
// through it, and returns a textual trace of the alerts plus the final
// stats.
func runSeededWorkload(t *testing.T, workers int) (string, Stats) {
	t.Helper()
	p, err := NewPipeline(PipelineConfig{
		NumMonitors: 4,
		Summary:     smallSummaryConfig(),
		Controller: ControllerConfig{
			Env:       testEnv(),
			Questions: testQuestions(t, 2500),
			Workers:   workers,
		},
		Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(11))
	atk, err := trafficgen.NewAttack(rules.AttackDistributedSYNFlood,
		trafficgen.AttackConfig{Seed: 11, Victim: 0x0A000001})
	if err != nil {
		t.Fatal(err)
	}
	mix := trafficgen.NewMixer(bg, atk, trafficgen.MixConfig{Seed: 11})
	var trace string
	for round := 0; round < 3; round++ {
		for _, lp := range mix.Batch(2500) {
			if err := p.Ingest(lp.Header); err != nil {
				t.Fatal(err)
			}
		}
		res, err := p.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		trace += fmt.Sprintf("round %d: %d alerts\n", round, len(res.Alerts))
		for _, a := range res.Alerts {
			trace += a.String() + "\n"
		}
	}
	return trace, p.Controller.Stats()
}

// TestPipelineParallelDeterminism locks in the engine's hard
// constraint: the same seeded workload must produce byte-identical
// alerts and identical communication accounting whether the epochs run
// sequentially (Workers: 1) or fanned out across GOMAXPROCS workers.
func TestPipelineParallelDeterminism(t *testing.T) {
	seqTrace, seqStats := runSeededWorkload(t, 1)
	parTrace, parStats := runSeededWorkload(t, runtime.GOMAXPROCS(0))

	if seqTrace != parTrace {
		t.Errorf("alert traces differ between workers=1 and workers=%d:\n--- sequential ---\n%s--- parallel ---\n%s",
			runtime.GOMAXPROCS(0), seqTrace, parTrace)
	}
	if seqStats != parStats {
		t.Errorf("stats differ: sequential %+v, parallel %+v", seqStats, parStats)
	}
	if seqStats.SummaryElements == 0 || seqStats.PacketsSummarized == 0 {
		t.Fatalf("workload produced no summaries: %+v", seqStats)
	}
}

// TestPipelineObsDeterminism locks in the observability layer's hard
// constraint: metrics and spans are write-only side channels, so the
// same seeded workload produces byte-identical alerts and identical
// accounting whether collection is off (the default) or enabled.
func TestPipelineObsDeterminism(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	offTrace, offStats := runSeededWorkload(t, workers)

	obs.SetEnabled(true)
	defer func() { obs.SetEnabled(false) }()
	onTrace, onStats := runSeededWorkload(t, workers)

	if offTrace != onTrace {
		t.Errorf("alert traces differ with observability on vs off:\n--- off ---\n%s--- on ---\n%s",
			offTrace, onTrace)
	}
	if offStats != onStats {
		t.Errorf("stats differ with observability on vs off: %+v vs %+v", offStats, onStats)
	}
	// With collection enabled the registry must actually have seen the
	// workload (guards against a silently disabled layer).
	if rows := obs.Snapshot(); len(rows) == 0 {
		t.Fatal("observability enabled but no metrics recorded")
	}
}
