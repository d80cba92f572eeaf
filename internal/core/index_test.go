package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/adapt"
	"repro/internal/inference"
	"repro/internal/rules"
	"repro/internal/trafficgen"
)

// unindexedOracle turns a controller into the reference the index is
// checked against: with a nil index ProcessEpoch prunes no question and
// never rebuilds one. Each question still runs the estimator's row
// windows; those are compared with a sweep over every centroid where the
// sweep lives (inference's TestEstimateWindowEqualsSweep and
// linearSweepOracle).
func unindexedOracle(c *Controller) { c.index = nil }

// runIndexWorkload drives five epochs of seeded mixed traffic through a
// pipeline and returns the alert trace, stats, and final feedback
// configs. disable toggles the question index; everything else is held
// fixed so the two settings must be byte-identical.
func runIndexWorkload(t *testing.T, workers int, disable bool, useFeedback bool, ac *adapt.Config) (string, Stats, map[rules.AttackID]inference.FeedbackConfig) {
	t.Helper()
	qs := testQuestions(t, 2500)
	cc := ControllerConfig{
		Env:       testEnv(),
		Questions: qs,
		Workers:   workers,
	}
	if useFeedback {
		cc.Feedback = adaptFeedbackConfigs(qs)
		cc.UseFeedback = true
		cc.Adapt = ac
	}
	p, err := NewPipeline(PipelineConfig{
		NumMonitors: 4,
		Summary:     smallSummaryConfig(),
		Controller:  cc,
		Workers:     workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	if disable {
		unindexedOracle(p.Controller)
	}
	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(11))
	atk, err := trafficgen.NewAttack(rules.AttackDistributedSYNFlood,
		trafficgen.AttackConfig{Seed: 11, Victim: 0x0A000001})
	if err != nil {
		t.Fatal(err)
	}
	mix := trafficgen.NewMixer(bg, atk, trafficgen.MixConfig{Seed: 11})
	var trace string
	for round := 0; round < 5; round++ {
		for _, lp := range mix.Batch(2500) {
			if err := p.Ingest(lp.Header); err != nil {
				t.Fatal(err)
			}
		}
		alerts, err := p.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		trace += fmt.Sprintf("round %d: %d alerts\n", round, len(alerts))
		for _, a := range alerts {
			trace += a.String() + "\n"
		}
	}
	return trace, p.Controller.Stats(), p.Controller.FeedbackConfigs()
}

// TestControllerIndexByteIdentical is the ISSUE 6 acceptance property
// at the controller level: with the index on (the default) the alert
// stream and the accounting are byte-identical to the linear sweep,
// sequentially and fanned out.
func TestControllerIndexByteIdentical(t *testing.T) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		linTrace, linStats, _ := runIndexWorkload(t, workers, true, false, nil)
		ixTrace, ixStats, _ := runIndexWorkload(t, workers, false, false, nil)
		if linTrace != ixTrace {
			t.Errorf("workers=%d: alert traces differ with index on vs off:\n--- linear ---\n%s--- indexed ---\n%s",
				workers, linTrace, ixTrace)
		}
		if linStats != ixStats {
			t.Errorf("workers=%d: stats differ: linear %+v, indexed %+v", workers, linStats, ixStats)
		}
		if linStats.AlertsRaised == 0 {
			t.Fatal("workload raised no alerts — equivalence would be vacuous")
		}
	}
}

// TestControllerIndexByteIdenticalFeedback extends byte-identity
// through the two-stage feedback path (fetches, verdicts, accounting).
func TestControllerIndexByteIdenticalFeedback(t *testing.T) {
	linTrace, linStats, linFB := runIndexWorkload(t, 1, true, true, nil)
	ixTrace, ixStats, ixFB := runIndexWorkload(t, 1, false, true, nil)
	if linTrace != ixTrace {
		t.Errorf("feedback alert traces differ with index on vs off:\n--- linear ---\n%s--- indexed ---\n%s",
			linTrace, ixTrace)
	}
	if linStats != ixStats {
		t.Errorf("stats differ: linear %+v, indexed %+v", linStats, ixStats)
	}
	if !reflect.DeepEqual(linFB, ixFB) {
		t.Errorf("feedback configs differ: %+v vs %+v", linFB, ixFB)
	}
}

// TestControllerIndexByteIdenticalAdapt is the hardest case of the
// acceptance property: with the adaptive loop nudging τ/width every
// epoch — feeding back into the next epoch's inference — the indexed
// engine must still reproduce the linear engine's alert trace, stats,
// and threshold trajectory exactly, for every worker count.
func TestControllerIndexByteIdenticalAdapt(t *testing.T) {
	ac := adapt.DefaultConfig(64 << 10)
	ac.Seed = 17
	ac.WidenAfter = 2
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		linTrace, linStats, linFB := runIndexWorkload(t, workers, true, true, &ac)
		ixTrace, ixStats, ixFB := runIndexWorkload(t, workers, false, true, &ac)
		if linTrace != ixTrace {
			t.Errorf("workers=%d: adaptive alert traces differ with index on vs off:\n--- linear ---\n%s--- indexed ---\n%s",
				workers, linTrace, ixTrace)
		}
		if linStats != ixStats {
			t.Errorf("workers=%d: stats differ: linear %+v, indexed %+v", workers, linStats, ixStats)
		}
		if !reflect.DeepEqual(linFB, ixFB) {
			t.Errorf("workers=%d: threshold trajectories diverged:\nlinear:  %+v\nindexed: %+v", workers, linFB, ixFB)
		}
	}
}

// TestControllerIndexCoversAfterAdapt pins the rebuild policy's
// invariant: after adaptive epochs, every feedback question's live
// τ_d2 is still covered by the bound its index entry was built with.
func TestControllerIndexCoversAfterAdapt(t *testing.T) {
	qs := testQuestions(t, 2500)
	ac := adapt.DefaultConfig(1) // tiny budget: drives aggressive retuning
	ac.Seed = 5
	ac.WidenAfter = 1
	p, err := NewPipeline(PipelineConfig{
		NumMonitors: 2,
		Summary:     smallSummaryConfig(),
		Controller: ControllerConfig{
			Env: testEnv(), Questions: qs,
			Feedback: adaptFeedbackConfigs(qs), UseFeedback: true, Adapt: &ac,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(3))
	atk, _ := trafficgen.NewAttack(rules.AttackDistributedSYNFlood,
		trafficgen.AttackConfig{Seed: 3, Victim: 0x0A000001})
	mix := trafficgen.NewMixer(bg, atk, trafficgen.MixConfig{Seed: 3})
	for round := 0; round < 6; round++ {
		for _, lp := range mix.Batch(2000) {
			if err := p.Ingest(lp.Header); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := p.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		c := p.Controller
		c.mu.Lock()
		for i, id := range c.ids {
			if fb, ok := c.feedback[id]; ok && !c.index.Covers(i, fb.TauD2) {
				t.Errorf("round %d: %s τ_d2 %v outgrew its index bound without a rebuild", round, id, fb.TauD2)
			}
		}
		c.mu.Unlock()
	}
}

// TestControllerIndexScale runs a generated 2000-rule library through
// the controller both ways and compares the full alert streams —
// the index must stay invisible at scale, not just on the seven
// built-in attacks.
func TestControllerIndexScale(t *testing.T) {
	gen, err := rules.GenerateQuestions(rules.GenConfig{Rules: 2000, Seed: 13},
		rules.NewEnvironment(), rules.DefaultTranslateConfig())
	if err != nil {
		t.Fatal(err)
	}
	base := testQuestions(t, 2500)
	for _, q := range gen {
		base[rules.AttackID(fmt.Sprintf("gen-%07d", q.Rule.SID))] = q
	}
	run := func(disable bool) (string, Stats) {
		p, err := NewPipeline(PipelineConfig{
			NumMonitors: 2,
			Summary:     smallSummaryConfig(),
			Controller: ControllerConfig{
				Env: testEnv(), Questions: base,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if disable {
			unindexedOracle(p.Controller)
		}
		bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(19))
		atk, _ := trafficgen.NewAttack(rules.AttackSYNFlood,
			trafficgen.AttackConfig{Seed: 19, Victim: 0x0A000001})
		mix := trafficgen.NewMixer(bg, atk, trafficgen.MixConfig{Seed: 19})
		var trace string
		for round := 0; round < 2; round++ {
			for _, lp := range mix.Batch(2500) {
				if err := p.Ingest(lp.Header); err != nil {
					t.Fatal(err)
				}
			}
			alerts, err := p.RunEpoch()
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range alerts {
				trace += a.String() + "\n"
			}
		}
		return trace, p.Controller.Stats()
	}
	linTrace, linStats := run(true)
	ixTrace, ixStats := run(false)
	if linTrace != ixTrace {
		t.Errorf("2000-rule alert traces differ with index on vs off:\n--- linear ---\n%s--- indexed ---\n%s",
			linTrace, ixTrace)
	}
	if linStats != ixStats {
		t.Errorf("stats differ: linear %+v, indexed %+v", linStats, ixStats)
	}
}
