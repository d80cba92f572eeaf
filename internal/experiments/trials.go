package experiments

import (
	"fmt"

	"repro/internal/inference"
	"repro/internal/rules"
	"repro/internal/scenario"
	"repro/internal/summary"
	"repro/internal/trafficgen"
)

// TrialConfig parameterizes one detection-trial campaign for one attack.
type TrialConfig struct {
	// Attack is the evaluated attack.
	Attack rules.AttackID
	// BatchSize is n, Rank is r, Centroids is k.
	BatchSize, Rank, Centroids int
	// Monitors is M: the traffic of each trial is split across M
	// summarizers whose outputs are aggregated, as in the deployment.
	Monitors int
	// BatchesPerTrial is how many batches each monitor summarizes per
	// trial.
	BatchesPerTrial int
	// Trials is the number of positive (attack present) and negative
	// (attack absent) trials each.
	Trials int
	// TraceSeed selects the background trace (1 or 2 in the paper).
	TraceSeed int64
	// Seed decorrelates trial randomness.
	Seed int64
}

// Validate checks the configuration.
func (c TrialConfig) Validate() error {
	if c.BatchSize < 1 || c.Rank < 1 || c.Centroids < 1 ||
		c.Monitors < 1 || c.BatchesPerTrial < 1 || c.Trials < 1 {
		return fmt.Errorf("experiments: non-positive trial parameter: %+v", c)
	}
	return nil
}

// TrialSet holds the precomputed aggregates of a campaign, so threshold
// sweeps reuse the expensive summarization work.
type TrialSet struct {
	Config TrialConfig
	// Positive and Negative are per-trial aggregates.
	Positive []*inference.Aggregate
	Negative []*inference.Aggregate
	// Question is the attack's translated rule with default thresholds.
	Question *rules.Question
	// Env is the rule environment used.
	Env *rules.Environment
}

// BuildTrialSet generates traffic, summarizes it and aggregates the
// summaries for every trial of a campaign. This is the expensive part of
// every ROC experiment; sweeps over τ thresholds afterwards are cheap.
func BuildTrialSet(cfg TrialConfig) (*TrialSet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	env := scenario.Env()
	q, err := rules.LibraryQuestion(cfg.Attack, env, rules.TranslateConfig{
		DefaultDistanceThreshold: 0.05,
		VarianceThreshold:        0.003,
	})
	if err != nil {
		return nil, err
	}
	ts := &TrialSet{Config: cfg, Question: q, Env: env}

	for trial := 0; trial < cfg.Trials; trial++ {
		seed := cfg.Seed + int64(trial)*1000
		pos, err := runOneTrial(cfg, seed, true)
		if err != nil {
			return nil, err
		}
		neg, err := runOneTrial(cfg, seed+500, false)
		if err != nil {
			return nil, err
		}
		ts.Positive = append(ts.Positive, pos)
		ts.Negative = append(ts.Negative, neg)
	}
	return ts, nil
}

// runOneTrial produces the aggregate of one trial.
func runOneTrial(cfg TrialConfig, seed int64, withAttack bool) (*inference.Aggregate, error) {
	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(cfg.TraceSeed*10000 + seed))
	var atk trafficgen.Attack
	if withAttack {
		var err error
		atk, err = trafficgen.NewAttack(cfg.Attack, trafficgen.AttackConfig{
			Seed: seed, Victim: 0x0A0000FE,
		})
		if err != nil {
			return nil, err
		}
	}
	mix := trafficgen.NewMixer(bg, atk, trafficgen.MixConfig{Seed: seed})
	agg, _, err := summarizeTrial(mix, summary.Config{
		BatchSize: cfg.BatchSize, Rank: cfg.Rank, Centroids: cfg.Centroids, Seed: seed,
	}, cfg.Monitors, cfg.BatchesPerTrial)
	return agg, err
}

// Volume returns the packets one trial aggregates — the epoch volume
// the count thresholds scale against.
func (ts *TrialSet) Volume() int {
	c := ts.Config
	return c.Monitors * c.BatchesPerTrial * c.BatchSize
}

// SweepROC evaluates the trial set over a grid of threshold combinations
// and returns the ROC points. The paper sweeps combinations of
// (τ_d, τ_c, τ_v) — "each combination of threshold values is a single
// point on the graph" (§8.1); here τ_d takes the given grid (scaled by
// the question's per-attack factor) and τ_c is swept multiplicatively
// around its calibrated value. Detection for a positive trial means the
// question alerts on the trial's aggregate; a false positive is the same
// on a negative trial.
func (ts *TrialSet) SweepROC(label string, taus []float64) ROCCurve {
	curve := ROCCurve{Label: label}
	scaled := ts.Question.ScaleForVolume(ts.Volume())
	for _, tau := range taus {
		for _, cm := range CountMultipliers() {
			tc := int(float64(scaled.CountThreshold) * cm)
			if tc < 1 {
				tc = 1
			}
			q := scaled.WithDistanceThreshold(scaled.EffectiveTau(tau)).WithCountThreshold(tc)
			tp, fp := 0, 0
			for _, agg := range ts.Positive {
				if inference.EstimateSimilarity(agg, q).Alerted() {
					tp++
				}
			}
			for _, agg := range ts.Negative {
				if inference.EstimateSimilarity(agg, q).Alerted() {
					fp++
				}
			}
			curve.Points = append(curve.Points, ROCPoint{
				TauD: tau,
				TPR:  float64(tp) / float64(len(ts.Positive)),
				FPR:  float64(fp) / float64(len(ts.Negative)),
			})
		}
	}
	return curve
}

// DefaultTauGrid is the τ_d sweep used by the ROC experiments.
func DefaultTauGrid() []float64 {
	return []float64{0.005, 0.01, 0.02, 0.03, 0.05, 0.08, 0.12, 0.18, 0.25}
}

// CountMultipliers is the τ_c sweep (relative to the calibrated value).
func CountMultipliers() []float64 {
	return []float64{0.25, 0.5, 0.75, 1, 1.5, 2.5, 4}
}
