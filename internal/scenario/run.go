package scenario

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/inference"
	"repro/internal/par"
	"repro/internal/rules"
	"repro/internal/summary"
	"repro/internal/trafficgen"
)

// surgeEvery interleaves one flash-crowd packet per this many stream
// slots during a trap scenario's active window (a 12.5 % benign surge —
// above the attack injection cap, as real crowds are).
const surgeEvery = 8

// corpusFeedback returns the per-attack two-stage feedback configs the
// corpus runs with. Only SSH brute force carries one today: its
// summary-side operating point (τ_d at the port-pinned 1e-4, count 20)
// is deliberately strict — the organic port-22 mass concentrating on
// the Zipf-head server reaches cluster counts of ≈16, so a summary-only
// verdict cannot tell a small brute force from a popular server's
// login traffic. Stage 2 relaxes both knobs (6× the distance threshold
// to recover attack mass hiding in contaminated clusters, count back to
// the rule's literal 8), and everything stage 1 missed is settled by
// fetching the raw packets behind the suspect window: the Snort engine
// then enforces the literal 8-SYNs-to-one-destination filter, which
// benign windows never satisfy (their cluster mass is mixed traffic,
// not 8 literal port-22 SYNs on one server). The other questions keep
// the plain single-threshold path: their operating points already
// separate cleanly on summaries, and an empty Feedback entry means no
// raw fetches are ever issued for them.
func corpusFeedback(questions map[rules.AttackID]*rules.Question) map[rules.AttackID]inference.FeedbackConfig {
	q, ok := questions[rules.AttackSSHBruteForce]
	if !ok {
		return nil
	}
	return map[rules.AttackID]inference.FeedbackConfig{
		rules.AttackSSHBruteForce: {
			TauD1:       q.DistanceThreshold,
			TauD2:       6 * q.DistanceThreshold,
			CountScale2: 0.4,
		},
	}
}

// Run executes one scenario end to end under a profile: builds the
// pipeline, streams every epoch's labelled traffic through it, and
// scores the raised alerts against ground truth. The result is a pure
// function of (scenario, profile).
func Run(s Scenario, p Profile) (*Result, error) {
	env := Env()
	questions, err := rules.ScenarioLibraryQuestions(env, rules.TranslateConfig{
		DefaultDistanceThreshold: 0.05,
		VarianceThreshold:        0.003,
	})
	if err != nil {
		return nil, err
	}
	for id, q := range questions {
		questions[id] = q.ScaleForVolume(p.PacketsPerEpoch)
	}

	rank := p.Rank
	if s.UDP {
		// Mixed-protocol batches carry one more latent dimension than
		// the TCP-only calibration point (see the UDP detection tests).
		rank = p.Rank + 2
	}
	pipe, err := core.NewPipeline(core.PipelineConfig{
		NumMonitors: p.Monitors,
		Summary: summary.Config{
			BatchSize: p.BatchSize, Rank: rank, Centroids: p.Centroids,
			MinBatch: p.MinBatch, Seed: s.Seed,
		},
		Controller: core.ControllerConfig{
			Env: env, Questions: questions, Workers: p.Workers,
			Feedback: corpusFeedback(questions), UseFeedback: true,
		},
		Workers: p.Workers,
	})
	if err != nil {
		return nil, err
	}

	bgcfg := trafficgen.DefaultBackgroundConfig(s.Seed)
	if s.UDP {
		bgcfg.UDPFraction = 0.10
	}
	bg := trafficgen.NewBackground(bgcfg)

	var mix *trafficgen.Mixer
	if s.Attack != "" {
		acfg := trafficgen.AttackConfig{
			Seed: s.Seed + 1, Victim: Victim, VictimPort: s.VictimPort,
		}
		var atk trafficgen.Attack
		if s.NewAttack != nil {
			atk, err = s.NewAttack(acfg, p)
		} else {
			atk, err = trafficgen.NewAttack(s.Attack, acfg)
		}
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		mix = trafficgen.NewMixer(bg, atk, trafficgen.MixConfig{
			Seed: s.Seed + 2, AttackFraction: s.AttackFraction,
		})
	}
	var surge *trafficgen.FlashCrowd
	if s.Surge {
		surge = trafficgen.NewFlashCrowd(trafficgen.AttackConfig{
			Seed: s.Seed + 3, Victim: Victim, VictimPort: 443,
		})
	}

	// truth[e] counts the attack packets each truth ID contributed to
	// epoch e — the per-epoch ground-truth labels alerts score against.
	truth := make([]map[rules.AttackID]int, p.Epochs)
	alerts := make([][]*inference.Alert, p.Epochs)
	for e := 0; e < p.Epochs; e++ {
		truth[e] = make(map[rules.AttackID]int)
		active := e >= p.Onset && e < p.Offset
		for i := 0; i < p.PacketsPerEpoch; i++ {
			var lp trafficgen.LabeledPacket
			switch {
			case active && mix != nil:
				lp = mix.Next()
			case active && surge != nil && i%surgeEvery == 0:
				// Surge packets are ground-truth benign: the trap's
				// entire point is that this mass must not alert.
				lp = trafficgen.LabeledPacket{Header: surge.Next(), Label: trafficgen.LabelBenign}
			default:
				lp = trafficgen.LabeledPacket{Header: bg.Next(), Label: trafficgen.LabelBenign}
			}
			if lp.Label == trafficgen.LabelAttack {
				truth[e][rules.AttackID(lp.Attack)]++
			}
			if err := pipe.Ingest(lp.Header); err != nil {
				return nil, err
			}
		}
		res, err := pipe.RunEpoch()
		if err != nil {
			return nil, err
		}
		alerts[e] = res.Alerts
	}
	return score(s, p, truth, alerts), nil
}

// RunAll executes the whole catalogue with at most workers scenarios in
// flight (0 = GOMAXPROCS) and the same bound on each pipeline's
// internal concurrency. Results are joined in catalogue order, so the
// report is byte-identical for every worker count.
func RunAll(p Profile, workers int) (*Report, error) {
	p.Workers = workers
	scenarios := Catalogue()
	results := make([]*Result, len(scenarios))
	errs := make([]error, len(scenarios))
	par.For(len(scenarios), workers, func(i int) {
		results[i], errs[i] = Run(scenarios[i], p)
	})
	rep := &Report{Profile: p.Name}
	for i, r := range results {
		if errs[i] != nil {
			return nil, fmt.Errorf("scenario %s: %w", scenarios[i].Name, errs[i])
		}
		rep.Results = append(rep.Results, *r)
	}
	return rep, nil
}
