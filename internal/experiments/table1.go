package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/inference"
	"repro/internal/rules"
	"repro/internal/sampling"
	"repro/internal/scenario"
	"repro/internal/snort"
	"repro/internal/summary"
	"repro/internal/trafficgen"
)

// Table1Row compares detection accuracy for one attack.
type Table1Row struct {
	Attack            rules.AttackID
	ReservoirAccuracy float64
	JaalAccuracy      float64
}

// Table1Reservoir reproduces Table 1: detection accuracy of reservoir
// sampling vs Jaal at matched communication budgets. The reservoir holds
// 250 per 1000 packets observed; Jaal runs at r=12, k=200, n=1000.
// Accuracy is the fraction of attack trials detected.
//
// The comparison captures the failure mode the paper describes:
// "reservoir sampling keeps a fixed-size running uniform sample of the
// entire stream, [so] attack packets sent over a short period of time
// will get 'diluted' in the sample by a large number of non-attack
// packets." Each trial is a stream of several batches with the attack
// bursting inside one randomly placed batch (a 2 s pulse in a longer
// window, persisting for two epochs). Jaal summarizes and checks every
// batch as its own epoch; the reservoir runs over the whole stream and
// is checked at every shipping point with the count threshold scaled by
// the configured shipping ratio.
func Table1Reservoir(sc Scale) ([]Table1Row, *Table, error) {
	const (
		reservoirSize  = 250
		n              = 1000
		r              = 12
		k              = 200
		batchesPerTrio = 5 // stream length in batches; burst spans two
	)
	env := scenario.Env()
	table := &Table{
		Title:   "Table 1 — detection accuracy: reservoir sampling (250/1000) vs Jaal (r=12, k=200, n=1000)",
		Columns: []string{"attack", "reservoir", "jaal"},
		Notes: []string{
			"paper: 54/60/42/56% reservoir vs 99/98/97/94% Jaal; shape target: Jaal ≫ reservoir on every attack",
		},
	}

	var rows []Table1Row
	for _, id := range EvaluatedAttacks {
		q, err := rules.LibraryQuestion(id, env, rules.TranslateConfig{
			DefaultDistanceThreshold: 0.05, VarianceThreshold: 0.003,
		})
		if err != nil {
			return nil, nil, err
		}
		// The reservoir side runs the genuine raw-packet engine (with
		// Snort's per-destination detection_filter tracking) over the
		// shipped samples, with the rule's count threshold scaled by
		// the configured 250-per-1000 shipping ratio.
		rawRule, err := rules.LibraryRule(id)
		if err != nil {
			return nil, nil, err
		}
		if rawRule.Filter != nil {
			// Volumetric thresholds scale with the sampling ratio;
			// semantic thresholds (e.g. "5 failed logins is brute
			// force") cannot meaningfully shrink and stay as-is.
			if rawRule.Filter.Count >= 20 {
				rawRule.Filter.Count = rawRule.Filter.Count * reservoirSize / n
			}
			rawRule.Filter.Seconds = 0 // sample has no timestamps
		}
		var resHits, jaalHits, trials int
		for t := 0; t < sc.Trials*3; t++ { // more trials: single-number comparison
			seed := int64(9000+t*101) + int64(len(id))
			rng := rand.New(rand.NewSource(seed))
			burstStart := rng.Intn(batchesPerTrio - 1)

			bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(seed))
			atk, err := trafficgen.NewAttack(id, trafficgen.AttackConfig{Seed: seed, Victim: 0x0A0000FE})
			if err != nil {
				return nil, nil, err
			}

			rsv, err := sampling.NewReservoir(reservoirSize, rand.New(rand.NewSource(seed+1)))
			if err != nil {
				return nil, nil, err
			}
			szr, err := summary.NewSummarizer(summary.Config{BatchSize: n, Rank: r, Centroids: k, Seed: seed})
			if err != nil {
				return nil, nil, err
			}

			resDetected, jaalDetected := false, false
			for b := 0; b < batchesPerTrio; b++ {
				var mix *trafficgen.Mixer
				if b == burstStart || b == burstStart+1 {
					mix = trafficgen.NewMixer(bg, atk, trafficgen.MixConfig{Seed: seed + int64(b)})
				} else {
					mix = trafficgen.NewMixer(bg, nil, trafficgen.MixConfig{Seed: seed + int64(b)})
				}
				headers := draw(mix, n)

				// Reservoir: runs over the whole stream, checked at
				// each shipping point. The reservoir's dilution over
				// the stream's history is precisely what the static
				// threshold scaling cannot correct — the paper's
				// criticism of running uniform samples.
				for _, h := range headers {
					rsv.Observe(h)
				}
				engine := snort.NewEngine(env, []*rules.Rule{rawRule})
				if fired := engine.ProcessBatch(rsv.Sample()); fired[rawRule.SID] > 0 {
					resDetected = true
				}

				// Jaal: each batch is its own summarized epoch.
				agg, err := summarizeBatch(szr, headers, uint64(b))
				if err != nil {
					return nil, nil, err
				}
				if inference.EstimateSimilarity(agg, q).Alerted() {
					jaalDetected = true
				}
			}
			if resDetected {
				resHits++
			}
			if jaalDetected {
				jaalHits++
			}
			trials++
		}
		row := Table1Row{
			Attack:            id,
			ReservoirAccuracy: float64(resHits) / float64(trials),
			JaalAccuracy:      float64(jaalHits) / float64(trials),
		}
		rows = append(rows, row)
		table.Rows = append(table.Rows, []string{
			string(id), pct(row.ReservoirAccuracy), pct(row.JaalAccuracy),
		})
	}
	return rows, table, nil
}

// HeadlineResult is the §8.1 summary metric set.
type HeadlineResult struct {
	TPR      float64
	FPR      float64
	Overhead float64
}

// Headline reproduces the paper's headline numbers: average TPR/FPR
// across all five attacks with the feedback loop, plus the communication
// overhead relative to raw header transfer (paper: ≈98 % TPR, 9.1 % FPR,
// ≈35 % overhead).
func Headline(sc Scale) (*HeadlineResult, *Table, error) {
	points, _, err := Fig6Feedback(sc)
	if err != nil {
		return nil, nil, err
	}
	// The headline operating point: the configuration reaching the
	// highest TPR whose overhead has not yet exploded — the paper picks
	// the knee at 98 % TPR / 35 % overhead.
	best := points[0]
	for _, p := range points {
		if p.TPR > best.TPR || (p.TPR == best.TPR && p.Overhead < best.Overhead) {
			best = p
		}
	}
	res := &HeadlineResult{TPR: best.TPR, FPR: best.FPR, Overhead: best.Overhead}
	table := &Table{
		Title:   "§8.1 headline — average across attacks with the feedback loop",
		Columns: []string{"TPR", "FPR", "overhead_vs_raw"},
		Rows:    [][]string{{pct(res.TPR), pct(res.FPR), pct(res.Overhead)}},
		Notes: []string{
			"paper: ≈98% TPR at ≈9% FPR with ≈35% of raw-transfer bytes",
		},
	}
	return res, table, nil
}

// VarianceEstimation reproduces the §8.2 variance-estimation study: the
// relative error of the summary-based variance estimate vs k/n for
// different batch sizes (paper: error <5 % when k/n > 0.2 and n ≥ 1000).
func VarianceEstimation() (*Table, error) {
	table := &Table{
		Title:   "§8.2 — variance estimation error vs k/n",
		Columns: []string{"n", "k/n", "avg_rel_error"},
		Notes: []string{
			"paper shape: error < 5% once k/n > 0.2 at n ≥ 1000",
		},
	}
	for _, n := range []int{500, 1000, 2000} {
		for _, frac := range []float64{0.05, 0.1, 0.2, 0.3} {
			k := int(frac * float64(n))
			if k < 2 {
				continue
			}
			var sum float64
			const runs = 3
			for seed := int64(0); seed < runs; seed++ {
				e, err := variancePointError(n, k, seed)
				if err != nil {
					return nil, err
				}
				sum += e
			}
			table.Rows = append(table.Rows, []string{
				fmt.Sprintf("%d", n), f3(frac), pct(sum / runs),
			})
		}
	}
	return table, nil
}
