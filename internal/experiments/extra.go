package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/inference"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/scenario"
	"repro/internal/sketch"
	"repro/internal/summary"
	"repro/internal/topology"
	"repro/internal/trafficgen"
)

// CoveragePoint is one monitor-count coverage measurement.
type CoveragePoint struct {
	Monitors int
	// Coverage is the fraction of gateway-to-gateway flows whose path
	// crosses at least one monitor (§6's first requirement).
	Coverage float64
}

// MonitorCoverage measures flow coverage vs the number of monitors on
// both paper topologies — the placement question §6 assumes solved
// ("we assume that monitors have already been placed"). High-degree
// placement covers nearly all gateway pairs with few monitors, which is
// what makes the evaluation's 25-monitor configuration sufficient.
func MonitorCoverage(samples int) ([]CoveragePoint, *Table, error) {
	if samples < 1 {
		samples = 500
	}
	table := &Table{
		Title:   "§6 — flow coverage vs number of monitors (high-degree placement)",
		Columns: []string{"topology", "monitors", "coverage"},
		Notes: []string{
			"the evaluation's 25 monitors cover ≈all gateway pairs on both topologies",
		},
	}
	var points []CoveragePoint
	for _, top := range []*topology.Topology{topology.Abovenet(), topology.Exodus()} {
		gws := top.Gateways()
		rng := rand.New(rand.NewSource(99))
		type pair struct{ src, dst topology.NodeID }
		pairs := make([]pair, 0, samples)
		for len(pairs) < samples {
			s := gws[rng.Intn(len(gws))]
			d := gws[rng.Intn(len(gws))]
			if s != d {
				pairs = append(pairs, pair{s, d})
			}
		}
		for _, m := range []int{5, 10, 15, 25, 40} {
			ids, err := top.PlaceMonitors(m)
			if err != nil {
				return nil, nil, err
			}
			set := make(map[topology.NodeID]bool, len(ids))
			for _, id := range ids {
				set[id] = true
			}
			covered := 0
			for _, p := range pairs {
				path, err := top.ShortestPath(p.src, p.dst)
				if err != nil {
					return nil, nil, err
				}
				if len(topology.MonitorsOnPath(path, set)) > 0 {
					covered++
				}
			}
			pt := CoveragePoint{Monitors: m, Coverage: float64(covered) / float64(len(pairs))}
			points = append(points, pt)
			table.Rows = append(table.Rows, []string{
				top.Name, fmt.Sprintf("%d", m), pct(pt.Coverage),
			})
		}
	}
	return points, table, nil
}

// SketchCost reproduces the §2 scaling argument in numbers: covering
// every combination of the 18 header fields with one count-min sketch
// each costs ≈128 GB per monitor per epoch, against kilobytes for a Jaal
// summary carrying the same cross-field correlations.
func SketchCost() (*Table, error) {
	cm, err := sketch.NewCountMin(0.0001, 0.01)
	if err != nil {
		return nil, err
	}
	perSketch := cm.SizeBytes()
	combo := sketch.CombinationCost(packet.NumFields, 500*1024)
	jaalBytes := summary.SplitSize(12, 200, packet.NumFields) * summary.ElementSize

	table := &Table{
		Title:   "§2 — per-epoch transfer cost: combinatorial sketching vs one Jaal summary",
		Columns: []string{"approach", "bytes"},
		Rows: [][]string{
			{"one count-min sketch (ε=1e-4, δ=1e-2)", fmt.Sprintf("%d", perSketch)},
			{"2^18 sketches × 500 KB (all field combos)", fmt.Sprintf("%d", combo)},
			{"one Jaal summary (n=1000, r=12, k=200)", fmt.Sprintf("%d", jaalBytes)},
		},
		Notes: []string{
			"the paper's ≈128 GB per monitor per epoch vs ≈11 KB for the summary",
		},
	}
	return table, nil
}

// BatchSizePoint is one (n, accuracy) measurement at fixed k/n.
type BatchSizePoint struct {
	BatchSize int
	Detection float64
}

// BatchSizeSweep measures detection vs the batch size n at the fixed
// k/n = 0.2 ratio, the n_min motivation of §5.1: summaries over small
// batches degrade because clustering and SVD have too little data.
func BatchSizeSweep(trials int) ([]BatchSizePoint, *Table, error) {
	if trials < 1 {
		trials = 10
	}
	q, err := rules.LibraryQuestion(rules.AttackDistributedSYNFlood, scenario.Env(), rules.TranslateConfig{
		DefaultDistanceThreshold: 0.05, VarianceThreshold: 0.003,
	})
	if err != nil {
		return nil, nil, err
	}
	table := &Table{
		Title:   "§5.1 — detection vs batch size n at k/n = 0.2",
		Columns: []string{"n", "detection"},
		Notes: []string{
			"small batches (n < n_min ≈ 600) degrade summarization; accuracy recovers by n = 1000",
		},
	}
	var points []BatchSizePoint
	for _, n := range []int{100, 200, 400, 600, 1000, 2000} {
		hits := 0
		for t := 0; t < trials; t++ {
			seed := int64(8000 + t*53 + n)
			bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(seed))
			atk, err := trafficgen.NewAttack(rules.AttackDistributedSYNFlood,
				trafficgen.AttackConfig{Seed: seed, Victim: 0x0A0000FE})
			if err != nil {
				return nil, nil, err
			}
			mix := trafficgen.NewMixer(bg, atk, trafficgen.MixConfig{Seed: seed})
			agg, _, err := summarizeTrial(mix, summary.Config{BatchSize: n, Rank: 12, Centroids: n / 5, Seed: seed}, 1, 1)
			if err != nil {
				return nil, nil, err
			}
			if inference.EstimateSimilarity(agg, q.ScaleForVolume(n)).Alerted() {
				hits++
			}
		}
		p := BatchSizePoint{BatchSize: n, Detection: float64(hits) / float64(trials)}
		points = append(points, p)
		table.Rows = append(table.Rows, []string{fmt.Sprintf("%d", n), pct(p.Detection)})
	}
	return points, table, nil
}
