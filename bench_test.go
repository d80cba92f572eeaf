// Package repro's root benchmark suite regenerates every table and
// figure of the paper's evaluation (§8) as testing.B benchmarks: one
// bench per experiment, each reporting the headline metrics of its
// table/figure via b.ReportMetric so `go test -bench=.` reproduces the
// paper's result series alongside wall-clock cost.
//
// The benches run at a reduced trial scale so the whole suite finishes
// in minutes; cmd/jaal-experiments runs the same experiments at the
// paper's full averaging scale. Computation cost is measured elsewhere:
// end to end and per layer by the deployment benchmark (go run ./bench),
// per kernel by the benchmarks next to each package.
package repro_test

import (
	"testing"

	"repro/internal/experiments"
)

// benchScale keeps the full-evaluation benches tractable.
func benchScale() experiments.Scale {
	return experiments.Scale{Trials: 4, BatchesPerTrial: 1, Monitors: 2}
}

// BenchmarkFig4ROCVaryK regenerates Fig. 4: detection accuracy vs the
// number of centroids k. Reported metrics are the TPR at 10 % FPR for
// k=100 and k=200 averaged across attacks (paper: k=200 near-saturates,
// k=100 pays a penalty).
func BenchmarkFig4ROCVaryK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, _, err := experiments.Fig4VaryK(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		report := func(label string, idx int) {
			var sum float64
			for _, cs := range curves {
				sum += cs[idx].TPRAtFPR(0.10)
			}
			b.ReportMetric(sum/float64(len(curves)), label)
		}
		report("TPR@10%FPR/k=100", 0)
		report("TPR@10%FPR/k=200", 1)
		report("TPR@10%FPR/k=500", 2)
	}
}

// BenchmarkFig5ROCVaryRank regenerates Fig. 5: accuracy vs retained rank
// r (paper: r=12 ≈ r=15 ≫ r=10).
func BenchmarkFig5ROCVaryRank(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, _, err := experiments.Fig5VaryRank(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		report := func(label string, idx int) {
			var sum float64
			for _, cs := range curves {
				sum += cs[idx].TPRAtFPR(0.10)
			}
			b.ReportMetric(sum/float64(len(curves)), label)
		}
		report("TPR@10%FPR/r=10", 0)
		report("TPR@10%FPR/r=12", 1)
		report("TPR@10%FPR/r=15", 2)
	}
}

// BenchmarkFig6Feedback regenerates Fig. 6: the TPR/overhead tradeoff of
// the two-threshold feedback loop (paper: ~98 % TPR at ~35 % overhead).
func BenchmarkFig6Feedback(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, _, err := experiments.Fig6Feedback(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		best := points[len(points)-1]
		b.ReportMetric(best.TPR, "TPR")
		b.ReportMetric(best.FPR, "FPR")
		b.ReportMetric(best.Overhead, "overhead_vs_raw")
	}
}

// BenchmarkFig7Replication regenerates Fig. 7: throughput/accuracy
// degradation vs replication fraction (paper: ≈70 % avg throughput loss
// and ≈75 % accuracy loss at full replication).
func BenchmarkFig7Replication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, _, err := experiments.Fig7Replication(10, nil)
		if err != nil {
			b.Fatal(err)
		}
		last := points[len(points)-1]
		b.ReportMetric(last.AvgThroughputLoss, "tput_loss@100%")
		b.ReportMetric(last.AvgAccuracyLoss, "acc_loss@100%")
	}
}

// BenchmarkFig8Mirai regenerates Fig. 8: the Mirai epidemic with and
// without Jaal's detection-and-shutoff (paper: ≥3× fewer infections).
func BenchmarkFig8Mirai(b *testing.B) {
	for i := 0; i < b.N; i++ {
		unchecked, protected, _, err := experiments.Fig8Mirai()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(unchecked.TotalInfected), "infected_unchecked")
		b.ReportMetric(float64(protected.TotalInfected), "infected_with_jaal")
	}
}

// BenchmarkFig9FlowAssign regenerates Fig. 9: load balance of greedy vs
// Robin-Hood vs random (paper: greedy within ~10 % of Robin-Hood).
func BenchmarkFig9FlowAssign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		loads, _, err := experiments.Fig9FlowAssign(2000, nil)
		if err != nil {
			b.Fatal(err)
		}
		maxOf := func(xs []float64) float64 {
			m := 0.0
			for _, x := range xs {
				if x > m {
					m = x
				}
			}
			return m
		}
		b.ReportMetric(maxOf(loads.Greedy), "max_load_greedy")
		b.ReportMetric(maxOf(loads.RobinHood), "max_load_robinhood")
		b.ReportMetric(maxOf(loads.Random), "max_load_random")
	}
}

// BenchmarkFig10Spectrum regenerates Fig. 10: the singular-value
// spectrum of an n=1000 batch (paper: sharp drop past the top ~14).
func BenchmarkFig10Spectrum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, _, err := experiments.Fig10Spectrum()
		if err != nil {
			b.Fatal(err)
		}
		var total, acc float64
		for _, v := range s {
			total += v * v
		}
		r90 := 0
		for j, v := range s {
			acc += v * v
			if acc >= 0.9*total {
				r90 = j + 1
				break
			}
		}
		b.ReportMetric(float64(r90), "rank_at_90%_energy")
	}
}

// BenchmarkFig11Compression regenerates Fig. 11: compression ratio vs
// batch size at fixed variance-estimation error (paper: η≈85 % at
// n=2000, ε=5 %).
func BenchmarkFig11Compression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, _, err := experiments.Fig11Compression()
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.BatchSize == 2000 && p.Epsilon == 0.05 {
				b.ReportMetric(p.Compression, "eta@n=2000,eps=5%")
			}
		}
	}
}

// BenchmarkTable1Reservoir regenerates Table 1: reservoir sampling vs
// Jaal detection accuracy (paper: Jaal ≫ reservoir on every attack).
func BenchmarkTable1Reservoir(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Table1Reservoir(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		var res, jaal float64
		for _, r := range rows {
			res += r.ReservoirAccuracy
			jaal += r.JaalAccuracy
		}
		b.ReportMetric(res/float64(len(rows)), "avg_acc_reservoir")
		b.ReportMetric(jaal/float64(len(rows)), "avg_acc_jaal")
	}
}
