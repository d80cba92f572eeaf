package experiments

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/inference"
	"repro/internal/packet"
	"repro/internal/par"
	"repro/internal/rules"
	"repro/internal/summary"
	"repro/internal/trafficgen"
)

// MatchScalePoint is one (profile, library-size) measurement of the
// ISSUE 6 question-matching harness: the per-epoch wall time of a plain
// sweep (d_q of every question against every centroid) vs the production
// engine (question index, then the window-pruned estimator) over the
// same aggregate, plus the index's pruning accounting.
type MatchScalePoint struct {
	Profile    string
	Rules      int
	Centroids  int
	LinearNs   int64
	IndexedNs  int64
	Speedup    float64
	Candidates int
	Pruned     int
	// Matchable counts the questions whose distance-matched set was
	// actually non-empty — the floor no conservative filter can prune
	// below. Candidates − Matchable is the filter's slack.
	Matchable int
	// Identical records that the engine's distance-matched rows equal
	// the sweep's for every question — the exactness property, measured
	// rather than assumed.
	Identical bool
}

// MatchScale measures how question evaluation scales with library size.
// For each size it generates a seeded Snort-subset library, evaluates
// one epoch's aggregate with a plain sweep written here (the production
// estimator measures only the rows inside a question's window) and with
// the production engine, and reports the faster of reps timed
// repetitions.
// nil sizes defaults to the 100/1k/10k sweep of ISSUE 6; reps < 1
// defaults to 3. Timing aside, the run also checks the engine matches
// exactly the rows the sweep does and errors out if they ever diverge.
//
// Two traffic profiles bracket the index's operating range:
//
//   - "diffuse": the trafficgen backbone mix, whose servers scatter
//     across the whole home /8. Most host-pinned rules are genuinely
//     distance-matchable against some centroid (the Matchable column),
//     so no conservative filter can skip much — the index's win is
//     bounded by the workload, not the data structure.
//   - "hot/16": the same epoch shape with benign traffic concentrated
//     in one /16, as a single monitor's link sees. Rules pinned
//     elsewhere in the /8 are provably unmatchable and the index skips
//     them wholesale.
func MatchScale(sizes []int, reps int) ([]MatchScalePoint, *Table, error) {
	if len(sizes) == 0 {
		sizes = []int{100, 1000, 10000}
	}
	if reps < 1 {
		reps = 3
	}

	table := &Table{
		Title: "ISSUE 6 — question matching cost vs library size (one epoch)",
		Columns: []string{
			"profile", "rules", "centroids", "linear ms", "indexed ms",
			"speedup", "candidates", "matchable", "pruned", "identical",
		},
		Notes: []string{
			"linear: d_q of every question against every centroid (the scan alone)",
			"indexed: candidate filter + window-pruned estimator on survivors only, post-scan tail included",
			"matchable: questions with a non-empty distance-matched set — the pruning floor",
			"identical: the engine's distance-matched rows equal the sweep's, question by question",
		},
	}

	profiles := []struct {
		name  string
		build func() (*inference.Aggregate, error)
	}{
		{"diffuse", diffuseAggregate},
		{"hot/16", hotSubnetAggregate},
	}

	var points []MatchScalePoint
	for _, prof := range profiles {
		agg, err := prof.build()
		if err != nil {
			return nil, nil, err
		}
		for _, n := range sizes {
			qs, err := rules.GenerateQuestions(rules.GenConfig{Rules: n, Seed: 42},
				Env(), rules.DefaultTranslateConfig())
			if err != nil {
				return nil, nil, err
			}
			ix, err := rules.NewQuestionIndex(qs, nil)
			if err != nil {
				return nil, nil, err
			}

			linear := make([][]int, len(qs))
			indexed := make([]*inference.MatchResult, len(qs))
			linNs := int64(1<<63 - 1)
			ixNs := int64(1<<63 - 1)
			var cs *rules.CandidateSet
			for rep := 0; rep < reps; rep++ {
				start := time.Now()
				par.For(len(qs), 0, func(i int) {
					linear[i] = sweepRows(agg, qs[i])
				})
				if d := time.Since(start).Nanoseconds(); d < linNs {
					linNs = d
				}
				// A fresh Aggregate over the same rows, as every epoch has:
				// the engine's time includes sorting the columns it uses.
				epoch := &inference.Aggregate{Representatives: agg.Representatives, Counts: agg.Counts, Refs: agg.Refs}
				start = time.Now()
				cs = inference.Candidates(epoch, ix)
				par.For(len(qs), 0, func(i int) {
					indexed[i] = inference.EstimateSimilarityIndexed(epoch, qs[i], cs.Contains(i))
				})
				if d := time.Since(start).Nanoseconds(); d < ixNs {
					ixNs = d
				}
			}
			matchable := 0
			for i, rows := range linear {
				if !slices.Equal(rows, indexed[i].AllMatchedRows) {
					return nil, nil, fmt.Errorf("experiments: matchscale: engine diverged from the sweep at %d rules (%s)", n, prof.name)
				}
				if len(rows) > 0 {
					matchable++
				}
			}

			pt := MatchScalePoint{
				Profile:    prof.name,
				Rules:      n,
				Centroids:  agg.Rows(),
				LinearNs:   linNs,
				IndexedNs:  ixNs,
				Speedup:    float64(linNs) / float64(ixNs),
				Candidates: cs.Count(),
				Pruned:     cs.Len() - cs.Count(),
				Matchable:  matchable,
				Identical:  true,
			}
			points = append(points, pt)
			table.Rows = append(table.Rows, []string{
				pt.Profile,
				fmt.Sprintf("%d", pt.Rules),
				fmt.Sprintf("%d", pt.Centroids),
				fmt.Sprintf("%.3f", float64(pt.LinearNs)/1e6),
				fmt.Sprintf("%.3f", float64(pt.IndexedNs)/1e6),
				fmt.Sprintf("%.1fx", pt.Speedup),
				fmt.Sprintf("%d", pt.Candidates),
				fmt.Sprintf("%d", pt.Matchable),
				fmt.Sprintf("%d", pt.Pruned),
				fmt.Sprintf("%v", pt.Identical),
			})
		}
	}
	return points, table, nil
}

// sweepRows is Algorithm 1's scan as §5.2 writes it: the rows of the
// aggregate within τ_d of the question, every row measured.
func sweepRows(agg *inference.Aggregate, q *rules.Question) []int {
	var rows []int
	for r := 0; r < agg.Rows(); r++ {
		if q.Distance(agg.Representatives.Row(r)) <= q.DistanceThreshold {
			rows = append(rows, r)
		}
	}
	return rows
}

// aggregateOf summarizes per-monitor header batches at the paper's
// operating point (n=1000, k/n=0.2, §8) and aggregates them.
func aggregateOf(batches [][]packet.Header) (*inference.Aggregate, error) {
	var sums []*summary.Summary
	for m, headers := range batches {
		szr, err := summary.NewSummarizer(summary.Config{
			BatchSize: len(headers),
			Rank:      12,
			Centroids: len(headers) / 5,
			Seed:      7 + int64(m),
		})
		if err != nil {
			return nil, err
		}
		s, err := szr.Summarize(headers, m, 0)
		if err != nil {
			return nil, err
		}
		sums = append(sums, s)
	}
	return inference.AggregateSummaries(sums)
}

// diffuseAggregate builds one epoch from seeded mixed traffic: four
// monitors of 4/5 backbone background + 1/5 SYN flood, the same shape
// the controller sees in deployment.
func diffuseAggregate() (*inference.Aggregate, error) {
	const (
		monitors  = 4
		batchSize = 1000
	)
	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(7))
	atk, err := trafficgen.NewAttack(rules.AttackDistributedSYNFlood,
		trafficgen.AttackConfig{Seed: 7, Victim: 0x0A000001})
	if err != nil {
		return nil, err
	}
	mix := trafficgen.NewMixer(bg, atk, trafficgen.MixConfig{Seed: 7})
	batches := make([][]packet.Header, monitors)
	for m := range batches {
		pkts := mix.Batch(batchSize)
		headers := make([]packet.Header, len(pkts))
		for i, lp := range pkts {
			headers[i] = lp.Header
		}
		batches[m] = headers
	}
	return aggregateOf(batches)
}

// hotSubnetAggregate builds one epoch whose benign traffic concentrates
// on servers inside 10.0.0.0/16 — the locality a single monitor's link
// exhibits — plus the same 1/5 SYN-flood share.
func hotSubnetAggregate() (*inference.Aggregate, error) {
	const (
		monitors  = 4
		batchSize = 1000
	)
	rng := rand.New(rand.NewSource(7))
	batches := make([][]packet.Header, monitors)
	for m := range batches {
		headers := make([]packet.Header, batchSize)
		for i := range headers {
			if i%5 == 4 {
				// SYN-flood share toward one victim.
				headers[i] = packet.Header{
					SrcIP: rng.Uint32(), DstIP: 0x0A000001,
					Protocol: packet.ProtoTCP, TTL: uint8(32 + rng.Intn(96)),
					TotalLength: 40, IPID: uint16(rng.Intn(65536)),
					SrcPort: uint16(1024 + rng.Intn(60000)), DstPort: 80,
					Seq: rng.Uint32(), DataOffset: 5,
					Flags: packet.FlagSYN, Window: 65535,
				}
				continue
			}
			headers[i] = packet.Header{
				SrcIP:       rng.Uint32(),
				DstIP:       0x0A000000 | uint32(rng.Intn(1<<16)), // 10.0.x.x
				Protocol:    packet.ProtoTCP,
				TTL:         64,
				TotalLength: uint16(40 + rng.Intn(1400)),
				IPID:        uint16(rng.Intn(65536)),
				SrcPort:     uint16(1024 + rng.Intn(60000)),
				DstPort:     [4]uint16{80, 443, 8080, 25}[rng.Intn(4)],
				Seq:         rng.Uint32(),
				Ack:         rng.Uint32(),
				DataOffset:  5,
				Flags:       packet.FlagACK,
				Window:      uint16(8192 + rng.Intn(57343)),
			}
		}
		batches[m] = headers
	}
	return aggregateOf(batches)
}
