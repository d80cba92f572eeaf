package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/inference"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/scenario"
	"repro/internal/sketch"
	"repro/internal/summary"
	"repro/internal/trafficgen"
)

// scenarioEnv resolves $HOME_NET to 10/8, where scenario.Victim lives.
var scenarioEnv = scenario.Env()

// numMonitors is M. Flows are pinned to monitors by
// FlowKey.FastHash() % numMonitors when the traffic is generated.
const numMonitors = 2

// Every attack window follows the same six-epoch period: two clean
// epochs, three with the attack mixed in, one clean. The trailing clean
// epoch absorbs the scoreboard's one-epoch carry-over (a batch below
// n_min at the epoch boundary is summarized one epoch late), so a
// window's verdict never leaks into the next window.
const (
	periodEpochs = 6
	periodOnset  = 2
	periodActive = 3
)

// genRulesSeed seeds ruleset10k's generated rule corpus. It is fixed:
// the corpus is the workload's configuration, like the library rules,
// and the workload seed varies the traffic. With a corpus per seed the
// evaluator's cost moved by 11 % between seeds, three times what two
// runs of one seed differ by.
const genRulesSeed = 1

// genPrefix keys the generated questions of ruleset10k. Scoring ignores
// alerts carrying it; they are still raised, shipped and counted.
const genPrefix = "gen-"

// summaryConfig is the paper's operating point (n = 1000, r = 12,
// k = 200, n_min = 200). The seed is the monitor's own configuration,
// as in cmd/jaal-monitor, not the workload seed: the program under test
// receives nothing from the benchmark but header bytes and rules.
func summaryConfig(monitor int) summary.Config {
	return summary.Config{BatchSize: 1000, Rank: 12, Centroids: 200, MinBatch: 200, Seed: int64(monitor) + 1}
}

// spec is one workload: what traffic is offered and how the deployment
// is configured for it.
type spec struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string
	// offered is the packets fed per epoch across both monitors;
	// provisioned is the volume the count thresholds and the shed
	// watermark are calibrated for. They differ only under overload.
	offered, provisioned int
	// attacks rotates one attack per six-epoch period; the cycle is
	// len(attacks) periods long and is replayed back to back.
	attacks []rules.AttackID
	// attackShare caps the attack share of an active epoch (0 selects
	// the trafficgen.Mixer default of 10 %).
	attackShare float64
	// genRules adds that many generated questions to the library.
	genRules int
	// feedbackAll gives every library question a two-stage feedback
	// config; otherwise only SSH brute force has one, as in the
	// scenario scoreboard.
	feedbackAll bool
	// shed arms the sketch pass with a per-monitor watermark of 5/8 of
	// the monitor's provisioned share, so the default hard ceiling (2x)
	// pins the admitted volume at 1.25x the provisioned volume.
	shed bool
}

var fourAttacks = []rules.AttackID{
	rules.AttackSYNFlood, rules.AttackPortScan,
	rules.AttackSSHBruteForce, rules.AttackDistributedSYNFlood,
}

// workloads lists the benchmark's workloads in report order.
var workloads = []spec{
	{
		name:    "backbone",
		why:     "paper operating point (4000 pkts/epoch, 11 rules): SVD and k-means do most of the work, so a summarization kernel change shows here",
		offered: 4000, provisioned: 4000, attacks: fourAttacks,
	},
	{
		name:    "ruleset10k",
		why:     "backbone traffic against 10000 extra generated rules: controller-bound, so the question index, evaluator and alert path show here",
		offered: 4000, provisioned: 4000, attacks: fourAttacks, genRules: 10000,
	},
	{
		name:    "feedback",
		why:     "backbone traffic with two-stage feedback on every rule: raw-header fetches cross the wire, the paper's Fig. 6 overhead regime",
		offered: 4000, provisioned: 4000, attacks: fourAttacks, feedbackAll: true,
	},
	{
		name:    "overload",
		why:     "150x the provisioned 2000 pkts/epoch with shedding on: decode, sketch and buffer do most of the work while summarization is capped",
		offered: 300000, provisioned: 2000, attacks: []rules.AttackID{rules.AttackSYNFlood},
		attackShare: 0.2, shed: true,
	},
}

func workloadByName(name string) (spec, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

func (s spec) cycleEpochs() int { return periodEpochs * len(s.attacks) }

// sketchConfig is the monitors' sketch pass: off except under overload.
func (s spec) sketchConfig() sketch.Config {
	if !s.shed {
		return sketch.Config{}
	}
	return sketch.DefaultConfig(s.provisioned / numMonitors * 5 / 8)
}

// activeAttack returns the attack mixed into cycle epoch c, or "" when
// the epoch is clean.
func (s spec) activeAttack(c int) rules.AttackID {
	if p := c % periodEpochs; p < periodOnset || p >= periodOnset+periodActive {
		return ""
	}
	return s.attacks[c/periodEpochs]
}

// traffic is one cycle of pre-encoded IPv4 packets, already split by
// monitor, with the ground truth the alerts are scored against.
type traffic struct {
	// bytes[c][m] holds cycle epoch c's packets for monitor m back to
	// back: option-less IPv4+TCP (or UDP) headers without payload, so
	// every decoded TotalLength reads 40 (28).
	bytes [][numMonitors][]byte
	// pkts[c][m] counts them.
	pkts [][numMonitors]int
	// attackPkts[c] counts the packets of cycle epoch c whose label was
	// attack: the per-packet ground truth folded to the epoch the
	// alerts are raised in.
	attackPkts []int
	// total is the encoded size of the whole cycle.
	total int
}

// generate builds one cycle of labelled traffic from seed. The same
// (spec, seed) always yields the same bytes.
func (s spec) generate(seed int64) (*traffic, error) {
	cycle := s.cycleEpochs()
	tr := &traffic{
		bytes:      make([][numMonitors][]byte, cycle),
		pkts:       make([][numMonitors]int, cycle),
		attackPkts: make([]int, cycle),
	}
	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(seed))
	var mix *trafficgen.Mixer
	for c := 0; c < cycle; c++ {
		if c%periodEpochs == 0 {
			w := int64(c / periodEpochs)
			atk, err := trafficgen.NewAttack(s.attacks[w], trafficgen.AttackConfig{
				Seed: seed*1000 + w + 1, Victim: scenario.Victim,
			})
			if err != nil {
				return nil, err
			}
			mix = trafficgen.NewMixer(bg, atk, trafficgen.MixConfig{
				Seed: seed*1000 + w + 101, AttackFraction: s.attackShare,
			})
		}
		active := s.activeAttack(c) != ""
		for m := range tr.bytes[c] {
			tr.bytes[c][m] = make([]byte, 0, (s.offered/numMonitors+s.offered/16)*(packet.IPv4HeaderLen+packet.TCPHeaderLen))
		}
		for i := 0; i < s.offered; i++ {
			var h packet.Header
			if active {
				lp := mix.Next()
				h = lp.Header
				if lp.Label == trafficgen.LabelAttack {
					tr.attackPkts[c]++
				}
			} else {
				h = bg.Next()
			}
			var enc []byte
			var err error
			if h.Protocol == packet.ProtoUDP {
				enc, err = h.MarshalIPv4UDP(nil)
			} else {
				enc, err = h.MarshalIPv4TCP(nil)
			}
			if err != nil {
				return nil, err
			}
			m := h.Flow().FastHash() % numMonitors
			tr.bytes[c][m] = append(tr.bytes[c][m], enc...)
			tr.pkts[c][m]++
			tr.total += len(enc)
		}
	}
	return tr, nil
}

// ruleset is the controller's question set for a workload.
type ruleset struct {
	questions map[rules.AttackID]*rules.Question
	feedback  map[rules.AttackID]inference.FeedbackConfig
}

// sortedQuestions returns the controller's evaluation order: attack IDs
// ascending. The layer probe builds its own index over the same order.
func (r *ruleset) sorted() ([]rules.AttackID, []*rules.Question) {
	ids := make([]rules.AttackID, 0, len(r.questions))
	for id := range r.questions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	qs := make([]*rules.Question, len(ids))
	for i, id := range ids {
		qs[i] = r.questions[id]
	}
	return ids, qs
}

// buildRules translates the workload's rules: the scenario library at
// the scoreboard's thresholds, scaled to the provisioned volume, plus
// the generated corpus when the workload asks for one.
func (s spec) buildRules() (*ruleset, error) {
	env := scenarioEnv
	tcfg := rules.TranslateConfig{DefaultDistanceThreshold: 0.05, VarianceThreshold: 0.003}
	lib, err := rules.ScenarioLibraryQuestions(env, tcfg)
	if err != nil {
		return nil, err
	}
	rs := &ruleset{
		questions: make(map[rules.AttackID]*rules.Question, len(lib)+s.genRules),
		feedback:  make(map[rules.AttackID]inference.FeedbackConfig),
	}
	for id, q := range lib {
		rs.questions[id] = q.ScaleForVolume(s.provisioned)
		// The scoreboard's corpusFeedback band: stage 2 at six times the
		// distance threshold with the count relaxed to 0.4.
		if s.feedbackAll || id == rules.AttackSSHBruteForce {
			rs.feedback[id] = inference.FeedbackConfig{
				TauD1: q.DistanceThreshold, TauD2: 6 * q.DistanceThreshold, CountScale2: 0.4,
			}
		}
	}
	if s.genRules > 0 {
		gen, err := rules.GenerateQuestions(rules.GenConfig{Rules: s.genRules, Seed: genRulesSeed}, env, tcfg)
		if err != nil {
			return nil, err
		}
		for _, q := range gen {
			rs.questions[rules.AttackID(fmt.Sprintf("%s%d", genPrefix, q.Rule.SID))] = q.ScaleForVolume(s.provisioned)
		}
	}
	return rs, nil
}

// acceptSets[truth][alert] reports whether an alert for `alert` is a
// correct detection of the active attack `truth`: the alert's own ID
// plus the alias sets of the scenario catalogue (the flags:S volumetric
// rules fire on one another's traffic).
var acceptSets = func() map[rules.AttackID]map[rules.AttackID]bool {
	out := make(map[rules.AttackID]map[rules.AttackID]bool)
	for _, sc := range scenario.Catalogue() {
		truth := rules.AttackID(sc.Name)
		set := map[rules.AttackID]bool{truth: true}
		for alert, truths := range sc.Accept {
			for _, id := range truths {
				if id == truth {
					set[alert] = true
				}
			}
		}
		out[truth] = set
	}
	return out
}()

func accepts(alert, truth rules.AttackID) bool { return acceptSets[truth][alert] }
