// DDoS detection across an ISP topology with the feedback loop.
//
// This example exercises the full Jaal story on the Abovenet-like
// topology: monitors placed at core routers, flows assigned greedily,
// a distributed SYN flood injected from ~200 sources, and two-stage
// inference (τ_d1/τ_d2) that pulls raw packets for uncertain centroids
// before alerting — with the communication accounting the paper reports.
//
// Run with:
//
//	go run ./examples/ddos
package main

import (
	"fmt"
	"log"
	"net/netip"

	"repro/internal/core"
	"repro/internal/inference"
	"repro/internal/rules"
	"repro/internal/summary"
	"repro/internal/topology"
	"repro/internal/trafficgen"
)

func main() {
	// ISP substrate: the paper's topology 1 analogue with 25 monitors.
	top := topology.Abovenet()
	monitors, err := top.PlaceMonitors(25)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("topology %q: %d routers, %d links; %d monitors at core routers\n",
		top.Name, top.NumNodes(), top.NumEdges(), len(monitors))

	env := rules.NewEnvironment()
	env.Set("HOME_NET", netip.MustParsePrefix("10.0.0.0/8"))
	questions, err := rules.LibraryQuestions(env, rules.TranslateConfig{
		DefaultDistanceThreshold: 0.05,
		VarianceThreshold:        0.003,
	})
	if err != nil {
		log.Fatal(err)
	}
	const epochVolume = 8000
	feedback := make(map[rules.AttackID]inference.FeedbackConfig, len(questions))
	for id, q := range questions {
		questions[id] = q.ScaleForVolume(epochVolume)
		// The Fig. 6 knee: τ_d1 tight (low FPR), stage 2 moderately
		// sensitized; between them the controller fetches raw packets
		// (§5.3).
		feedback[id] = inference.FeedbackConfig{
			TauD1:       q.EffectiveTau(0.015),
			TauD2:       q.EffectiveTau(0.12),
			CountScale2: 0.55,
		}
	}

	pipeline, err := core.NewPipeline(core.PipelineConfig{
		NumMonitors: 8, // 8 of the 25 tap points see this traffic mix
		Summary:     summary.Config{BatchSize: 1000, Rank: 12, Centroids: 200, MinBatch: 600, Seed: 7},
		Controller: core.ControllerConfig{
			Env: env, Questions: questions,
			Feedback: feedback, UseFeedback: true,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(2))
	attack, err := trafficgen.NewAttack(rules.AttackDistributedSYNFlood,
		trafficgen.AttackConfig{Seed: 2, Victim: 0x0A00002A})
	if err != nil {
		log.Fatal(err)
	}
	mix := trafficgen.NewMixer(bg, attack, trafficgen.MixConfig{Seed: 2})

	// Three epochs: clean, attack, clean.
	for epoch := 0; epoch < 3; epoch++ {
		var src interface {
			Next() trafficgen.LabeledPacket
		}
		if epoch == 1 {
			src = mix
		} else {
			src = trafficgen.NewMixer(trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(int64(20+epoch))), nil, trafficgen.MixConfig{})
		}
		for i := 0; i < epochVolume; i++ {
			if err := pipeline.Ingest(src.Next().Header); err != nil {
				log.Fatal(err)
			}
		}
		res, err := pipeline.RunEpoch()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nepoch %d (%s):\n", epoch, map[bool]string{true: "attack injected", false: "clean"}[epoch == 1])
		if len(res.Alerts) == 0 {
			fmt.Println("  no alerts")
		}
		for _, a := range res.Alerts {
			fmt.Printf("  %s\n", a)
		}
	}

	st := pipeline.Controller.Stats()
	fmt.Printf("\ncommunication accounting over %d epochs:\n", st.Epochs)
	fmt.Printf("  packets summarized:   %d\n", st.PacketsSummarized)
	fmt.Printf("  summary bytes:        %d\n", st.SummaryBytes())
	fmt.Printf("  feedback raw bytes:   %d (%d headers fetched)\n", st.FeedbackBytes(), st.RawPacketsFetched)
	fmt.Printf("  raw-transfer baseline %d bytes\n", st.RawHeaderBytes())
	fmt.Printf("  => overhead %.1f%% of raw; summaries alone %.1f%% (paper: ≈35%% steady state —\n",
		100*st.OverheadFraction(), 100*float64(st.SummaryBytes())/float64(st.RawHeaderBytes()))
	fmt.Printf("     the attack epoch pays extra raw confirmation, amortized as clean epochs accumulate)\n")
}
