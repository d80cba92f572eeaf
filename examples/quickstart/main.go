// Quickstart: the smallest end-to-end Jaal pipeline.
//
// One monitor summarizes a batch of traffic containing a SYN flood; the
// controller aggregates the summary, evaluates the translated rule
// library, and prints the alerts — all in-process.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"net/netip"

	"repro/internal/core"
	"repro/internal/rules"
	"repro/internal/summary"
	"repro/internal/trafficgen"
)

func main() {
	// 1. Declare the monitored network and translate the rule library
	//    into question vectors.
	env := rules.NewEnvironment()
	env.Set("HOME_NET", netip.MustParsePrefix("10.0.0.0/8"))
	questions, err := rules.LibraryQuestions(env, rules.TranslateConfig{
		DefaultDistanceThreshold: 0.05,
		VarianceThreshold:        0.003,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Count thresholds are calibrated per 1000 packets; this example
	// aggregates 4000 per epoch.
	const epochVolume = 4000
	for id, q := range questions {
		questions[id] = q.ScaleForVolume(epochVolume)
	}

	// 2. Build the pipeline: 2 monitors with the paper's summarization
	//    operating point (n=1000, r=12, k=200) and one controller.
	pipeline, err := core.NewPipeline(core.PipelineConfig{
		NumMonitors: 2,
		Summary:     summary.DefaultConfig(),
		Controller:  core.ControllerConfig{Env: env, Questions: questions},
	})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Generate an epoch of backbone traffic with a distributed SYN
	//    flood mixed in at the paper's 10 % cap.
	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(1))
	attack, err := trafficgen.NewAttack(rules.AttackDistributedSYNFlood,
		trafficgen.AttackConfig{Seed: 1, Victim: 0x0A000001}) // 10.0.0.1
	if err != nil {
		log.Fatal(err)
	}
	mix := trafficgen.NewMixer(bg, attack, trafficgen.MixConfig{Seed: 1})
	for _, lp := range mix.Batch(epochVolume) {
		if err := pipeline.Ingest(lp.Header); err != nil {
			log.Fatal(err)
		}
	}

	// 4. Run one inference epoch and report.
	res, err := pipeline.RunEpoch()
	if err != nil {
		log.Fatal(err)
	}
	if len(res.Alerts) == 0 {
		fmt.Println("no alerts (unexpected: the flood should be caught)")
		return
	}
	for _, a := range res.Alerts {
		fmt.Println(a)
	}
	st := pipeline.Controller.Stats()
	fmt.Printf("\nsummaries stood for %d packets; transfer cost %.1f%% of shipping raw headers\n",
		st.PacketsSummarized, 100*st.OverheadFraction())
}
