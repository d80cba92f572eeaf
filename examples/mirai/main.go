// Mirai case study (Fig. 8 of the paper): an epidemic telnet scan
// spreading through vulnerable devices, with and without Jaal detecting
// infected scanners and having the administrator shut them off.
//
// The example runs both emulations and also demonstrates the detection
// side concretely: a batch of backbone traffic with the Mirai scan mixed
// in is summarized and pushed through the inference engine, showing the
// scan being caught from summaries alone.
//
// Run with:
//
//	go run ./examples/mirai
package main

import (
	"fmt"
	"log"
	"net/netip"

	"repro/internal/core"
	"repro/internal/mirai"
	"repro/internal/rules"
	"repro/internal/summary"
	"repro/internal/trafficgen"
)

func main() {
	// Part 1: detection. Mirai bots scan TCP 23/2323 across random
	// addresses; the translated rule flags the port-23 SYN mass with
	// high destination-IP variance (§8's "high variation in destination
	// IP for common target ports").
	env := rules.NewEnvironment()
	env.Set("HOME_NET", netip.MustParsePrefix("10.0.0.0/8"))
	questions, err := rules.LibraryQuestions(env, rules.TranslateConfig{
		DefaultDistanceThreshold: 0.05,
		VarianceThreshold:        0.003,
	})
	if err != nil {
		log.Fatal(err)
	}
	const epochVolume = 4000
	for id, q := range questions {
		questions[id] = q.ScaleForVolume(epochVolume)
	}
	pipeline, err := core.NewPipeline(core.PipelineConfig{
		NumMonitors: 2,
		Summary:     summary.DefaultConfig(),
		Controller:  core.ControllerConfig{Env: env, Questions: questions},
	})
	if err != nil {
		log.Fatal(err)
	}
	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(3))
	scan, err := trafficgen.NewAttack(rules.AttackMiraiScan, trafficgen.AttackConfig{Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	mix := trafficgen.NewMixer(bg, scan, trafficgen.MixConfig{Seed: 3})
	for _, lp := range mix.Batch(epochVolume) {
		if err := pipeline.Ingest(lp.Header); err != nil {
			log.Fatal(err)
		}
	}
	res, err := pipeline.RunEpoch()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("— detection —")
	detected := false
	for _, a := range res.Alerts {
		fmt.Println(a)
		if a.Attack == rules.AttackMiraiScan {
			detected = true
		}
	}
	if !detected {
		fmt.Println("scan not flagged in this epoch")
	}

	// Part 2: response. Replay the Fig. 8 epidemic: 150 vulnerable
	// devices; detection within 3 s at 95 % leads to shutoff.
	fmt.Println("\n— epidemic (Fig. 8) —")
	unchecked, err := mirai.Run(mirai.DefaultConfig(false), 120, 1)
	if err != nil {
		log.Fatal(err)
	}
	protected, err := mirai.Run(mirai.DefaultConfig(true), 120, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%6s  %10s  %10s  %8s\n", "t(s)", "unchecked", "with-jaal", "shutoff")
	for i := 0; i < len(unchecked.Samples); i += 15 {
		u, p := unchecked.Samples[i], protected.Samples[i]
		fmt.Printf("%6.0f  %10d  %10d  %8d\n", u.Time, u.Infected, p.Infected, p.Shutoff)
	}
	fmt.Printf("\nfinal infections: unchecked %d, with Jaal %d (%.1fx reduction)\n",
		unchecked.TotalInfected, protected.TotalInfected,
		float64(unchecked.TotalInfected)/float64(max(1, protected.TotalInfected)))
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
