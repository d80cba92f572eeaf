// Command jaal-monitor runs one Jaal monitor: it generates (or, in a
// real deployment, would capture) traffic, summarizes batches, and
// serves the controller's wire-protocol requests — load queries, summary
// polls and raw-batch fetches (§7).
//
// Usage:
//
//	jaal-monitor -listen :7101 -id 0 [-batch 1000] [-rank 12] [-k 200]
//	             [-nmin 600] [-trace-seed 1] [-attack distributed_syn_flood]
//	             [-pps 5000] [-obs :9101] [-trace]
//	             [-sketch] [-shed-watermark 0] [-write-timeout 30s]
//
// -obs enables metric collection and serves Prometheus-text
// GET /metrics plus net/http/pprof on the given address (default off);
// jaal_monitor_summaries_total and jaal_monitor_pending_packets there
// are this monitor's queue.
//
// -trace stamps capture/summarize/collect/encode spans on each batch
// and ships them to the controller inside the summary frames (a
// version-tolerant trailer old controllers ignore), where they join the
// controller's per-epoch timeline at /trace and in its -epochlog. Off
// by default; off means wire frames identical to pre-trace builds.
//
// -sketch runs the count-min/HLL ingest pass and ships a compact
// volumetric digest with each epoch's first summary frame (another
// version-tolerant trailer old controllers skip). -shed-watermark
// additionally arms load shedding: past that many admitted packets per
// epoch only heavy-hitter traffic and a 1-in-8 mice subsample reach the
// batch slab, and past twice the watermark nothing does. Setting
// -shed-watermark implies -sketch.
//
// The monitor synthesizes background traffic continuously (standing in
// for a tap on a production link) and optionally mixes in a labeled
// attack, so a controller pointed at it observes realistic summaries.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/sketch"
	"repro/internal/summary"
	"repro/internal/trace"
	"repro/internal/trafficgen"
)

func main() {
	var (
		listen    = flag.String("listen", ":7101", "address to serve the controller on")
		id        = flag.Int("id", 0, "monitor ID")
		batch     = flag.Int("batch", 1000, "batch size n")
		rank      = flag.Int("rank", 12, "retained SVD rank r")
		k         = flag.Int("k", 200, "number of centroids k")
		nmin      = flag.Int("nmin", 600, "minimum batch size n_min")
		traceSeed = flag.Int64("trace-seed", 1, "background trace seed (1 or 2)")
		traceOn   = flag.Bool("trace", false, "stamp per-stage spans and ship them with each summary")
		attack    = flag.String("attack", "", "attack to inject (empty = clean traffic)")
		pps       = flag.Int("pps", 5000, "synthesized packets per second")
		sketchOn  = flag.Bool("sketch", false, "run the count-min/HLL ingest sketch and ship a volumetric digest with each summary")
		shedMark  = flag.Int("shed-watermark", 0, "per-epoch admitted-packet budget; past it mice flows are shed/subsampled and past 2x everything is (0 = sketch only, never shed; implies -sketch when set)")
		obsAddr   = flag.String("obs", "", "serve /metrics and /debug/pprof on this address (empty = observability off)")
		writeTO   = flag.Duration("write-timeout", 30*time.Second, "per-response write deadline; a stalled controller cannot wedge a serving goroutine (0 = none)")
	)
	flag.Parse()
	if *pps <= 0 {
		log.Fatalf("jaal-monitor: -pps must be positive, got %d", *pps)
	}

	if *traceOn {
		trace.SetEnabled(true)
		log.Printf("epoch tracing on: shipping spans with each summary")
	}
	if *obsAddr != "" {
		addr, err := obs.Serve(*obsAddr)
		if err != nil {
			log.Fatalf("jaal-monitor: obs: %v", err)
		}
		log.Printf("observability on %s (/metrics, /debug/pprof)", addr)
	}

	scfg := sketch.Config{Enabled: *sketchOn || *shedMark > 0, ShedWatermark: *shedMark}
	mon, err := core.NewMonitorSketch(*id, summary.Config{
		BatchSize: *batch, Rank: *rank, Centroids: *k, MinBatch: *nmin, Seed: int64(*id) + 1,
	}, scfg)
	if err != nil {
		log.Fatalf("jaal-monitor: %v", err)
	}
	if scfg.Enabled {
		log.Printf("sketch ingest on (shed watermark %d)", *shedMark)
	}

	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(*traceSeed))
	var atk trafficgen.Attack
	if *attack != "" {
		atk, err = trafficgen.NewAttack(rules.AttackID(*attack), trafficgen.AttackConfig{Seed: int64(*id) + 100})
		if err != nil {
			log.Fatalf("jaal-monitor: %v", err)
		}
	}
	mix := trafficgen.NewMixer(bg, atk, trafficgen.MixConfig{Seed: int64(*id) + 7})

	// Ingest loop: synthesize traffic at the requested rate, ten ticks a
	// second.
	go func() {
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for t := 0; ; t = (t + 1) % 10 {
			<-tick.C
			n := tickQuota(*pps, t)
			for i := 0; i < n; i++ {
				if err := mon.Ingest(mix.Next().Header); err != nil {
					log.Printf("jaal-monitor: ingest: %v", err)
				}
			}
		}
	}()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("jaal-monitor: %v", err)
	}
	log.Printf("jaal-monitor %d listening on %s (batch=%d rank=%d k=%d attack=%q)",
		*id, ln.Addr(), *batch, *rank, *k, *attack)

	srv := &core.MonitorServer{Monitor: mon, WriteTimeout: *writeTO}
	for {
		conn, err := ln.Accept()
		if err != nil {
			log.Fatalf("jaal-monitor: accept: %v", err)
		}
		go func(c net.Conn) {
			defer c.Close()
			log.Printf("controller connected from %s", c.RemoteAddr())
			if err := srv.Serve(c); err != nil {
				log.Printf("session ended: %v", err)
			} else {
				fmt.Println("controller disconnected")
			}
		}(conn)
	}
}

// tickQuota is how many packets tick t of a second (0–9) synthesizes
// at pps packets per second: the step of the cumulative target
// (t+1)·pps/10, so every second makes exactly pps packets, not pps
// floored to a multiple of 10.
func tickQuota(pps, t int) int {
	return (t+1)*pps/10 - t*pps/10
}
