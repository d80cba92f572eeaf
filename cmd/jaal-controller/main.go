// Command jaal-controller runs Jaal's central analysis-and-inference
// engine: it maintains long-lived TCP connections to a set of monitors,
// polls them for summaries every epoch (2 s by default, as deployed in
// §7), aggregates, evaluates the translated rule library, and logs
// alerts.
//
// Usage:
//
//	jaal-controller -monitors host1:7101,host2:7101 [-epoch 2s]
//	                [-home 10.0.0.0/8] [-volume 4000]
//	                [-feedback] [-tau1 0.015] [-tau2 0.12] [-count2 0.55]
//	                [-timeout 10s] [-retries 5] [-backoff 100ms] [-backoff-max 5s]
//	                [-alert-addr host:7200]
//	                [-obs :9100] [-epochlog controller.jsonl]
//	                [-trace] [-trace-out epochs.trace.json]
//
// Every wire exchange runs under -timeout and survives connection loss:
// a failed poll backs off (capped exponential, jittered), redials,
// re-handshakes and retries up to -retries times. Monitors that stay
// unreachable degrade the epoch — inference proceeds on whatever
// arrived — rather than stalling it. -alert-addr ships each alert as a
// MsgAlert frame to an alert sink (see core.AlertSink) under the same
// retry policy, written behind the epoch loop: an epoch's alerts leave
// in one write, and a burst whose retries run out is logged at the next
// alert, or at shutdown. SIGINT or SIGTERM stops the run once the epoch
// in flight is done: the queued alerts drain to the sink, the epoch log
// closes, -trace-out is written, and the process exits 0. A second
// signal kills it at once.
//
// -obs enables metric collection and serves Prometheus-text
// GET /metrics plus net/http/pprof on the given address (default off);
// the jaal_controller_compression_ratio gauge there is the live
// Fig. 12 overhead-vs-raw view.
//
// -epochlog appends one JSON line per inference round: the epoch's
// counts (summaries, declines, degraded, alerts, overhead_fraction) and
// its sealed trace, the same EpochTrace /trace serves, whose epoch,
// ship, collect and infer spans say where the epoch's time went.
// -epochlog implies -trace.
//
// -trace records one causal timeline per epoch — capture/summarize/
// encode spans shipped by tracing monitors inside their summary frames,
// plus the controller's ship/decode/infer/alert spans. The newest 64
// epochs, and as exemplars the last 8 slower than 250 ms, are served as
// JSON at GET /trace on the -obs address. -trace-out additionally
// writes the newest 64 as a Chrome trace-event file at shutdown; load
// it in Perfetto (ui.perfetto.dev) to see the
// per-monitor lanes. Tracing never alters alerts: frames from
// tracing-off monitors are byte-identical to pre-trace builds, and the
// disabled path costs one atomic load.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"log"
	"net"
	"net/netip"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/inference"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/trace"
)

func main() {
	var (
		monitorList = flag.String("monitors", "127.0.0.1:7101", "comma-separated monitor addresses")
		epoch       = flag.Duration("epoch", 2*time.Second, "summary polling period P")
		home        = flag.String("home", "10.0.0.0/8", "HOME_NET prefix for rule translation")
		feedback    = flag.Bool("feedback", true, "enable the two-threshold feedback loop")
		tau1        = flag.Float64("tau1", 0.015, "feedback first-stage threshold τ_d1")
		tau2        = flag.Float64("tau2", 0.12, "feedback second-stage threshold τ_d2")
		count2      = flag.Float64("count2", 0.55, "feedback second-stage τ_c relaxation (0–1]")
		volume      = flag.Int("volume", 4000, "expected packets per epoch (scales volumetric count thresholds)")
		timeout     = flag.Duration("timeout", 10*time.Second, "per-exchange wire deadline (0 = none)")
		retries     = flag.Int("retries", 5, "attempts per wire exchange, reconnects included")
		backoff     = flag.Duration("backoff", 100*time.Millisecond, "backoff before the first retry")
		backoffMax  = flag.Duration("backoff-max", 5*time.Second, "cap on the exponential backoff")
		alertAddr   = flag.String("alert-addr", "", "ship alerts as MsgAlert frames to this sink address (empty = log only)")
		obsAddr     = flag.String("obs", "", "serve /metrics and /debug/pprof on this address (empty = observability off)")
		epochLog    = flag.String("epochlog", "", "append one JSON line per epoch, with its sealed trace, to this file; implies -trace (empty = off)")
		traceOn     = flag.Bool("trace", false, "record per-epoch stage timelines (serve them at /trace on the -obs address)")
		traceOut    = flag.String("trace-out", "", "write a Chrome trace-event file (Perfetto-loadable) on shutdown; implies -trace")
	)
	flag.Parse()
	if *epoch <= 0 {
		log.Fatalf("jaal-controller: -epoch must be positive, got %v", *epoch)
	}

	retry := core.RetryConfig{
		Timeout:     *timeout,
		Attempts:    *retries,
		BackoffBase: *backoff,
		BackoffMax:  *backoffMax,
		// A live deployment wants desynchronized retries, not
		// reproducibility; chaos tests pass a fixed seed.
		JitterSeed: time.Now().UnixNano(),
	}

	if *traceOut != "" || *epochLog != "" {
		*traceOn = true
	}
	if *traceOn {
		trace.SetEnabled(true)
		log.Printf("epoch tracing on")
	}
	if *obsAddr != "" {
		addr, err := obs.Serve(*obsAddr)
		if err != nil {
			log.Fatalf("jaal-controller: obs: %v", err)
		}
		log.Printf("observability on %s (/metrics, /debug/pprof, /trace)", addr)
	}
	if *traceOut != "" {
		// Deferred first, so it runs after the alert drain and log close.
		defer func() {
			if err := trace.WriteTraceFile(*traceOut); err != nil {
				log.Fatalf("jaal-controller: trace-out: %v", err)
			}
			log.Printf("wrote epoch trace to %s", *traceOut)
		}()
	}
	var records *json.Encoder
	if *epochLog != "" {
		f, err := os.OpenFile(*epochLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("jaal-controller: epochlog: %v", err)
		}
		defer f.Close()
		records = json.NewEncoder(f)
	}

	prefix, err := netip.ParsePrefix(*home)
	if err != nil {
		log.Fatalf("jaal-controller: bad -home: %v", err)
	}
	env := rules.NewEnvironment()
	env.Set("HOME_NET", prefix)

	questions, err := rules.LibraryQuestions(env, rules.TranslateConfig{
		DefaultDistanceThreshold: 0.08,
		VarianceThreshold:        0.005,
	})
	if err != nil {
		log.Fatalf("jaal-controller: %v", err)
	}
	fb := make(map[rules.AttackID]inference.FeedbackConfig, len(questions))
	for id, q := range questions {
		q = q.ScaleForVolume(*volume)
		questions[id] = q
		fb[id] = inference.FeedbackConfig{
			TauD1:       q.EffectiveTau(*tau1),
			TauD2:       q.EffectiveTau(*tau2),
			CountScale2: *count2,
		}
	}

	ctrl, err := core.NewController(core.ControllerConfig{
		Env: env, Questions: questions, Feedback: fb, UseFeedback: *feedback,
	})
	if err != nil {
		log.Fatalf("jaal-controller: %v", err)
	}

	var endpoints []core.Endpoint
	for _, addr := range strings.Split(*monitorList, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		dial := func() (net.Conn, error) { return net.Dial("tcp", addr) }
		rm, err := core.DialMonitorRetry(dial, retry)
		if err != nil {
			log.Fatalf("jaal-controller: dial %s: %v", addr, err)
		}
		ctrl.RegisterSource(rm.ID(), rm)
		endpoints = append(endpoints, rm)
		log.Printf("connected to monitor %d at %s", rm.ID(), addr)
	}
	if len(endpoints) == 0 {
		log.Fatal("jaal-controller: no monitors")
	}

	var alertWriter *core.AlertWriter
	if *alertAddr != "" {
		dial := func() (net.Conn, error) { return net.Dial("tcp", *alertAddr) }
		alertWriter = core.NewAlertWriter(dial, retry)
		defer func() {
			if err := alertWriter.Close(); err != nil {
				log.Printf("jaal-controller: alert delivery at shutdown: %v", err)
			}
		}()
		log.Printf("shipping alerts to %s", *alertAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("polling %d monitors every %v (feedback=%v, timeout=%v, retries=%d)",
		len(endpoints), *epoch, *feedback, *timeout, *retries)
	engine := &core.Engine{Controller: ctrl, Endpoints: endpoints}
	ticker := time.NewTicker(*epoch)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			// The epoch in flight is done; a second signal now kills the process.
			stop()
			return
		case <-ticker.C:
		}
		res, err := engine.RunEpoch()
		for _, d := range res.Declines {
			if d.Unreachable() {
				log.Printf("monitor %d unreachable for epoch %d: %v", d.MonitorID, d.Epoch, d.Err)
			}
		}
		if res.Degraded {
			log.Printf("epoch %d degraded: proceeding with %d summaries", res.Epoch, len(res.Summaries))
		}
		// Volumetric verdicts ride sketching monitors' digest trailers, no
		// raw fetch involved; sketchless monitors ship none (nil report).
		if rep := res.Volumetric; rep != nil {
			for _, v := range rep.Verdicts {
				log.Printf("epoch %d volumetric: %s %s drawing %.1f%% of %d offered packets (~%d flows, shed %.1f%%)",
					res.Epoch, v.Dimension, netip.AddrFrom4([4]byte{byte(v.Addr >> 24), byte(v.Addr >> 16), byte(v.Addr >> 8), byte(v.Addr)}),
					100*v.Share, rep.Offered, rep.Flows, 100*rep.ShedFraction())
			}
		}
		if err != nil {
			log.Printf("inference: %v", err)
			continue
		}
		for _, a := range res.Alerts {
			log.Printf("%s", a)
			if alertWriter != nil {
				// Send only queues a; its error reports an earlier lost burst.
				if err := alertWriter.Send(a); err != nil {
					log.Printf("alert delivery: an earlier burst was lost: %v", err)
				}
			}
		}
		st := ctrl.Stats()
		if records != nil {
			if err := writeEpochRecord(records, res, st); err != nil {
				log.Printf("jaal-controller: epochlog: %v", err)
			}
		}
		log.Printf("epoch %d: %d summaries, %d packets summarized, overhead %.1f%% of raw",
			res.Epoch, len(res.Summaries), st.PacketsSummarized, 100*st.OverheadFraction())
	}
}

// epochRecord is one -epochlog line.
type epochRecord struct {
	Epoch            uint64            `json:"epoch"`
	Summaries        int               `json:"summaries"`
	Declines         int               `json:"declines"`
	Degraded         bool              `json:"degraded"`
	Alerts           int               `json:"alerts"`
	OverheadFraction float64           `json:"overhead_fraction"`
	Trace            *trace.EpochTrace `json:"trace"`
}

// writeEpochRecord encodes one epoch's record as a JSON line.
func writeEpochRecord(enc *json.Encoder, res core.EpochResult, st core.Stats) error {
	return enc.Encode(epochRecord{
		Epoch:            res.Epoch,
		Summaries:        len(res.Summaries),
		Declines:         len(res.Declines),
		Degraded:         res.Degraded,
		Alerts:           len(res.Alerts),
		OverheadFraction: st.OverheadFraction(),
		Trace:            res.Trace,
	})
}
