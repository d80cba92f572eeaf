package main

import (
	"fmt"
	"math"
)

// metricDef declares one metric as BENCHMARK.json lists it. bound is the
// share of the parent's median an end-to-end metric may worsen by;
// per-layer metrics have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics a user of the deployment would see, measured
// with tracing off. Every workload reports every one. The time-based
// ones carry the widest bound the benchmark contract allows: on the
// shared two-core machine this was written on, whole runs of one commit
// differ by 10 to 20 % (README.md, "Steadiness").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"packets_per_s", "pkt/s", "higher", 0.25},
	{"packets_per_cpu_s", "pkt/CPU-s", "higher", 0.25},
	{"epoch_close_ms_p50", "ms", "lower", 0.25},
	{"detect_latency_epochs", "epochs", "lower", 0.10},
	{"detected_epoch_share", "share", "higher", 0.05},
	{"wire_bytes_per_packet", "B/pkt", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.15},
}

// perLayer are the single-layer metrics of the traced pass, named
// <module>.<metric>. Counts are per epoch so that a run's length does
// not scale them. README.md maps each to the end-to-end metric it
// should move, and on which workload.
var perLayer = []metricDef{
	{"packet.decode_ns_per_pkt", "ns/pkt", "lower", 0},
	{"packet.decode_fail", "count", "lower", 0},
	{"packet.normalize_ns_per_pkt", "ns/pkt", "lower", 0},
	{"packet.rawbatch_codec_ns_per_hdr", "ns/hdr", "lower", 0},

	{"sketch.observe_ns_per_pkt", "ns/pkt", "lower", 0},
	{"sketch.offered_pkts", "pkt/epoch", "higher", 0},
	{"sketch.kept_pkts", "pkt/epoch", "lower", 0},
	{"sketch.shed_share", "share", "higher", 0},
	{"sketch.digest_us_per_epoch", "us/epoch", "lower", 0},
	{"sketch.digest_bytes_per_epoch", "B/epoch", "lower", 0},

	{"summary.buffer_add_ns_per_pkt", "ns/pkt", "lower", 0},
	{"summary.summarize_ms_per_batch", "ms/batch", "lower", 0},
	{"summary.summarize_ns_per_pkt", "ns/pkt", "lower", 0},
	{"summary.batches", "1/epoch", "lower", 0},
	{"summary.flush_batches", "1/epoch", "lower", 0},
	{"summary.flush_share", "share", "lower", 0},
	{"summary.marshal_us_per_summary", "us/summary", "lower", 0},
	{"summary.unmarshal_us_per_summary", "us/summary", "lower", 0},
	{"summary.bytes_per_summary", "B/summary", "lower", 0},
	{"summary.elements_per_pkt", "1/pkt", "lower", 0},
	{"summary.allocs_per_batch", "1/batch", "lower", 0},

	{"linalg.svd_ms_per_batch", "ms/batch", "lower", 0},
	{"linalg.kmeans_ms_per_batch", "ms/batch", "lower", 0},
	{"linalg.kmeans_iters_per_batch", "1/batch", "lower", 0},
	{"linalg.share_of_summarize", "share", "lower", 0},

	{"wire.frame_write_ns_per_frame", "ns/frame", "lower", 0},
	{"wire.frame_read_ns_per_frame", "ns/frame", "lower", 0},
	{"wire.frames_per_epoch", "1/epoch", "lower", 0},
	{"wire.up_bytes_per_pkt", "B/pkt", "lower", 0},
	{"wire.down_bytes_per_pkt", "B/pkt", "lower", 0},

	{"core.ingest_ns_per_pkt", "ns/pkt", "lower", 0},
	{"core.ingest_busy_share", "share", "higher", 0},
	{"core.epoch_skew_ms", "ms", "lower", 0},
	{"core.poll_ms_per_epoch", "ms/epoch", "lower", 0},
	{"core.poll_declines", "1/epoch", "lower", 0},
	{"core.poll_degraded", "1/epoch", "lower", 0},
	{"core.observe_digests_us_per_epoch", "us/epoch", "lower", 0},
	{"core.process_epoch_ms_per_epoch", "ms/epoch", "lower", 0},
	{"core.raw_fetch_calls_per_epoch", "1/epoch", "lower", 0},
	{"core.raw_fetch_ms_per_epoch", "ms/epoch", "lower", 0},
	{"core.raw_fetch_hdrs_per_pkt", "hdr/pkt", "lower", 0},
	{"core.alert_send_us_per_alert", "us/alert", "lower", 0},
	{"core.alert_sink_lag_us", "us/epoch", "lower", 0},
	{"core.epoch_close_ms_p95", "ms", "lower", 0},
	{"core.alerts_per_epoch", "1/epoch", "lower", 0},

	{"inference.aggregate_us_per_epoch", "us/epoch", "lower", 0},
	{"inference.aggregate_rows", "1/epoch", "lower", 0},
	{"inference.candidates_us_per_epoch", "us/epoch", "lower", 0},
	{"inference.candidate_share", "share", "lower", 0},
	{"inference.evaluate_ms_per_epoch", "ms/epoch", "lower", 0},
	{"inference.evaluate_ns_per_question", "ns/question", "lower", 0},
	{"inference.feedback_ms_per_epoch", "ms/epoch", "lower", 0},
	{"inference.uncertain_share", "share", "lower", 0},
	{"inference.false_alert_share", "share", "lower", 0},

	{"rules.questions", "count", "higher", 0},
	{"rules.translate_ms", "ms", "lower", 0},
	{"rules.index_build_ms", "ms", "lower", 0},

	{"snort.raw_match_ns_per_hdr", "ns/hdr", "lower", 0},

	{"runtime.alloc_bytes_per_pkt", "B/pkt", "lower", 0},
	{"runtime.allocs_per_pkt", "1/pkt", "lower", 0},
	{"runtime.gc_cycles", "1/epoch", "lower", 0},
	{"runtime.gc_pause_ms_total", "ms/epoch", "lower", 0},
	{"runtime.heap_peak_mb", "MiB", "lower", 0},

	{"harness.traffic_mb", "MiB", "lower", 0},
	{"harness.self_ns_per_pkt", "ns/pkt", "lower", 0},
	{"trace.overhead_share", "share", "lower", 0},
	{"probe.reconcile_gap_share", "share", "lower", 0},
	{"probe.epoch_gap_p50", "share", "lower", 0},

	// The program's own epoch trace, read beside the harness's numbers.
	// Report-only: frames carry a trace trailer in this pass.
	{"summary.summarize_ms_intrace", "ms/epoch", "lower", 0},
	{"summary.encode_ms_intrace", "ms/epoch", "lower", 0},
	{"summary.decode_ms_intrace", "ms/epoch", "lower", 0},
	{"wire.ship_ms_intrace", "ms/epoch", "lower", 0},
	{"inference.infer_ms_intrace", "ms/epoch", "lower", 0},
	{"core.raw_fetch_ms_intrace", "ms/epoch", "lower", 0},
	{"core.alert_emit_ms_intrace", "ms/epoch", "lower", 0},
}

// fill builds the report's metric map from values, which must hold a
// finite number for exactly the metrics of defs.
func (r *report) fill(defs []metricDef, values map[string]float64) error {
	r.Metrics = make(map[string]metric, len(defs))
	for _, def := range defs {
		v, ok := values[def.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", def.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", def.name, v)
		}
		r.Metrics[def.name] = metric{Value: v, Unit: def.unit}
	}
	if len(values) != len(defs) {
		for name := range values {
			if _, ok := r.Metrics[name]; !ok {
				return fmt.Errorf("metric %s is not declared", name)
			}
		}
	}
	return nil
}
