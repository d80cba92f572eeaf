package core

import (
	"repro/internal/inference"
	"repro/internal/obs"
)

// Core observability: monitor ingest/summarize activity, controller
// inference outcomes, and the live communication-overhead view. Every
// metric is a write-only side channel — nothing here feeds back into
// routing, summarization or inference, so same-seed runs are
// byte-identical with collection on or off
// (TestPipelineObsDeterminism).
var (
	// Monitor side.
	cIngestPackets = obs.NewCounter("jaal_monitor_ingest_packets_total",
		"packet headers ingested across all monitors")
	cBatchesSealed = obs.NewCounter("jaal_monitor_batches_sealed_total",
		"batches sealed by reaching the configured batch size n")
	cBatchesFlushed = obs.NewCounter("jaal_monitor_batches_flushed_total",
		"partial batches flushed by a controller poll (>= n_min pending)")
	cSummariesQueued = obs.NewCounter("jaal_monitor_summaries_total",
		"summaries produced and queued for collection")
	gPendingPackets = obs.NewIntGauge("jaal_monitor_pending_packets",
		"unsealed packets buffered at the last collected monitor")
	cRawServed = obs.NewCounter("jaal_monitor_raw_packets_served_total",
		"raw headers served to the feedback loop")

	// Sketch-assisted ingest (the AMON-style shedding pass). Shed counts
	// packets dropped before the batch slab under the watermark; the
	// sketch gauges snapshot the last collected digest.
	cShedPackets = obs.NewCounter("jaal_monitor_shed_packets_total",
		"packets shed by the sketch pass before the batch slab")
	cSketchDigests = obs.NewCounter("jaal_sketch_digests_total",
		"per-epoch sketch digests produced by monitors")
	gSketchFlows = obs.NewIntGauge("jaal_sketch_flows_last",
		"distinct-flow estimate of the last collected sketch digest")
	gSketchShedFraction = obs.NewGauge("jaal_sketch_shed_fraction_last",
		"shed fraction (shed/offered) of the last collected sketch digest")

	// Controller side.
	cEpochs = obs.NewCounter("jaal_controller_epochs_total",
		"inference rounds executed")
	hEpochSeconds = obs.NewHistogram("jaal_controller_epoch_seconds",
		"wall time of one inference round (aggregate + all questions)", obs.DurationBuckets())
	cQuestions = obs.NewCounter("jaal_controller_questions_total",
		"question evaluations across all epochs")
	cAlerts = obs.NewCounter("jaal_controller_alerts_total",
		"alerts raised")
	cSimMatches = obs.NewCounter("jaal_controller_similarity_matches_total",
		"single-stage similarity matches that alerted (τ_c and τ_d met)")
	cFeedbackPulls = obs.NewCounter("jaal_controller_feedback_raw_packets_total",
		"deduplicated raw headers pulled by the feedback loop")
	cIndexCandidates = obs.NewCounter("jaal_controller_index_candidates_total",
		"question evaluations that passed the candidate index and ran the exact estimator")
	cIndexPruned = obs.NewCounter("jaal_controller_index_pruned_total",
		"question evaluations skipped because the index proved the match set empty")
	cIndexRebuilds = obs.NewCounter("jaal_controller_index_rebuilds_total",
		"question-index rebuilds forced by adaptive τ_d2 outgrowing the indexed bound")
	cVerdictAlert = obs.NewCounter("jaal_controller_feedback_verdicts_total{verdict=\"alert\"}",
		"feedback-loop verdicts by case (§5.3)")
	cVerdictClear = obs.NewCounter("jaal_controller_feedback_verdicts_total{verdict=\"clear\"}",
		"feedback-loop verdicts by case (§5.3)")
	cVerdictUncertain = obs.NewCounter("jaal_controller_feedback_verdicts_total{verdict=\"uncertain\"}",
		"feedback-loop verdicts by case (§5.3)")
	cVerdictAnomalous = obs.NewCounter("jaal_controller_feedback_verdicts_total{verdict=\"anomalous\"}",
		"feedback-loop verdicts by case (§5.3)")
	cVolumetricVerdicts = obs.NewCounter("jaal_controller_volumetric_verdicts_total",
		"volumetric verdicts issued from merged sketch digests (no raw fetch)")

	// Communication accounting — the live Fig. 12 view. The gauge is
	// (summary + feedback bytes) / equivalent raw-header bytes, i.e.
	// Stats.OverheadFraction updated every epoch; reading ~0.35 at the
	// paper's operating point means the deployment matches §8.
	cSummaryElements = obs.NewCounter("jaal_controller_summary_elements_total",
		"summary elements received (4 wire bytes each)")
	cPacketsSummarized = obs.NewCounter("jaal_controller_packets_summarized_total",
		"raw packets the received summaries stand for")
	gCompression = obs.NewGauge("jaal_controller_compression_ratio",
		"cumulative (summary+feedback bytes)/raw-equivalent bytes, the Fig. 12 overhead")

	// Wire transport fault tolerance. Reconnects and deadline misses are
	// fed by the one retrying client under RemoteMonitor and AlertWriter:
	// reconnects count successful redials (re-handshaken, for a monitor)
	// after a lost connection; deadline misses count attempts, handshake
	// or exchange, that died on an I/O deadline. Decode rejects count
	// summary frames whose payload a codec refused; degraded epochs
	// count inference rounds that proceeded without at least one
	// monitor's summaries; serve errors count monitor-side sessions
	// that ended on anything but a clean EOF.
	cReconnects = obs.NewCounter("jaal_transport_reconnects_total",
		"successful redials (re-handshaken, for a monitor) after a lost connection")
	cDeadlineMisses = obs.NewCounter("jaal_transport_deadline_misses_total",
		"wire client attempts (handshake or exchange) aborted by an I/O deadline")
	cDecodeRejects = obs.NewCounter("jaal_transport_decode_rejects_total",
		"summary frames refused at decode: a summary, sketch digest or trace trailer that broke its codec's invariants")
	cServeErrors = obs.NewCounter("jaal_transport_serve_errors_total",
		"monitor-side serve sessions ended by a non-EOF error")
	cEpochDegraded = obs.NewCounter("jaal_epoch_degraded_total",
		"epochs processed without summaries from at least one unreachable monitor")

	// Alert sink delivery (the MsgAlert consumer).
	cAlertsDelivered = obs.NewCounter("jaal_alerts_delivered_total",
		"alert frames received and consumed by an AlertSink")

	// Pipeline epoch stages.
	hCollectSeconds = obs.NewHistogram("jaal_pipeline_collect_seconds",
		"wall time of one monitor's summary collection during RunEpoch", obs.DurationBuckets())
	hRunEpochSeconds = obs.NewHistogram("jaal_pipeline_epoch_seconds",
		"wall time of one full RunEpoch (collect fan-out + inference)", obs.DurationBuckets())
	hRawFetchSeconds = obs.NewHistogram("jaal_feedback_fetch_seconds",
		"wall time of one feedback-loop raw-packet fetch (memo misses only)", obs.DurationBuckets())
)

// countVerdict tallies one feedback verdict per §5.3 case.
func countVerdict(v inference.Verdict) {
	switch v {
	case inference.VerdictAlert:
		cVerdictAlert.Inc()
	case inference.VerdictClear:
		cVerdictClear.Inc()
	case inference.VerdictUncertain:
		cVerdictUncertain.Inc()
	default:
		cVerdictAnomalous.Inc()
	}
}
