// Package core is Jaal's public API: it wires the summarization module
// (monitors), the analysis-and-inference module (controller), and the
// flow-assignment module into a deployable system, both in-process (for
// experiments and tests) and over TCP using the wire protocol (§7).
package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/packet"
	"repro/internal/sketch"
	"repro/internal/summary"
	"repro/internal/trace"
)

// Monitor is one in-network monitoring point: it ingests the packet
// headers of flows assigned to it, buffers them into batches, summarizes
// sealed batches, and retains raw packets for one epoch so the
// controller's feedback loop can fetch them (§4, §7).
//
// Monitor is safe for concurrent use: packet ingestion and controller
// requests may arrive on different goroutines. Two locks split the
// state so the heavy compute never blocks ingestion: mu guards the
// cheap bookkeeping (buffer, ready queue, load counter) and is held
// only for O(1) work, while szrMu serializes the summarizer (which owns
// the k-means RNG). A batch is snapshotted under mu, summarized holding
// only szrMu — so Ingest on other goroutines proceeds during the
// SVD+k-means — and the result is published back under mu.
type Monitor struct {
	id int

	// mu guards buf, ready, load and ing. The SVD+k-means compute is
	// never performed while holding it.
	mu    sync.Mutex
	buf   *summary.Buffer
	ready []*summary.Summary
	// load tracks packets ingested in the current load window,
	// answering the flow-assignment module's load queries.
	load int
	// ing is the optional sketch pass in front of the batch slab
	// (AMON-style overload shedding + volumetric digest). Nil when the
	// sketch is off, in which case ingest behaves byte-identically to a
	// sketchless monitor.
	ing *sketch.Ingest

	// szrMu serializes use of the summarizer, whose RNG and arena make
	// it single-goroutine.
	szrMu      sync.Mutex
	summarizer *summary.Summarizer
}

// NewMonitorSketch builds a monitor with a sketch pass in front of the
// batch slab. A disabled sketch config (the zero value) yields a plain
// monitor.
func NewMonitorSketch(id int, cfg summary.Config, scfg sketch.Config) (*Monitor, error) {
	szr, err := summary.NewSummarizer(cfg)
	if err != nil {
		return nil, err
	}
	ing, err := sketch.NewIngest(scfg)
	if err != nil {
		return nil, err
	}
	return &Monitor{
		id:         id,
		buf:        summary.NewBuffer(cfg.BatchSize),
		summarizer: szr,
		ing:        ing,
	}, nil
}

// ID returns the monitor's identity.
func (m *Monitor) ID() int { return m.id }

// Ingest feeds one packet header through the monitor. When the header
// seals a batch, the batch is summarized immediately and the summary is
// queued for the next controller poll. The summarization itself runs
// outside mu, so concurrent Ingest calls keep buffering while one
// goroutine computes.
func (m *Monitor) Ingest(h packet.Header) error {
	cIngestPackets.Inc()
	m.mu.Lock()
	m.load++
	if m.ing != nil && !m.ing.Observe(h.SrcIP, h.DstIP, h.Flow().FastHash()) {
		m.buf.NoteShed(1)
		m.mu.Unlock()
		cShedPackets.Inc()
		return nil
	}
	batch, ok := m.buf.Add(h)
	m.mu.Unlock()
	if !ok {
		return nil
	}
	cBatchesSealed.Inc()
	return m.summarize(batch)
}

// IngestBatch feeds many headers.
func (m *Monitor) IngestBatch(hs []packet.Header) error {
	for _, h := range hs {
		if err := m.Ingest(h); err != nil {
			return err
		}
	}
	return nil
}

// summarize computes the summary of a sealed batch lock-free with
// respect to mu (only szrMu is held during the SVD+k-means), then
// publishes the result — raw-packet retention plus the ready queue —
// under mu. The sealed batch is already snapshotted out of the buffer,
// so concurrent Ingest/Collect operations cannot observe it half-built.
func (m *Monitor) summarize(batch *summary.Batch) error {
	m.szrMu.Lock()
	s, err := m.summarizer.Summarize(batch.Headers, m.id, batch.Epoch)
	m.szrMu.Unlock()
	if err != nil {
		return fmt.Errorf("monitor %d: %w", m.id, err)
	}
	m.mu.Lock()
	m.buf.Retain(batch, s)
	m.ready = append(m.ready, s)
	m.mu.Unlock()
	cSummariesQueued.Inc()
	// The batch's capture window was stamped by the buffer as it filled
	// (zero timestamps when tracing was off); record it as a span now
	// that the batch reached a summary, so the timeline shows fill time
	// next to compute time.
	if batch.FirstNano > 0 && batch.SealedNano >= batch.FirstNano {
		trace.RecordSpan(trace.StageCapture, m.id, batch.Epoch,
			batch.FirstNano, batch.SealedNano-batch.FirstNano)
	}
	return nil
}

// CollectSummaries returns and clears the queued summaries. When the
// buffer holds at least MinBatch unsealed packets, they are flushed and
// summarized too (the controller-initiated poll of §5.1); below MinBatch
// the monitor declines to summarize the partial batch and reports the
// pending count. The flush summarization runs outside mu like every
// other summarization, so a poll does not stall ingestion. It is the first
// half of Poll, which is what an epoch loop calls; on its own it drains a
// monitor without ending its epoch.
func (m *Monitor) CollectSummaries() (ss []*summary.Summary, pending int, err error) {
	minBatch := m.summarizer.Config().MinBatch
	m.mu.Lock()
	var batch *summary.Batch
	if m.buf.Pending() >= minBatch && m.buf.Pending() > 0 {
		batch = m.buf.Flush()
	}
	m.mu.Unlock()
	if batch != nil {
		cBatchesFlushed.Inc()
		if err := m.summarize(batch); err != nil {
			m.mu.Lock()
			pending = m.buf.Pending()
			m.mu.Unlock()
			return nil, pending, err
		}
	}
	m.mu.Lock()
	ss = m.ready
	m.ready = nil
	pending = m.buf.Pending()
	m.mu.Unlock()
	gPendingPackets.Set(int64(pending))
	return ss, pending, nil
}

// RawPackets serves the feedback loop: the raw headers assigned to the
// given centroid in the given epoch, or nil after expiry.
func (m *Monitor) RawPackets(epoch uint64, centroid int) []packet.Header {
	m.mu.Lock()
	hs := m.buf.RawPackets(epoch, centroid)
	m.mu.Unlock()
	cRawServed.Add(int64(len(hs)))
	return hs
}

// Poll is the monitor's half of one controller epoch (§5.1, §7), the same
// for a controller in this process and for one behind a MonitorServer.
// It collects the queued summaries. With summaries to ship it ends the
// monitor's epoch — sketch digest snapshotted (nil when the sketch is off),
// sketches reset, raw-packet retention expired — under one hold of mu, so
// every packet is counted either in the returned digest or in the next
// epoch's whatever Ingest calls race with it, and before it answers,
// because the caller may start the next epoch's traffic the moment it has
// the answer. With nothing to ship the epoch stays open: a decline carries
// no digest, so the sketch keeps counting and retention keeps its clock
// until a poll has summaries to ship them with. A partial batch too small
// to summarize is such a decline, not an error.
func (m *Monitor) Poll(epoch uint64) (ss []*summary.Summary, pending int, digest *sketch.Digest, err error) {
	ss, pending, err = m.CollectSummaries()
	if errors.Is(err, summary.ErrBatchTooSmall) {
		err = nil
	}
	if err != nil || len(ss) == 0 {
		return nil, pending, nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ing != nil {
		digest = m.ing.Digest(m.id, epoch)
		m.ing.Reset()
		cSketchDigests.Inc()
		gSketchFlows.Set(int64(digest.FlowEstimate()))
		if digest.Offered > 0 {
			gSketchShedFraction.Set(float64(digest.Shed) / float64(digest.Offered))
		}
	}
	m.buf.AdvanceEpoch()
	return ss, pending, digest, nil
}

// LoadAndReset returns the packets ingested since the last call — the
// load report the flow-assignment module polls every P seconds.
func (m *Monitor) LoadAndReset() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	l := m.load
	m.load = 0
	return l
}
