package trace

import (
	"time"

	"repro/internal/obs"
)

// Span flags: which consumers were armed when the span started. A span
// records only into the consumers that were enabled at Start — the
// obs/trace gates are not re-read at End, so a mid-span toggle cannot
// produce a half-recorded stage.
const (
	spanHist   uint8 = 1 << iota // observe seconds into the histogram
	spanTrace                    // record a SpanRecord
	spanStaged                   // monitor-side: stage for ship/adoption
)

// Span times one pipeline stage into up to two consumers from one
// instrumentation point: the obs histogram (aggregate view) and the
// active epoch trace (timeline view, which /trace, -trace-out and the
// controller's epoch log all read). It subsumes the old obs.Span. It is
// a value type: with both consumers disabled, Start* returns a zero
// Span and the whole construct costs two atomic loads and no
// allocation (BenchmarkTraceDisabled).
//
// Usage:
//
//	defer trace.StartSpan(hEpochSeconds, trace.StageInfer, trace.ControllerProc, epoch).End()
type Span struct {
	start   time.Time
	h       *obs.Histogram
	seq     uint64
	monitor int32
	stage   Stage
	flags   uint8
}

// StartSpan begins timing a controller-side stage: the finished span
// joins epoch seq's assembly (FinishEpoch seals it). h may be nil for
// stages without an aggregate histogram; monitor is the monitor the
// stage concerns, or ControllerProc.
func StartSpan(h *obs.Histogram, st Stage, monitor int, seq uint64) Span {
	return startSpan(false, h, st, monitor, seq)
}

// StartMonitorSpan begins timing a monitor-side stage: the finished
// span is staged under monitorID until a poll hands it over
// (TakeContext), over the wire or in process. seq is the
// monitor's batch sequence number, or the polled epoch for poll-scoped
// stages.
func StartMonitorSpan(h *obs.Histogram, st Stage, monitorID int, seq uint64) Span {
	return startSpan(true, h, st, monitorID, seq)
}

func startSpan(staged bool, h *obs.Histogram, st Stage, monitor int, seq uint64) Span {
	var fl uint8
	if h != nil && obs.Enabled() {
		fl |= spanHist
	}
	if on.Load() {
		fl |= spanTrace
		if staged {
			fl |= spanStaged
		}
	}
	if fl == 0 {
		return Span{}
	}
	return Span{
		start:   time.Now(),
		h:       h,
		seq:     seq,
		monitor: int32(monitor),
		stage:   st,
		flags:   fl,
	}
}

// End stops the span and records it into every consumer armed at
// Start. An inert (zero) span records nothing.
func (s Span) End() {
	if s.flags == 0 {
		return
	}
	d := time.Since(s.start)
	if s.flags&spanHist != 0 {
		s.h.Observe(d.Seconds())
	}
	if s.flags&spanTrace != 0 {
		rec := SpanRecord{
			Stage:   s.stage,
			Monitor: s.monitor,
			Seq:     s.seq,
			Start:   s.start.UnixNano(),
			Dur:     int64(d),
		}
		if s.flags&spanStaged != 0 {
			rec.Proc = s.monitor
			col.stageMonitor(rec)
		} else {
			rec.Proc = ControllerProc
			col.stageEpoch(s.seq, rec)
		}
	}
}
