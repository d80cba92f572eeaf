// Positive spanend fixture: span constructors whose results never
// reach End(), alongside every accepted ending/escape form.
package spanfix

import (
	"repro/internal/obs"
	"repro/internal/trace"
)

var h = obs.NewHistogram("spanfix_seconds", "fixture", nil)

// A discarded result can never End.
func discarded(epoch uint64) {
	trace.StartSpan(h, trace.StageInfer, trace.ControllerProc, epoch) // want `result of trace\.StartSpan discarded`
}

// Blank assignment is a discard with extra steps.
func blank(epoch uint64) {
	_ = trace.StartMonitorSpan(nil, trace.StageSummarize, 0, epoch) // want `result of trace\.StartMonitorSpan assigned to _`
}

// A local that is only blank-read later still never Ends.
func neverEnded(epoch uint64) int {
	sp := trace.StartSpan(h, trace.StageInfer, trace.ControllerProc, epoch) // want `span sp is started but never Ends`
	n := 1 + 1
	_ = sp
	return n
}

// The canonical chained form.
func chained(epoch uint64) {
	defer trace.StartSpan(h, trace.StageInfer, trace.ControllerProc, epoch).End()
}

// Bind, work, End — including an End inside a closure.
func boundAndEnded(epoch uint64) {
	sp := trace.StartSpan(nil, trace.StageCollect, 0, epoch)
	sp.End()
	sp2 := trace.StartMonitorSpan(nil, trace.StageEncode, 1, epoch)
	func() { sp2.End() }()
}

// End via defer on the variable.
func deferEnded(epoch uint64) {
	sp := trace.StartSpan(nil, trace.StageShip, 2, epoch)
	defer sp.End()
}

// Escaping results move the End obligation to the consumer.
func escapes(epoch uint64) trace.Span {
	sp := trace.StartSpan(nil, trace.StageDecode, 3, epoch)
	consume(sp)
	return trace.StartSpan(nil, trace.StageInfer, trace.ControllerProc, epoch)
}

func consume(sp trace.Span) { sp.End() }

// A reviewed exception is silenced with the convention.
func suppressed(epoch uint64) {
	//jaalvet:ignore spanend — fixture: process exits before End could run
	trace.StartSpan(h, trace.StageInfer, trace.ControllerProc, epoch)
}
