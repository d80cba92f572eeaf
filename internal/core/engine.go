package core

import (
	"repro/internal/inference"
	"repro/internal/par"
	"repro/internal/sketch"
	"repro/internal/summary"
	"repro/internal/trace"
)

// Endpoint is one monitor as the epoch loop sees it: *Monitor in this
// process, *RemoteMonitor over the wire. Poll collects the monitor's
// summaries for the controller's epoch and, when there are any, ends the
// monitor's own epoch before it returns (Monitor.Poll has the contract);
// an endpoint with nothing to ship returns none, and one that cannot be
// reached returns the error.
type Endpoint interface {
	ID() int
	Poll(epoch uint64) (ss []*summary.Summary, pending int, digest *sketch.Digest, err error)
}

// MonitorDecline records a monitor that contributed no summaries to an
// epoch — either a genuine protocol decline (buffer below n_min, §5.1)
// or a failed poll (over the wire: a transport failure that exhausted
// the retry budget). The epoch proceeds either way: partial data loss is
// the steady state of an ISP-scale deployment, not an exception.
type MonitorDecline struct {
	// MonitorID identifies the monitor.
	MonitorID int
	// Epoch is the poll's epoch number.
	Epoch uint64
	// Pending is the monitor's reported buffered-packet count (zero for
	// a failed poll).
	Pending int
	// Err is the poll's error; nil for a protocol decline.
	Err error
}

// Unreachable reports whether the decline stands for a failed poll
// rather than a protocol decline.
func (d MonitorDecline) Unreachable() bool { return d.Err != nil }

// PollResult is one epoch's poll outcome.
type PollResult struct {
	// Summaries holds every summary that arrived, joined in endpoint
	// order.
	Summaries []*summary.Summary
	// Digests holds the sketch digests of monitors running the sketch
	// pass, joined in endpoint order (absent monitors contribute none).
	Digests []*sketch.Digest
	// Declines records the monitors that contributed no summaries,
	// protocol declines and failures both.
	Declines []MonitorDecline
	// Degraded reports whether at least one monitor failed its poll
	// (over the wire: was unreachable after retries).
	Degraded bool
}

// pollAll is one epoch's summary collection: every endpoint polled
// concurrently (a remote one under its handle's retry/timeout/backoff
// policy), the arrived summaries joined in endpoint order — so same
// inputs yield byte-identical epochs for every worker count — and the
// endpoints that contributed nothing recorded as declines instead of
// failing the epoch. It never fails. A poll in which at least one
// endpoint returned an error is a degraded epoch: it increments
// jaal_epoch_degraded_total and sets Degraded, but still returns
// everything that arrived. That is the graceful-degradation contract the
// chaos suite pins down: lost monitors cost coverage, never liveness.
func pollAll(eps []Endpoint, workers int, epoch uint64) PollResult {
	perMon := make([][]*summary.Summary, len(eps))
	pending := make([]int, len(eps))
	digests := make([]*sketch.Digest, len(eps))
	errs := make([]error, len(eps))
	par.For(len(eps), workers, func(i int) {
		perMon[i], pending[i], digests[i], errs[i] = eps[i].Poll(epoch)
	})

	var res PollResult
	for i, ep := range eps {
		switch {
		case errs[i] != nil:
			res.Declines = append(res.Declines, MonitorDecline{
				MonitorID: ep.ID(), Epoch: epoch, Err: errs[i]})
			res.Degraded = true
		case len(perMon[i]) == 0:
			res.Declines = append(res.Declines, MonitorDecline{
				MonitorID: ep.ID(), Epoch: epoch, Pending: pending[i]})
		default:
			res.Summaries = append(res.Summaries, perMon[i]...)
		}
		if digests[i] != nil {
			res.Digests = append(res.Digests, digests[i])
		}
	}
	if res.Degraded {
		cEpochDegraded.Inc()
	}
	return res
}

// Poller polls a set of remote monitors without running the rest of the
// epoch. The deployment benchmark builds one, because it times the poll
// and each controller step apart; everything else runs Engine.RunEpoch.
type Poller struct {
	// Remotes are the monitor handles, in join order.
	Remotes []*RemoteMonitor
	// Workers bounds the poll fan-out (0 = GOMAXPROCS).
	Workers int
}

// Poll runs one epoch's summary collection (see pollAll).
func (p *Poller) Poll(epoch uint64) PollResult {
	eps := make([]Endpoint, len(p.Remotes))
	for i, rm := range p.Remotes {
		eps[i] = rm
	}
	return pollAll(eps, p.Workers, epoch)
}

// Engine is Jaal's epoch loop, the 2-second controller tick of §7: poll
// every monitor, merge their sketch digests, run one inference round,
// seal the epoch's trace. The in-process Pipeline and the wire
// deployment (cmd/jaal-controller) differ only in what Endpoints holds.
type Engine struct {
	Controller *Controller
	// Endpoints are the monitors, in join order.
	Endpoints []Endpoint
	// Workers bounds the poll fan-out (0 = GOMAXPROCS, 1 = sequential).
	// Summaries are joined in endpoint order, so every worker count yields
	// identical epochs for the same seed and traffic.
	Workers int
}

// EpochResult is what one epoch produced.
type EpochResult struct {
	// Epoch is the controller epoch the round ran as.
	Epoch uint64
	PollResult
	// Volumetric is the epoch's merged sketch-digest report, nil when no
	// digest arrived.
	Volumetric *VolumetricReport
	// Alerts are the alerts the inference round raised.
	Alerts []*inference.Alert
	// Trace is the epoch's sealed timeline (what /trace serves), nil
	// while tracing is off. Output only: nothing in the epoch reads it.
	Trace *trace.EpochTrace
}

// RunEpoch runs one epoch. A monitor that fails its poll degrades the
// epoch, it does not abort it: inference runs on whatever arrived. By the
// time inference runs every monitor that shipped summaries has ended its
// own epoch; the feedback loop's raw fetches still find their batches,
// because a monitor retains a batch until the second epoch end after it
// was sealed. An inference error is returned with the poll's outcome, and
// the epoch's trace is sealed on that path too.
func (e *Engine) RunEpoch() (EpochResult, error) {
	res := EpochResult{Epoch: e.Controller.Epoch()}
	epochSpan := trace.StartSpan(hRunEpochSeconds, trace.StageEpoch, trace.ControllerProc, res.Epoch)
	res.PollResult = pollAll(e.Endpoints, e.Workers, res.Epoch)
	// The digests are a read-only side channel: alerts are identical with
	// the sketch on or off as long as nothing was shed.
	res.Volumetric = e.Controller.ObserveDigests(res.Epoch, res.Digests)
	alerts, err := e.Controller.ProcessEpoch(res.Summaries)
	res.Alerts = alerts
	epochSpan.End()
	// Seal the epoch's timeline: every span staged for this epoch — the
	// controller's own plus the monitors' adopted or wire-shipped ones —
	// is assembled, the critical path computed, and the trace ringed.
	res.Trace = trace.FinishEpoch(res.Epoch, len(alerts))
	return res, err
}
