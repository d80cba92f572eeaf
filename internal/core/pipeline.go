package core

import (
	"fmt"

	"repro/internal/flowassign"
	"repro/internal/packet"
	"repro/internal/sketch"
	"repro/internal/summary"
	"repro/internal/trace"
)

// Pipeline is the in-process deployment of Jaal used by experiments and
// examples: M monitors, one controller, and a flow-assignment module
// routing each flow to exactly one monitor in its monitor group.
type Pipeline struct {
	Monitors   []*Monitor
	Controller *Controller
	Assigner   *flowassign.Assigner

	// engine is the epoch loop over Monitors.
	engine *Engine
	// flowToMonitor caches placements so subsequent packets of a flow
	// go to the same monitor. Monitor i has ID i, so an assigned
	// monitor ID is its index in Monitors.
	flowToMonitor map[packet.FlowKey]int
}

// PipelineConfig assembles a pipeline.
type PipelineConfig struct {
	// NumMonitors is M.
	NumMonitors int
	// Summary is each monitor's summarization config.
	Summary summary.Config
	// Sketch arms the per-monitor sketch pass (heavy-hitter shedding +
	// volumetric digests). The zero value keeps it off, in which case
	// the pipeline is byte-identical to a sketchless build.
	Sketch sketch.Config
	// Controller configures the inference engine.
	Controller ControllerConfig
	// Workers is Engine.Workers: how many monitors RunEpoch polls
	// concurrently.
	Workers int
}

// NewPipeline builds and wires the system.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) {
	if cfg.NumMonitors < 1 {
		return nil, fmt.Errorf("core: need at least one monitor")
	}
	ctrl, err := NewController(cfg.Controller)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		Controller:    ctrl,
		engine:        &Engine{Controller: ctrl, Workers: cfg.Workers},
		flowToMonitor: make(map[packet.FlowKey]int),
	}
	var allIDs []flowassign.MonitorID
	for i := 0; i < cfg.NumMonitors; i++ {
		mcfg := cfg.Summary
		mcfg.Seed = cfg.Summary.Seed + int64(i) // decorrelate k-means seeds
		m, err := NewMonitorSketch(i, mcfg, cfg.Sketch)
		if err != nil {
			return nil, err
		}
		p.Monitors = append(p.Monitors, m)
		p.engine.Endpoints = append(p.engine.Endpoints, localEndpoint{m})
		ctrl.RegisterSource(i, m)
		allIDs = append(allIDs, flowassign.MonitorID(i))
	}
	groups := flowassign.NewGroupTable()
	if err := groups.Define(allGroup, allIDs); err != nil {
		return nil, err
	}
	p.Assigner = flowassign.NewAssigner(flowassign.NewGreedy(), groups)
	return p, nil
}

// allGroup is the pipeline's one flow group: every monitor can see
// every flow, which suits the single-site deployment it models.
const allGroup flowassign.GroupKey = "all"

// Ingest routes one packet to its flow's monitor, assigning new flows
// greedily (§6).
func (p *Pipeline) Ingest(h packet.Header) error {
	key := h.Flow()
	idx, ok := p.flowToMonitor[key]
	if !ok {
		mid, err := p.Assigner.Assign(flowassign.FlowID(key.FastHash()), allGroup, 1)
		if err != nil {
			return err
		}
		idx = int(mid)
		p.flowToMonitor[key] = idx
	}
	return p.Monitors[idx].Ingest(h)
}

// IngestBatch routes many packets.
func (p *Pipeline) IngestBatch(hs []packet.Header) error {
	for _, h := range hs {
		if err := p.Ingest(h); err != nil {
			return err
		}
	}
	return nil
}

// RunEpoch runs one epoch of the engine over the pipeline's monitors
// (Engine.RunEpoch).
func (p *Pipeline) RunEpoch() (EpochResult, error) {
	return p.engine.RunEpoch()
}

// localEndpoint is a Monitor polled from its own process. It adds what
// the wire gives a remote one: the controller-side collect span and the
// monitor's staged spans (capture, summarize) joining the epoch —
// stamped on the same clock, so no offset normalization.
type localEndpoint struct {
	*Monitor
}

func (l localEndpoint) Poll(epoch uint64) ([]*summary.Summary, int, *sketch.Digest, error) {
	sp := trace.StartSpan(hCollectSeconds, trace.StageCollect, l.ID(), epoch)
	ss, pending, digest, err := l.Monitor.Poll(epoch)
	sp.End()
	trace.AdoptMonitorSpans(epoch, l.ID())
	return ss, pending, digest, err
}
