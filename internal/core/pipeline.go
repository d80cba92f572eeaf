package core

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sketch"
	"repro/internal/summary"
	"repro/internal/trace"
)

// Pipeline is the in-process deployment of Jaal used by experiments and
// examples: M monitors and one controller run by the epoch engine, every
// flow on exactly one monitor (§6). Its one flow group holds every
// monitor at weight 1 and no flow retires, so §6's greedy (least-loaded,
// ties to the lower ID) puts the n-th new flow on monitor n mod M; the
// pipeline does that directly (TestPipelinePlacesFlowsLikeGreedy). The
// greedy itself runs where groups and weights differ: Fig. 9 and
// examples/flowbalance.
type Pipeline struct {
	// Engine is the epoch loop over Monitors.
	Engine
	Monitors []*Monitor

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
		Engine:        Engine{Controller: ctrl, Workers: cfg.Workers},
		flowToMonitor: make(map[packet.FlowKey]int),
	}
	for i := 0; i < cfg.NumMonitors; i++ {
		mcfg := cfg.Summary
		mcfg.Seed = cfg.Summary.Seed + int64(i) // decorrelate k-means seeds
		m, err := NewMonitorSketch(i, mcfg, cfg.Sketch)
		if err != nil {
			return nil, err
		}
		p.Monitors = append(p.Monitors, m)
		p.Endpoints = append(p.Endpoints, localEndpoint{m})
		ctrl.RegisterSource(i, m)
	}
	return p, nil
}

// Ingest routes one packet to its flow's monitor, placing a new flow on
// the next monitor in ID order (greedy's choice for the one group).
func (p *Pipeline) Ingest(h packet.Header) error {
	key := h.Flow()
	idx, ok := p.flowToMonitor[key]
	if !ok {
		idx = len(p.flowToMonitor) % len(p.Monitors)
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

// localEndpoint is a Monitor polled from its own process. It adds what
// the wire gives a remote one: the controller-side collect span, and the
// monitor's staged spans (capture, summarize) handed to the epoch as a
// trace Context, the way a MonitorServer ships them. Both sides read the
// same clock, so the Context joins at its own send time: no shift.
type localEndpoint struct {
	*Monitor
}

func (l localEndpoint) Poll(epoch uint64) ([]*summary.Summary, int, *sketch.Digest, error) {
	sp := trace.StartSpan(hCollectSeconds, trace.StageCollect, l.ID(), epoch)
	ss, pending, digest, err := l.Monitor.Poll(epoch)
	sp.End()
	if ctx := trace.TakeContext(l.ID()); ctx != nil {
		trace.AddRemoteContext(epoch, ctx, ctx.SentUnixNano)
	}
	return ss, pending, digest, err
}
