// Package netsim is a discrete-time network simulator for the evaluation
// scenarios that need a dataplane: it models routers with finite link
// capacity, traffic forwarding along shortest paths, replication of
// traversing traffic toward a central analysis engine, and the resulting
// congestion losses.
//
// It exists to reproduce Fig. 7: when monitors copy raw packets to a
// central engine, the copied traffic competes with normal traffic for
// link capacity (throughput collapse) and overloads the engine (packet
// loss → missed detections). The simulator operates at per-tick packet
// aggregates rather than individual packet events; that is sufficient
// because Fig. 7's quantities — throughput and delivered fraction — are
// rates.
package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/obs"
	"repro/internal/topology"
)

// sortedNodes returns the load map's keys in ascending order — the
// deterministic walk order for the float accumulations below.
func sortedNodes(m map[topology.NodeID]float64) []topology.NodeID {
	nodes := make([]topology.NodeID, 0, len(m))
	for n := range m {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	return nodes
}

// Simulation observability: per-run link-utilization distribution and
// the headline loss gauges. Gauges reflect the most recent Run — the
// live per-tick view when the simulator drives a long scenario —
// while the counters and histogram accumulate across runs.
var (
	cRuns = obs.NewCounter("jaal_netsim_runs_total",
		"steady-state simulation runs executed")
	cDemands = obs.NewCounter("jaal_netsim_demands_total",
		"traffic demands routed across all runs")
	hLinkUtil = obs.NewHistogram("jaal_netsim_link_utilization",
		"per-link offered/capacity ratio, observed once per loaded link per run",
		[]float64{0.1, 0.25, 0.5, 0.75, 0.9, 1, 1.25, 1.5, 2, 4, 8})
	gWorstUtil = obs.NewGauge("jaal_netsim_worst_link_utilization",
		"max offered/capacity over links in the last run")
	gThroughputLoss = obs.NewGauge("jaal_netsim_throughput_loss_fraction",
		"switch-centric normal-traffic throughput loss of the last run (Fig. 7a)")
	gAccuracyLoss = obs.NewGauge("jaal_netsim_accuracy_loss_fraction",
		"replicated attack traffic lost before processing in the last run (Fig. 7b)")
)

// Config sizes a simulation.
type Config struct {
	// Topology is the router graph.
	Topology *topology.Topology
	// LinkCapacity is packets per tick a link can carry.
	LinkCapacity float64
	// RouterCapacity is packets per tick a router can process. Copied
	// traffic consumes router capacity exactly like normal traffic,
	// which is how replication "takes a hit when it processes the
	// copied traffic" (§8): a router past capacity drops
	// proportionally. Zero disables router limits.
	RouterCapacity float64
	// EngineCapacity is packets per tick the central analysis engine
	// can process before it starts dropping (DPI engines fall over past
	// ~20 Gbps, §2).
	EngineCapacity float64
	// EngineNode is where the central engine attaches.
	EngineNode topology.NodeID
	// Monitors are the tap locations.
	Monitors []topology.NodeID
	// ReplicationFraction is the share of traversing traffic each
	// monitor copies toward the engine (the X axis of Fig. 7).
	ReplicationFraction float64
	// DedupReplication, when true, copies each flow only at the first
	// monitor on its path (Jaal's exactly-once monitoring, §6). The
	// vanilla raw-copy baseline of Fig. 7 leaves it false: every
	// monitor a flow traverses copies it, which is precisely the
	// duplicate-monitoring waste the flow-assignment module eliminates.
	DedupReplication bool
	// SubstrateCapacity models the shared physical substrate the
	// paper's 370 virtual switches run on (5 servers): the aggregate
	// packets per tick the substrate can process across all routers.
	// Past it, all processing degrades proportionally. Zero disables
	// the substrate limit.
	SubstrateCapacity float64
	// CollapseExponent γ sharpens overload behaviour: the substrate
	// processing factor is (capacity/work)^γ. γ = 1 is proportional
	// (fluid) loss; γ = 2 models the non-graceful failure the paper
	// observes for DPI pipelines past saturation (§2: >50 % loss past
	// 20 Gbps) — queue overflow plus retransmission amplification.
	// Zero or negative defaults to 1.
	CollapseExponent float64
	// Seed randomizes flow endpoints. Every Simulator owns a private
	// rand.New(rand.NewSource(Seed)) — the package never touches the
	// global math/rand state — so concurrent simulations with equal
	// seeds are reproducible and race-free.
	Seed int64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Topology == nil:
		return fmt.Errorf("netsim: nil topology")
	case c.LinkCapacity <= 0:
		return fmt.Errorf("netsim: link capacity must be positive")
	case c.EngineCapacity <= 0:
		return fmt.Errorf("netsim: engine capacity must be positive")
	case c.ReplicationFraction < 0 || c.ReplicationFraction > 1:
		return fmt.Errorf("netsim: replication fraction %v outside [0,1]", c.ReplicationFraction)
	case int(c.EngineNode) < 0 || int(c.EngineNode) >= c.Topology.NumNodes():
		return fmt.Errorf("netsim: engine node %d out of range", c.EngineNode)
	}
	return nil
}

// Survival returns the fraction of offered traffic that survives a
// resource of the given capacity under the simulator's proportional
// (fluid) loss model: 1 while the offer fits, capacity/offered past
// saturation. Run applies it per hop to links and routers; it is
// exported so fault-injection presets (internal/faultnet) derive their
// frame-loss probabilities from the same loss model the evaluation
// scenarios use.
func Survival(offered, capacity float64) float64 {
	if capacity <= 0 || offered <= capacity {
		return 1
	}
	return capacity / offered
}

// Demand is one aggregate traffic demand between two gateways.
type Demand struct {
	Src, Dst topology.NodeID
	// Rate is offered packets per tick.
	Rate float64
	// AttackRate is the attack-labeled share of Rate.
	AttackRate float64
}

// Result summarizes a simulation run.
type Result struct {
	// OfferedRate is the total normal traffic offered per tick.
	OfferedRate float64
	// DeliveredRate is the normal traffic delivered per tick after
	// congestion drops.
	DeliveredRate float64
	// ReplicatedRate is the copied traffic offered toward the engine.
	ReplicatedRate float64
	// EngineReceivedRate is replicated traffic that survived transit.
	EngineReceivedRate float64
	// EngineProcessedRate is what the engine could actually process.
	EngineProcessedRate float64
	// AttackOfferedRate / AttackReplicatedRate / AttackProcessedRate
	// track the attack subset, from which detection-accuracy loss
	// follows: replicated attack packets dropped before or at the
	// engine are invisible to it.
	AttackOfferedRate    float64
	AttackReplicatedRate float64
	AttackProcessedRate  float64
	// WorstLinkUtilization is max over links of offered/capacity.
	WorstLinkUtilization float64
	// NormalSwitchWork is Σ over routers of the normal traffic each
	// would process uncongested; NormalSwitchWorkDone is the same after
	// capacity contention with copied traffic.
	NormalSwitchWork     float64
	NormalSwitchWorkDone float64
}

// ThroughputLossFraction returns the Fig. 7a Y axis: the paper defines
// network throughput as "the average rate at which normal traffic is
// processed at each switch (this takes a hit when it processes the
// copied traffic)". The loss is the traffic-weighted average, over
// switches, of the normal-traffic processing reduction caused by copied
// traffic competing for switch capacity.
func (r *Result) ThroughputLossFraction() float64 {
	if r.NormalSwitchWork == 0 {
		return 0
	}
	return 1 - r.NormalSwitchWorkDone/r.NormalSwitchWork
}

// AccuracyLossFraction returns the fraction of the *replicated* attack
// traffic lost before processing — Fig. 7b's detection-accuracy loss,
// which the paper attributes to packet losses from congestion and engine
// overload ("this loss is a direct artifact of missing attacks because
// of packet losses"). It is measured relative to lossless delivery of
// the replicated stream, so 0 % replication gives 0 loss and full
// replication with a saturated core gives the paper's ≈75 %.
func (r *Result) AccuracyLossFraction() float64 {
	if r.AttackReplicatedRate == 0 {
		return 0
	}
	return 1 - r.AttackProcessedRate/r.AttackReplicatedRate
}

// Simulator runs steady-state load analysis over a topology.
type Simulator struct {
	cfg Config
	rng *rand.Rand
	// linkLoad accumulates offered packets per tick per directed link.
	linkLoad map[[2]topology.NodeID]float64
	// routerLoad accumulates packets per tick each router processes
	// (normal + copied); normalRouterLoad holds the normal share.
	routerLoad       map[topology.NodeID]float64
	normalRouterLoad map[topology.NodeID]float64
	monitors         map[topology.NodeID]bool
}

// New builds a Simulator.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:              cfg,
		rng:              rand.New(rand.NewSource(cfg.Seed)),
		linkLoad:         make(map[[2]topology.NodeID]float64),
		routerLoad:       make(map[topology.NodeID]float64),
		normalRouterLoad: make(map[topology.NodeID]float64),
		monitors:         make(map[topology.NodeID]bool, len(cfg.Monitors)),
	}
	for _, m := range cfg.Monitors {
		s.monitors[m] = true
	}
	return s, nil
}

// RandomDemands draws n gateway-to-gateway demands with the given total
// offered rate, attack share included.
func (s *Simulator) RandomDemands(n int, totalRate, attackShare float64) []Demand {
	gws := s.cfg.Topology.Gateways()
	if len(gws) < 2 {
		panic("netsim: topology has fewer than 2 gateways")
	}
	per := totalRate / float64(n)
	out := make([]Demand, 0, n)
	for i := 0; i < n; i++ {
		src := gws[s.rng.Intn(len(gws))]
		dst := gws[s.rng.Intn(len(gws))]
		for dst == src {
			dst = gws[s.rng.Intn(len(gws))]
		}
		out = append(out, Demand{Src: src, Dst: dst, Rate: per, AttackRate: per * attackShare})
	}
	return out
}

// Run computes the steady state for a demand set: all demands follow
// shortest paths; monitors on a demand's path replicate the configured
// fraction of its traffic along the shortest path to the engine; links
// drop proportionally when oversubscribed; the engine drops past its
// capacity.
func (s *Simulator) Run(demands []Demand) (*Result, error) {
	clear(s.linkLoad)
	clear(s.routerLoad)
	clear(s.normalRouterLoad)
	cRuns.Inc()
	cDemands.Add(int64(len(demands)))
	res := &Result{}

	type replication struct {
		from topology.NodeID
		rate float64
		// attackRate is the attack share inside the copied stream.
		attackRate float64
	}
	var reps []replication

	type routedDemand struct {
		d    Demand
		path []topology.NodeID
	}
	routed := make([]routedDemand, 0, len(demands))

	// Pass 1: route demands, accumulate link loads, and collect
	// replication streams at the first monitor on each path (flows are
	// monitored exactly once, §6).
	for _, d := range demands {
		path, err := s.cfg.Topology.ShortestPath(d.Src, d.Dst)
		if err != nil {
			return nil, fmt.Errorf("netsim: demand %d→%d: %w", d.Src, d.Dst, err)
		}
		routed = append(routed, routedDemand{d: d, path: path})
		res.OfferedRate += d.Rate
		res.AttackOfferedRate += d.AttackRate
		for i := 1; i < len(path); i++ {
			s.linkLoad[[2]topology.NodeID{path[i-1], path[i]}] += d.Rate
		}
		for _, node := range path {
			s.routerLoad[node] += d.Rate
			s.normalRouterLoad[node] += d.Rate
		}
		if s.cfg.ReplicationFraction > 0 {
			mons := topology.MonitorsOnPath(path, s.monitors)
			if s.cfg.DedupReplication && len(mons) > 1 {
				mons = mons[:1]
			}
			for _, mon := range mons {
				reps = append(reps, replication{
					from:       mon,
					rate:       d.Rate * s.cfg.ReplicationFraction,
					attackRate: d.AttackRate * s.cfg.ReplicationFraction,
				})
			}
		}
	}

	// Pass 2: replication streams load the links toward the engine.
	repPaths := make([][]topology.NodeID, len(reps))
	for i, rep := range reps {
		path, err := s.cfg.Topology.ShortestPath(rep.from, s.cfg.EngineNode)
		if err != nil {
			return nil, fmt.Errorf("netsim: replication %d→engine: %w", rep.from, err)
		}
		repPaths[i] = path
		res.ReplicatedRate += rep.rate
		res.AttackReplicatedRate += rep.attackRate
		for j := 1; j < len(path); j++ {
			s.linkLoad[[2]topology.NodeID{path[j-1], path[j]}] += rep.rate
		}
		for _, node := range path {
			s.routerLoad[node] += rep.rate
		}
	}

	// Shared-substrate contention: when the aggregate processing work
	// (normal + copied, across all routers) exceeds the substrate
	// capacity, every stream degrades proportionally.
	substrateFactor := 1.0
	if s.cfg.SubstrateCapacity > 0 {
		// Sorted-key walk (mapiter): float addition is not associative,
		// so a map-order sum would make the contention factor — and the
		// whole run — vary across executions.
		var totalWork float64
		for _, node := range sortedNodes(s.routerLoad) {
			totalWork += s.routerLoad[node]
		}
		if totalWork > s.cfg.SubstrateCapacity {
			substrateFactor = s.cfg.SubstrateCapacity / totalWork
			if gamma := s.cfg.CollapseExponent; gamma > 1 {
				substrateFactor = math.Pow(substrateFactor, gamma)
			}
		}
	}

	// Pass 3: per-hop survival probability = min(1, capacity/offered)
	// for both links and router processing; a flow's delivery
	// probability is the product along its path (drop-tail approximated
	// as proportional loss).
	survival := func(path []topology.NodeID) float64 {
		p := 1.0
		for i := 1; i < len(path); i++ {
			load := s.linkLoad[[2]topology.NodeID{path[i-1], path[i]}]
			p *= Survival(load, s.cfg.LinkCapacity)
			if u := load / s.cfg.LinkCapacity; u > res.WorstLinkUtilization {
				res.WorstLinkUtilization = u
			}
		}
		if s.cfg.RouterCapacity > 0 {
			for _, node := range path {
				p *= Survival(s.routerLoad[node], s.cfg.RouterCapacity)
			}
		}
		return p * substrateFactor
	}

	for _, rd := range routed {
		res.DeliveredRate += float64(rd.d.Rate * survival(rd.path))
	}

	// Switch-centric throughput accounting (the paper's Fig. 7a metric).
	// Sorted-key walk (mapiter): both accumulators are float sums, so
	// map-order iteration would leak the runtime's randomized order
	// into the reported throughput.
	for _, node := range sortedNodes(s.normalRouterLoad) {
		normal := s.normalRouterLoad[node]
		res.NormalSwitchWork += normal
		factor := substrateFactor
		if s.cfg.RouterCapacity > 0 {
			factor *= Survival(s.routerLoad[node], s.cfg.RouterCapacity)
		}
		res.NormalSwitchWorkDone += float64(normal * factor)
	}
	var engineAttack float64
	for i, rep := range reps {
		surv := survival(repPaths[i])
		res.EngineReceivedRate += float64(rep.rate * surv)
		engineAttack += float64(rep.attackRate * surv)
	}

	// Engine drop: proportional past capacity.
	attackFrac := Survival(res.EngineReceivedRate, s.cfg.EngineCapacity)
	res.EngineProcessedRate = res.EngineReceivedRate * attackFrac
	res.AttackProcessedRate = engineAttack * attackFrac
	// Attack traffic that was never replicated is also invisible: scale
	// by the replication fraction itself.
	// (AttackProcessedRate already reflects that: engineAttack only
	// contains the replicated share.)

	if obs.Enabled() {
		//jaalvet:ignore mapiter — feeds only a histogram, whose bucket counts are order-independent; metrics never reach simulation outputs
		for _, load := range s.linkLoad {
			hLinkUtil.Observe(load / s.cfg.LinkCapacity)
		}
		gWorstUtil.Set(res.WorstLinkUtilization)
		gThroughputLoss.Set(res.ThroughputLossFraction())
		gAccuracyLoss.Set(res.AccuracyLossFraction())
	}
	return res, nil
}
