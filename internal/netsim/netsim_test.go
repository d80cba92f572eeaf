package netsim

import (
	"sync"
	"testing"

	"repro/internal/topology"
)

func testTopo(t *testing.T) *topology.Topology {
	t.Helper()
	top, err := topology.Generate(topology.GenerateConfig{Name: "sim", Routers: 80, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func testConfig(t *testing.T, replication float64) Config {
	t.Helper()
	top := testTopo(t)
	mons, err := top.PlaceMonitors(10)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Topology:            top,
		LinkCapacity:        1000,
		RouterCapacity:      1200,
		EngineCapacity:      1500,
		SubstrateCapacity:   12000,
		EngineNode:          mons[0],
		Monitors:            mons,
		ReplicationFraction: replication,
		Seed:                1,
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig(t, 0.5)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.LinkCapacity = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero link capacity must be rejected")
	}
	bad = good
	bad.ReplicationFraction = 1.5
	if err := bad.Validate(); err == nil {
		t.Fatal("replication > 1 must be rejected")
	}
	bad = good
	bad.Topology = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("nil topology must be rejected")
	}
	bad = good
	bad.EngineNode = 9999
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range engine node must be rejected")
	}
}

func TestNoReplicationNoLoss(t *testing.T) {
	sim, err := New(testConfig(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Light load: well under link capacity.
	demands := sim.RandomDemands(20, 500, 0.1)
	res, err := sim.Run(demands)
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputLossFraction() > 0.01 {
		t.Fatalf("unloaded network lost %.1f%% throughput", 100*res.ThroughputLossFraction())
	}
	if res.ReplicatedRate != 0 {
		t.Fatal("no replication configured, but traffic was copied")
	}
}

func TestFullReplicationDegrades(t *testing.T) {
	cfgNone := testConfig(t, 0)
	cfgFull := testConfig(t, 1.0)
	// Load links at ~60 % so replication pushes them past capacity.
	const offered = 6000

	run := func(cfg Config) *Result {
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(sim.RandomDemands(60, offered, 0.1))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(cfgNone)
	full := run(cfgFull)
	if full.ThroughputLossFraction() <= base.ThroughputLossFraction() {
		t.Fatalf("full replication must hurt throughput: base %.3f, full %.3f",
			base.ThroughputLossFraction(), full.ThroughputLossFraction())
	}
	if full.AccuracyLossFraction() <= 0 {
		t.Fatal("overloaded engine must miss attack traffic")
	}
	if full.WorstLinkUtilization <= 1 {
		t.Fatalf("links must be oversubscribed at full replication (util %.2f)", full.WorstLinkUtilization)
	}
}

func TestDegradationMonotoneInReplication(t *testing.T) {
	const offered = 6000
	var prevLoss float64 = -1
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		sim, err := New(testConfig(t, frac))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(sim.RandomDemands(60, offered, 0.1))
		if err != nil {
			t.Fatal(err)
		}
		loss := res.ThroughputLossFraction()
		if loss < prevLoss-1e-9 {
			t.Fatalf("throughput loss must be monotone in replication: %.4f after %.4f", loss, prevLoss)
		}
		prevLoss = loss
	}
}

func TestEngineCapacityBindsAccuracy(t *testing.T) {
	cfg := testConfig(t, 1.0)
	cfg.EngineCapacity = 100 // tiny engine
	cfg.LinkCapacity = 1e9   // links never bind
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.RandomDemands(60, 6000, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if res.EngineProcessedRate > cfg.EngineCapacity+1e-9 {
		t.Fatalf("engine processed %.1f past capacity %.1f", res.EngineProcessedRate, cfg.EngineCapacity)
	}
	if res.AccuracyLossFraction() < 0.5 {
		t.Fatalf("tiny engine must miss most attacks, loss = %.3f", res.AccuracyLossFraction())
	}
}

func TestResultZeroDivision(t *testing.T) {
	r := &Result{}
	if r.ThroughputLossFraction() != 0 || r.AccuracyLossFraction() != 0 {
		t.Fatal("zero rates must yield zero loss")
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := testConfig(t, 0.5)
	run := func() *Result {
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(sim.RandomDemands(40, 4000, 0.1))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.DeliveredRate != b.DeliveredRate || a.EngineProcessedRate != b.EngineProcessedRate {
		t.Fatal("same seed must reproduce results")
	}
}

// TestRunConcurrentSameSeed runs several same-seed simulations in
// parallel: each Simulator owns its RNG, so concurrent runs must be
// race-free and byte-identical to a sequential one.
func TestRunConcurrentSameSeed(t *testing.T) {
	cfg := testConfig(t, 0.5)
	run := func() *Result {
		sim, err := New(cfg)
		if err != nil {
			t.Error(err)
			return nil
		}
		res, err := sim.Run(sim.RandomDemands(40, 4000, 0.1))
		if err != nil {
			t.Error(err)
			return nil
		}
		return res
	}
	want := run()

	const n = 8
	got := make([]*Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = run()
		}(i)
	}
	wg.Wait()
	for i, res := range got {
		if res == nil {
			t.Fatalf("run %d failed", i)
		}
		if res.DeliveredRate != want.DeliveredRate ||
			res.EngineProcessedRate != want.EngineProcessedRate ||
			res.OfferedRate != want.OfferedRate {
			t.Fatalf("concurrent run %d diverged: %+v vs %+v", i, res, want)
		}
	}
}
