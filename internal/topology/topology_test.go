package topology

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestGenerateSizes(t *testing.T) {
	top, err := Generate(GenerateConfig{Name: "test", Routers: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if top.NumNodes() != 100 {
		t.Fatalf("nodes = %d, want 100", top.NumNodes())
	}
	if !top.Connected() {
		t.Fatal("generated topology must be connected")
	}
	if len(top.Gateways()) == 0 {
		t.Fatal("topology must have gateways")
	}
}

func TestGenerateTooSmall(t *testing.T) {
	if _, err := Generate(GenerateConfig{Routers: 3}); err == nil {
		t.Fatal("expected error for tiny topology")
	}
}

func TestGenerateBadFractions(t *testing.T) {
	// Four routers: three backbone (the floor) plus one gateway.
	_, err := Generate(GenerateConfig{Routers: 4})
	if err == nil || !strings.Contains(err.Error(), "no distribution tier") {
		t.Fatalf("expected the no-distribution-tier error when tiers exhaust routers, got %v", err)
	}
}

func TestPaperTopologies(t *testing.T) {
	t1 := Abovenet()
	if t1.NumNodes() != 367 {
		t.Fatalf("topology 1 has %d routers, want 367", t1.NumNodes())
	}
	t2 := Exodus()
	if t2.NumNodes() != 338 {
		t.Fatalf("topology 2 has %d routers, want 338", t2.NumNodes())
	}
	for _, top := range []*Topology{t1, t2} {
		if !top.Connected() {
			t.Fatalf("%s must be connected", top.Name)
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a, _ := Generate(GenerateConfig{Name: "x", Routers: 80, Seed: 9})
	b, _ := Generate(GenerateConfig{Name: "x", Routers: 80, Seed: 9})
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed must generate identical topologies")
	}
	for i := 0; i < a.NumNodes(); i++ {
		if a.Degree(NodeID(i)) != b.Degree(NodeID(i)) {
			t.Fatalf("degree mismatch at node %d", i)
		}
	}
}

func TestDegreeDistributionHeavyTailed(t *testing.T) {
	top := Abovenet()
	maxDeg, sumDeg := 0, 0
	for i := 0; i < top.NumNodes(); i++ {
		d := top.Degree(NodeID(i))
		if d > maxDeg {
			maxDeg = d
		}
		sumDeg += d
	}
	mean := float64(sumDeg) / float64(top.NumNodes())
	// RocketFuel maps have hubs far above the mean degree.
	if float64(maxDeg) < 4*mean {
		t.Fatalf("max degree %d not heavy-tailed vs mean %.2f", maxDeg, mean)
	}
}

func TestShortestPathBasics(t *testing.T) {
	top, _ := Generate(GenerateConfig{Name: "t", Routers: 60, Seed: 4})
	p, err := top.ShortestPath(0, 0)
	if err != nil || len(p) != 1 || p[0] != 0 {
		t.Fatalf("self path = %v, %v", p, err)
	}
	src, dst := NodeID(0), NodeID(top.NumNodes()-1)
	path, err := top.ShortestPath(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if path[0] != src || path[len(path)-1] != dst {
		t.Fatalf("path endpoints %v", path)
	}
	// Consecutive hops must be linked.
	for i := 1; i < len(path); i++ {
		if !top.HasEdge(path[i-1], path[i]) {
			t.Fatalf("hop %d: %d-%d is not a link", i, path[i-1], path[i])
		}
	}
}

func TestShortestPathOutOfRange(t *testing.T) {
	top, _ := Generate(GenerateConfig{Name: "t", Routers: 10, Seed: 4})
	if _, err := top.ShortestPath(0, 99); err == nil {
		t.Fatal("expected error for out-of-range node")
	}
}

func TestShortestPathDeterministic(t *testing.T) {
	top := Exodus()
	a, err := top.ShortestPath(5, 300)
	if err != nil {
		t.Fatal(err)
	}
	b, err := top.ShortestPath(5, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("repeated shortest paths must be identical")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("repeated shortest paths must be identical")
		}
	}
}

func TestPlaceMonitors(t *testing.T) {
	top := Abovenet()
	ms, err := top.PlaceMonitors(25)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 25 {
		t.Fatalf("placed %d monitors, want 25", len(ms))
	}
	seen := make(map[NodeID]bool)
	for _, m := range ms {
		if seen[m] {
			t.Fatalf("duplicate monitor %d", m)
		}
		seen[m] = true
		if top.Node(m).Tier == TierGateway {
			t.Fatalf("monitor %d placed on a gateway", m)
		}
	}
}

func TestPlaceMonitorsBounds(t *testing.T) {
	top, _ := Generate(GenerateConfig{Name: "t", Routers: 10, Seed: 4})
	if _, err := top.PlaceMonitors(0); err == nil {
		t.Fatal("expected error for 0 monitors")
	}
	if _, err := top.PlaceMonitors(11); err == nil {
		t.Fatal("expected error for too many monitors")
	}
}

func TestMonitorsOnPath(t *testing.T) {
	path := []NodeID{3, 7, 12, 9}
	set := map[NodeID]bool{7: true, 9: true, 100: true}
	got := MonitorsOnPath(path, set)
	if len(got) != 2 || got[0] != 7 || got[1] != 9 {
		t.Fatalf("monitors on path = %v", got)
	}
}

func TestTierString(t *testing.T) {
	if TierBackbone.String() != "backbone" || TierGateway.String() != "gateway" {
		t.Fatal("tier names wrong")
	}
}

// Property: shortest paths are genuinely shortest — verified against BFS.
func TestShortestPathOptimalProperty(t *testing.T) {
	top, _ := Generate(GenerateConfig{Name: "t", Routers: 50, Seed: 11})
	bfs := func(src NodeID) []int {
		dist := make([]int, top.NumNodes())
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		q := []NodeID{src}
		for len(q) > 0 {
			cur := q[0]
			q = q[1:]
			for _, nb := range top.Neighbors(cur) {
				if dist[nb] == -1 {
					dist[nb] = dist[cur] + 1
					q = append(q, nb)
				}
			}
		}
		return dist
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := NodeID(rng.Intn(top.NumNodes()))
		dst := NodeID(rng.Intn(top.NumNodes()))
		path, err := top.ShortestPath(src, dst)
		if err != nil {
			return false
		}
		return len(path)-1 == bfs(src)[dst]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: gateway-to-gateway paths traverse at least one monitor when
// monitors cover the high-degree core (the coverage assumption behind
// flow assignment).
func TestMonitorCoverage(t *testing.T) {
	top := Abovenet()
	ms, err := top.PlaceMonitors(25)
	if err != nil {
		t.Fatal(err)
	}
	set := make(map[NodeID]bool, len(ms))
	for _, m := range ms {
		set[m] = true
	}
	gws := top.Gateways()
	rng := rand.New(rand.NewSource(12))
	covered, total := 0, 0
	for i := 0; i < 200; i++ {
		src := gws[rng.Intn(len(gws))]
		dst := gws[rng.Intn(len(gws))]
		if src == dst {
			continue
		}
		path, err := top.ShortestPath(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		total++
		if len(MonitorsOnPath(path, set)) > 0 {
			covered++
		}
	}
	if frac := float64(covered) / float64(total); frac < 0.85 {
		t.Fatalf("only %.0f%% of gateway pairs covered by monitors", 100*frac)
	}
}
