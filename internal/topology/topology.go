// Package topology provides the ISP network substrate for Jaal's
// evaluation: synthetic RocketFuel-like router-level topologies, shortest
// path routing, and monitor placement.
//
// The paper evaluates on two RocketFuel topologies — Abovenet (367
// routers, "topology 1") and Exodus (338 routers, "topology 2"). Those
// map files are not shipped here, so Generate builds topologies of the
// same scale and character: a small densely meshed backbone tier, a
// mid-degree distribution tier attached preferentially (yielding the
// heavy-tailed degree distribution of measured ISP maps), and
// stub/gateway routers at the edge where traffic enters and leaves.
package topology

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
)

// NodeID identifies a router.
type NodeID int

// Tier classifies a router's role.
type Tier uint8

// Router tiers.
const (
	// TierBackbone routers form the densely connected core.
	TierBackbone Tier = iota
	// TierDistribution routers hang off the backbone.
	TierDistribution
	// TierGateway routers are edge points of presence where flows
	// enter/exit the ISP.
	TierGateway
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierBackbone:
		return "backbone"
	case TierDistribution:
		return "distribution"
	case TierGateway:
		return "gateway"
	default:
		return fmt.Sprintf("tier(%d)", uint8(t))
	}
}

// Node is one router.
type Node struct {
	ID   NodeID
	Tier Tier
}

// Topology is an undirected router-level graph with unit-cost links.
type Topology struct {
	// Name labels the topology ("abovenet-like", ...).
	Name  string
	nodes []Node
	adj   [][]NodeID
}

// NumNodes returns the router count.
func (t *Topology) NumNodes() int { return len(t.nodes) }

// Node returns the node record for id.
func (t *Topology) Node(id NodeID) Node { return t.nodes[id] }

// Neighbors returns the adjacency list of id (shared storage; do not
// mutate).
func (t *Topology) Neighbors(id NodeID) []NodeID { return t.adj[id] }

// Degree returns the number of links at id.
func (t *Topology) Degree(id NodeID) int { return len(t.adj[id]) }

// NumEdges returns the number of undirected links.
func (t *Topology) NumEdges() int {
	sum := 0
	for _, a := range t.adj {
		sum += len(a)
	}
	return sum / 2
}

// Gateways returns all gateway routers in ID order.
func (t *Topology) Gateways() []NodeID {
	var out []NodeID
	for _, n := range t.nodes {
		if n.Tier == TierGateway {
			out = append(out, n.ID)
		}
	}
	return out
}

// addEdge inserts an undirected link if absent.
func (t *Topology) addEdge(a, b NodeID) {
	if a == b {
		return
	}
	for _, n := range t.adj[a] {
		if n == b {
			return
		}
	}
	t.adj[a] = append(t.adj[a], b)
	t.adj[b] = append(t.adj[b], a)
}

// HasEdge reports whether a and b are directly linked.
func (t *Topology) HasEdge(a, b NodeID) bool {
	for _, n := range t.adj[a] {
		if n == b {
			return true
		}
	}
	return false
}

// GenerateConfig sizes a synthetic topology.
type GenerateConfig struct {
	Name string
	// Routers is the total router count.
	Routers int
	// Seed drives the generator.
	Seed int64
}

// The RocketFuel-like tier shape every generated topology shares.
const (
	// backboneFrac is the fraction of routers in the backbone core.
	backboneFrac = 0.05
	// gatewayFrac is the fraction of routers that are gateways
	// (RocketFuel maps are edge-heavy).
	gatewayFrac = 0.35
	// attachment is the number of preferential-attachment links each
	// distribution router creates.
	attachment = 2
)

// Abovenet returns the paper's "topology 1" analogue: 367 routers.
func Abovenet() *Topology {
	t, err := Generate(GenerateConfig{Name: "abovenet-like", Routers: 367, Seed: 1})
	if err != nil {
		panic(err) // fixed config cannot fail
	}
	return t
}

// Exodus returns the paper's "topology 2" analogue: 338 routers.
func Exodus() *Topology {
	t, err := Generate(GenerateConfig{Name: "exodus-like", Routers: 338, Seed: 2})
	if err != nil {
		panic(err) // fixed config cannot fail
	}
	return t
}

// Generate builds a connected RocketFuel-like topology.
func Generate(cfg GenerateConfig) (*Topology, error) {
	if cfg.Routers < 4 {
		return nil, fmt.Errorf("topology: need ≥ 4 routers, got %d", cfg.Routers)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	nBackbone := int(float64(cfg.Routers) * backboneFrac)
	if nBackbone < 3 {
		nBackbone = 3
	}
	nGateway := int(float64(cfg.Routers) * gatewayFrac)
	if nBackbone+nGateway >= cfg.Routers {
		return nil, fmt.Errorf("topology: backbone+gateway fractions leave no distribution tier")
	}

	t := &Topology{
		Name:  cfg.Name,
		nodes: make([]Node, cfg.Routers),
		adj:   make([][]NodeID, cfg.Routers),
	}
	// Tier layout: [0, nBackbone) backbone, then distribution, gateways
	// at the tail.
	nDistribution := cfg.Routers - nBackbone - nGateway
	for i := range t.nodes {
		id := NodeID(i)
		switch {
		case i < nBackbone:
			t.nodes[i] = Node{ID: id, Tier: TierBackbone}
		case i < nBackbone+nDistribution:
			t.nodes[i] = Node{ID: id, Tier: TierDistribution}
		default:
			t.nodes[i] = Node{ID: id, Tier: TierGateway}
		}
	}

	// Backbone: a ring plus random chords for 2-connectivity and low
	// diameter, as in measured cores.
	for i := 0; i < nBackbone; i++ {
		t.addEdge(NodeID(i), NodeID((i+1)%nBackbone))
	}
	chords := nBackbone / 2
	for c := 0; c < chords; c++ {
		a := NodeID(rng.Intn(nBackbone))
		b := NodeID(rng.Intn(nBackbone))
		t.addEdge(a, b)
	}

	// Distribution: preferential attachment to already-placed routers.
	// degreeTargets holds candidate endpoints weighted by degree.
	var targets []NodeID
	for i := 0; i < nBackbone; i++ {
		for d := 0; d < t.Degree(NodeID(i)); d++ {
			targets = append(targets, NodeID(i))
		}
	}
	for i := nBackbone; i < nBackbone+nDistribution; i++ {
		id := NodeID(i)
		for l := 0; l < attachment; l++ {
			dst := targets[rng.Intn(len(targets))]
			t.addEdge(id, dst)
			targets = append(targets, dst)
		}
		for d := 0; d < t.Degree(id); d++ {
			targets = append(targets, id)
		}
	}

	// Gateways: each attaches to 1–2 distribution routers.
	distLo, distHi := nBackbone, nBackbone+nDistribution
	for i := nBackbone + nDistribution; i < cfg.Routers; i++ {
		id := NodeID(i)
		links := 1 + rng.Intn(2)
		for l := 0; l < links; l++ {
			dst := NodeID(distLo + rng.Intn(distHi-distLo))
			t.addEdge(id, dst)
		}
	}
	return t, nil
}

// ShortestPath returns one shortest path (inclusive of endpoints) from
// src to dst using unit link costs, with deterministic tie-breaking by
// node ID. It returns an error when no path exists.
func (t *Topology) ShortestPath(src, dst NodeID) ([]NodeID, error) {
	if src == dst {
		return []NodeID{src}, nil
	}
	n := t.NumNodes()
	if int(src) >= n || int(dst) >= n || src < 0 || dst < 0 {
		return nil, fmt.Errorf("topology: node out of range")
	}
	const unvisited = -1
	prev := make([]NodeID, n)
	dist := make([]int, n)
	for i := range prev {
		prev[i] = unvisited
		dist[i] = int(^uint(0) >> 1)
	}
	dist[src] = 0

	pq := &nodeHeap{}
	heap.Push(pq, nodeDist{node: src, dist: 0})
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(nodeDist)
		if cur.dist > dist[cur.node] {
			continue
		}
		if cur.node == dst {
			break
		}
		// Deterministic neighbor order.
		nbrs := append([]NodeID(nil), t.adj[cur.node]...)
		sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
		for _, nb := range nbrs {
			if nd := cur.dist + 1; nd < dist[nb] {
				dist[nb] = nd
				prev[nb] = cur.node
				heap.Push(pq, nodeDist{node: nb, dist: nd})
			}
		}
	}
	if prev[dst] == unvisited {
		return nil, fmt.Errorf("topology: no path from %d to %d", src, dst)
	}
	var path []NodeID
	for at := dst; ; at = prev[at] {
		path = append(path, at)
		if at == src {
			break
		}
	}
	// Reverse in place.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, nil
}

type nodeDist struct {
	node NodeID
	dist int
}

type nodeHeap []nodeDist

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].node < h[j].node
}
func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)   { *h = append(*h, x.(nodeDist)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Connected reports whether the whole topology is one component.
func (t *Topology) Connected() bool {
	if t.NumNodes() == 0 {
		return true
	}
	seen := make([]bool, t.NumNodes())
	stack := []NodeID{0}
	seen[0] = true
	count := 0
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		for _, nb := range t.adj[cur] {
			if !seen[nb] {
				seen[nb] = true
				stack = append(stack, nb)
			}
		}
	}
	return count == t.NumNodes()
}

// PlaceMonitors selects count monitor locations, preferring
// high-betweenness positions cheaply approximated by degree: the
// highest-degree distribution/backbone routers, which is where a carrier
// would tap (core routers and IXP-like aggregation points, §2). Ties
// break by node ID for reproducibility.
func (t *Topology) PlaceMonitors(count int) ([]NodeID, error) {
	if count < 1 || count > t.NumNodes() {
		return nil, fmt.Errorf("topology: cannot place %d monitors in %d routers", count, t.NumNodes())
	}
	ids := make([]NodeID, t.NumNodes())
	for i := range ids {
		ids[i] = NodeID(i)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
		// Prefer non-gateway, then higher degree, then lower ID.
		ga, gb := t.nodes[a].Tier == TierGateway, t.nodes[b].Tier == TierGateway
		if ga != gb {
			return !ga
		}
		if t.Degree(a) != t.Degree(b) {
			return t.Degree(a) > t.Degree(b)
		}
		return a < b
	})
	out := append([]NodeID(nil), ids[:count]...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// MonitorsOnPath returns, in path order, the monitors (from the given
// set) that lie on the path.
func MonitorsOnPath(path []NodeID, monitorSet map[NodeID]bool) []NodeID {
	var out []NodeID
	for _, n := range path {
		if monitorSet[n] {
			out = append(out, n)
		}
	}
	return out
}
