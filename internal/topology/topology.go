// Package topology models the physical layout of a multicore NUMA machine:
// cores, SMT sibling pairs, NUMA nodes, and the inter-node hop-distance
// matrix. The scheduler builds its scheduling-domain hierarchy from this
// description (paper §2.2.1, Figure 1), and the Scheduling Group
// Construction bug (§3.2) depends on the asymmetric connectivity of the
// 8-node AMD Bulldozer machine (Figure 4, Table 5).
package topology

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/trace"
)

// CoreID identifies a logical CPU.
type CoreID int

// NodeID identifies a NUMA node.
type NodeID int

// Topology is an immutable machine description, safe to share across
// goroutines. The one mutable part is a memo of values derived from it
// (see Memo), which lives and dies with the Topology.
type Topology struct {
	name         string
	numCores     int
	numNodes     int
	nodeOf       []NodeID   // core -> node
	coresOf      [][]CoreID // node -> cores
	smtSibling   []CoreID   // core -> sibling, -1 when none
	hops         [][]int    // node x node hop distances
	maxHops      int
	nodesWithin  [][][]NodeID // node x hop -> nodes within hop, ascending
	coresWithin  [][][]CoreID // node x hop -> cores within hop, ascending
	clockGHz     float64
	memoryGB     int
	interconnect string

	memoMu sync.Mutex
	memo   map[any]any
}

// Spec carries the raw description consumed by New. Adjacency lists the
// directly connected (one-hop) node pairs; hop distances are derived by
// BFS. SMT, when true, pairs cores (2i, 2i+1) as hardware siblings.
type Spec struct {
	Name         string
	NumNodes     int
	CoresPerNode int
	SMT          bool
	Adjacency    [][2]NodeID
	ClockGHz     float64
	MemoryGB     int
	Interconnect string
}

// New builds a Topology from spec. It returns an error when the node graph
// is disconnected or the spec is degenerate.
func New(spec Spec) (*Topology, error) {
	if spec.NumNodes < 1 || spec.CoresPerNode < 1 {
		return nil, fmt.Errorf("topology: need at least 1 node and 1 core per node, got %d/%d",
			spec.NumNodes, spec.CoresPerNode)
	}
	if spec.SMT && spec.CoresPerNode%2 != 0 {
		return nil, fmt.Errorf("topology: SMT requires an even number of cores per node, got %d", spec.CoresPerNode)
	}
	if total := spec.NumNodes * spec.CoresPerNode; total > trace.MaskBits {
		return nil, fmt.Errorf("topology: %d cores exceed the %d-CPU limit of the core bitsets (trace.Mask, sched.CPUSet) — widen them before modeling larger machines",
			total, trace.MaskBits)
	}
	n := spec.NumNodes
	t := &Topology{
		name:         spec.Name,
		numCores:     n * spec.CoresPerNode,
		numNodes:     n,
		clockGHz:     spec.ClockGHz,
		memoryGB:     spec.MemoryGB,
		interconnect: spec.Interconnect,
	}
	t.nodeOf = make([]NodeID, t.numCores)
	t.coresOf = make([][]CoreID, n)
	t.smtSibling = make([]CoreID, t.numCores)
	for c := 0; c < t.numCores; c++ {
		node := NodeID(c / spec.CoresPerNode)
		t.nodeOf[c] = node
		t.coresOf[node] = append(t.coresOf[node], CoreID(c))
		t.smtSibling[c] = -1
	}
	if spec.SMT {
		for c := 0; c < t.numCores; c += 2 {
			t.smtSibling[c] = CoreID(c + 1)
			t.smtSibling[c+1] = CoreID(c)
		}
	}
	// Hop distances by BFS over the adjacency graph.
	adj := make([][]NodeID, n)
	for _, e := range spec.Adjacency {
		a, b := e[0], e[1]
		if a < 0 || b < 0 || int(a) >= n || int(b) >= n || a == b {
			return nil, fmt.Errorf("topology: bad adjacency edge %d-%d", a, b)
		}
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	t.hops = make([][]int, n)
	for src := 0; src < n; src++ {
		dist := make([]int, n)
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue := []NodeID{NodeID(src)}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		for i, d := range dist {
			if d < 0 && n > 1 {
				return nil, fmt.Errorf("topology: node %d unreachable from node %d", i, src)
			}
			if d > t.maxHops {
				t.maxHops = d
			}
		}
		t.hops[src] = dist
	}
	// Precompute the within-h neighborhoods eagerly: scheduling-domain
	// construction queries them per (core, hop) and a Topology may be
	// shared across scenario goroutines, so the tables are filled here,
	// once, and immutable afterwards.
	t.nodesWithin = make([][][]NodeID, n)
	t.coresWithin = make([][][]CoreID, n)
	for src := 0; src < n; src++ {
		t.nodesWithin[src] = make([][]NodeID, t.maxHops+1)
		t.coresWithin[src] = make([][]CoreID, t.maxHops+1)
		for h := 0; h <= t.maxHops; h++ {
			var nodes []NodeID
			var cores []CoreID
			// Node ids ascend and each node's cores ascend contiguously,
			// so appending in node order keeps cores sorted.
			for i := 0; i < n; i++ {
				if t.hops[src][i] <= h {
					nodes = append(nodes, NodeID(i))
					cores = append(cores, t.coresOf[i]...)
				}
			}
			t.nodesWithin[src][h] = nodes
			t.coresWithin[src][h] = cores
		}
	}
	return t, nil
}

// Memo returns the value derived from t under key, calling build to make
// it on the first request for key and returning that same value to every
// later one. It is for values that are a pure function of t and key,
// such as the scheduler's domain hierarchies, which then cost one build
// per topology however many worlds run on it. The value must not be
// modified once returned: callers on other goroutines share it. build
// runs under t's memo lock, so concurrent requests wait for one build,
// and build must not call Memo on t.
func (t *Topology) Memo(key any, build func() any) any {
	t.memoMu.Lock()
	defer t.memoMu.Unlock()
	if v, ok := t.memo[key]; ok {
		return v
	}
	if t.memo == nil {
		t.memo = map[any]any{}
	}
	v := build()
	t.memo[key] = v
	return v
}

// Name returns the human-readable machine name.
func (t *Topology) Name() string { return t.name }

// NumCores reports the number of logical CPUs.
func (t *Topology) NumCores() int { return t.numCores }

// NumNodes reports the number of NUMA nodes.
func (t *Topology) NumNodes() int { return t.numNodes }

// CoresPerNode reports cores per NUMA node.
func (t *Topology) CoresPerNode() int { return t.numCores / t.numNodes }

// NodeOf returns the NUMA node that hosts core c.
func (t *Topology) NodeOf(c CoreID) NodeID { return t.nodeOf[c] }

// CoresOfNode returns the cores of node n in ascending order. The returned
// slice must not be modified.
func (t *Topology) CoresOfNode(n NodeID) []CoreID { return t.coresOf[n] }

// SMTSibling returns the hardware sibling of c, and whether one exists.
func (t *Topology) SMTSibling(c CoreID) (CoreID, bool) {
	s := t.smtSibling[c]
	return s, s >= 0
}

// HasSMT reports whether the machine has SMT sibling pairs.
func (t *Topology) HasSMT() bool { return t.numCores > 0 && t.smtSibling[0] >= 0 }

// Hops returns the hop distance between two nodes (0 for the same node).
func (t *Topology) Hops(a, b NodeID) int { return t.hops[a][b] }

// MaxHops returns the network diameter in hops.
func (t *Topology) MaxHops() int { return t.maxHops }

// NodesWithin returns the nodes at hop distance <= h from n, in ascending
// node order (n itself included). The returned slice is shared and must
// not be modified.
func (t *Topology) NodesWithin(n NodeID, h int) []NodeID {
	if h < 0 {
		return nil
	}
	if h > t.maxHops {
		h = t.maxHops
	}
	return t.nodesWithin[n][h]
}

// CoresWithin returns the cores of all nodes within h hops of node n,
// ascending. The returned slice is shared and must not be modified.
func (t *Topology) CoresWithin(n NodeID, h int) []CoreID {
	if h < 0 {
		return nil
	}
	if h > t.maxHops {
		h = t.maxHops
	}
	return t.coresWithin[n][h]
}

// Neighbors returns the one-hop neighbor nodes of n, ascending, excluding n.
func (t *Topology) Neighbors(n NodeID) []NodeID {
	var out []NodeID
	for i := 0; i < t.numNodes; i++ {
		if t.hops[n][i] == 1 {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// String renders a Table-5-style description plus the hop matrix (Figure 4).
func (t *Topology) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d cores, %d NUMA nodes (%d cores/node)",
		t.name, t.numCores, t.numNodes, t.CoresPerNode())
	if t.HasSMT() {
		b.WriteString(", SMT pairs")
	}
	if t.clockGHz > 0 {
		fmt.Fprintf(&b, ", %.1f GHz", t.clockGHz)
	}
	if t.memoryGB > 0 {
		fmt.Fprintf(&b, ", %d GB RAM", t.memoryGB)
	}
	if t.interconnect != "" {
		fmt.Fprintf(&b, ", %s", t.interconnect)
	}
	if t.numNodes > 1 {
		b.WriteString("\nhop matrix:\n")
		b.WriteString(t.HopMatrix())
	}
	return b.String()
}

// HopMatrix renders the node-to-node hop distances as an aligned table.
func (t *Topology) HopMatrix() string {
	var b strings.Builder
	b.WriteString("     ")
	for j := 0; j < t.numNodes; j++ {
		fmt.Fprintf(&b, "N%-3d", j)
	}
	b.WriteString("\n")
	for i := 0; i < t.numNodes; i++ {
		fmt.Fprintf(&b, "N%-3d ", i)
		for j := 0; j < t.numNodes; j++ {
			fmt.Fprintf(&b, "%-4d", t.hops[i][j])
		}
		b.WriteString("\n")
	}
	return b.String()
}
