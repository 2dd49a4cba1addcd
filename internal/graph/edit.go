package graph

import (
	"errors"
	"fmt"
	"sort"
)

// This file is the mutable edit layer over the immutable CSR Graph: a
// Builder accumulates vertex joins/leaves and edge adds/removes, then
// re-compacts to a fresh validated CSR together with a vertex mapping.
// It is the substrate of the churn experiments: a live beep.Network is
// rewired onto the compacted graph using the mapping, so surviving
// vertices keep their machine state while the topology changes under
// them.

// EditKind enumerates the four topology edits.
type EditKind int

const (
	// EditAddEdge inserts the undirected edge {U, V}.
	EditAddEdge EditKind = iota + 1
	// EditDelEdge removes the undirected edge {U, V}.
	EditDelEdge
	// EditAddVertex creates a new isolated vertex; it receives the next
	// free builder id (U and V are ignored).
	EditAddVertex
	// EditDelVertex removes vertex U together with all incident edges.
	EditDelVertex
)

// String names the edit kind for error messages and traces.
func (k EditKind) String() string {
	switch k {
	case EditAddEdge:
		return "add-edge"
	case EditDelEdge:
		return "del-edge"
	case EditAddVertex:
		return "add-vertex"
	case EditDelVertex:
		return "del-vertex"
	default:
		return fmt.Sprintf("edit(%d)", int(k))
	}
}

// Edit is one topology change, expressed in the id space of the Builder
// it is applied to: ids [0, n) are the vertices of the base graph, and
// each EditAddVertex extends the id space by one (n, n+1, …).
type Edit struct {
	Kind EditKind
	U, V int
}

// Errors of the edit layer, distinguishable with errors.Is.
var (
	// ErrEdgeExists reports an EditAddEdge whose edge is already present.
	ErrEdgeExists = errors.New("graph: edge already present")
	// ErrEdgeMissing reports an EditDelEdge whose edge is absent.
	ErrEdgeMissing = errors.New("graph: edge not present")
	// ErrVertexRemoved reports an edit touching an already-removed vertex.
	ErrVertexRemoved = errors.New("graph: vertex already removed")
)

// Builder is a mutable graph under construction: the adjacency is held
// as per-vertex hash sets so adds and removes are O(1) expected, and
// removed vertices are tombstoned until Build compacts the id space.
// A Builder is not safe for concurrent use.
type Builder struct {
	adj     []map[int32]struct{}
	removed []bool
	live    int
	edges   int
}

// NewBuilder returns a Builder seeded with the topology of g (which is
// left untouched), or an empty builder for nil.
func NewBuilder(g *Graph) *Builder {
	b := &Builder{}
	if g == nil {
		return b
	}
	n := g.N()
	b.adj = make([]map[int32]struct{}, n)
	b.removed = make([]bool, n)
	b.live = n
	for v := 0; v < n; v++ {
		row := g.Neighbors(v)
		set := make(map[int32]struct{}, len(row))
		for _, u := range row {
			set[u] = struct{}{}
		}
		b.adj[v] = set
	}
	b.edges = g.M()
	return b
}

// IDs returns the size of the builder id space: base vertices plus
// vertices added so far, including tombstoned ones.
func (b *Builder) IDs() int { return len(b.adj) }

// Live returns the number of non-removed vertices, the N of the graph
// Build will produce.
func (b *Builder) Live() int { return b.live }

// Edges returns the current number of undirected edges.
func (b *Builder) Edges() int { return b.edges }

// HasEdge reports whether the (live) edge {u, v} is present.
func (b *Builder) HasEdge(u, v int) bool {
	if u < 0 || u >= len(b.adj) || v < 0 || v >= len(b.adj) {
		return false
	}
	_, ok := b.adj[u][int32(v)]
	return ok
}

// checkVertex validates that v is a live vertex of the builder.
func (b *Builder) checkVertex(v int) error {
	if v < 0 || v >= len(b.adj) {
		return fmt.Errorf("%w: %d with id space [0,%d)", ErrVertexRange, v, len(b.adj))
	}
	if b.removed[v] {
		return fmt.Errorf("%w: %d", ErrVertexRemoved, v)
	}
	return nil
}

// AddVertex creates a new isolated vertex and returns its builder id.
func (b *Builder) AddVertex() int {
	b.adj = append(b.adj, make(map[int32]struct{}))
	b.removed = append(b.removed, false)
	b.live++
	return len(b.adj) - 1
}

// RemoveVertex tombstones v and removes all incident edges.
func (b *Builder) RemoveVertex(v int) error {
	if err := b.checkVertex(v); err != nil {
		return fmt.Errorf("graph: remove vertex: %w", err)
	}
	for u := range b.adj[v] {
		delete(b.adj[u], int32(v))
		b.edges--
	}
	b.adj[v] = nil
	b.removed[v] = true
	b.live--
	return nil
}

// AddEdge inserts the undirected edge {u, v}. It rejects self-loops,
// out-of-range or removed endpoints, and duplicate edges.
func (b *Builder) AddEdge(u, v int) error {
	if u == v {
		return fmt.Errorf("graph: add edge: %w: (%d,%d)", ErrSelfLoop, u, v)
	}
	if err := b.checkVertex(u); err != nil {
		return fmt.Errorf("graph: add edge: %w", err)
	}
	if err := b.checkVertex(v); err != nil {
		return fmt.Errorf("graph: add edge: %w", err)
	}
	if _, ok := b.adj[u][int32(v)]; ok {
		return fmt.Errorf("graph: add edge: %w: (%d,%d)", ErrEdgeExists, u, v)
	}
	b.adj[u][int32(v)] = struct{}{}
	b.adj[v][int32(u)] = struct{}{}
	b.edges++
	return nil
}

// RemoveEdge deletes the undirected edge {u, v}, rejecting absent edges
// and invalid endpoints.
func (b *Builder) RemoveEdge(u, v int) error {
	if err := b.checkVertex(u); err != nil {
		return fmt.Errorf("graph: remove edge: %w", err)
	}
	if err := b.checkVertex(v); err != nil {
		return fmt.Errorf("graph: remove edge: %w", err)
	}
	if _, ok := b.adj[u][int32(v)]; !ok {
		return fmt.Errorf("graph: remove edge: %w: (%d,%d)", ErrEdgeMissing, u, v)
	}
	delete(b.adj[u], int32(v))
	delete(b.adj[v], int32(u))
	b.edges--
	return nil
}

// Apply performs one edit.
func (b *Builder) Apply(e Edit) error {
	switch e.Kind {
	case EditAddEdge:
		return b.AddEdge(e.U, e.V)
	case EditDelEdge:
		return b.RemoveEdge(e.U, e.V)
	case EditAddVertex:
		b.AddVertex()
		return nil
	case EditDelVertex:
		return b.RemoveVertex(e.U)
	default:
		return fmt.Errorf("graph: unknown edit kind %v", e.Kind)
	}
}

// Build compacts the live vertices into a fresh validated CSR graph and
// returns the vertex mapping: mapping has one entry per builder id, the
// new compacted id of that vertex or -1 if it was removed. Live ids are
// compacted in ascending order, so ids of the base graph that survive
// keep their relative order. The Builder remains usable afterwards.
func (b *Builder) Build() (*Graph, []int, error) {
	ids := len(b.adj)
	mapping := make([]int, ids)
	next := 0
	for v := 0; v < ids; v++ {
		if b.removed[v] {
			mapping[v] = -1
			continue
		}
		mapping[v] = next
		next++
	}
	edges := make([]Edge, 0, b.edges)
	for v := 0; v < ids; v++ {
		if b.removed[v] {
			continue
		}
		for u := range b.adj[v] {
			if int(u) > v {
				edges = append(edges, Edge{U: mapping[v], V: mapping[int(u)]})
			}
		}
	}
	// Map iteration order is random; sort for a deterministic edge list
	// (New sorts adjacency anyway, but determinism here keeps Build
	// outputs bit-identical across runs for hashing and golden tests).
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	g, err := New(next, edges)
	if err != nil {
		return nil, nil, fmt.Errorf("graph: build edited graph: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, nil, fmt.Errorf("graph: edited graph invalid: %w", err)
	}
	return g, mapping, nil
}

// ApplyEdits applies a batch of edits to g and re-compacts: it returns
// the new graph and the mapping from the builder id space (the N(g)
// base ids followed by one id per EditAddVertex, in order) to the new
// compacted ids, -1 for removed vertices. The batch is atomic: any
// invalid edit aborts with an error before a graph is produced, and g
// itself is never modified.
func ApplyEdits(g *Graph, edits []Edit) (*Graph, []int, error) {
	b := NewBuilder(g)
	for i, e := range edits {
		if err := b.Apply(e); err != nil {
			return nil, nil, fmt.Errorf("graph: edit %d (%v): %w", i, e.Kind, err)
		}
	}
	return b.Build()
}
