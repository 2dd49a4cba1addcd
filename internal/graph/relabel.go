package graph

import "sort"

// This file implements cache-aware vertex relabeling: permutations of
// the vertex identifiers chosen so that vertices that interact (CSR
// rows that are read together during signal delivery) sit near each
// other in memory. The protocols themselves are anonymous — they never
// observe identifiers — so relabeling cannot change the distribution of
// executions; for a *fixed seed* it does change which private stream a
// given original vertex draws from, which is why experiment harnesses
// treat it as a measured, opt-in transform rather than a default (see
// exp.ReplicatedConfig.Relabel).
//
// The payoff is locality in the flat engines' delivery phase: the
// scatter path walks the CSR rows of the senders, and the gather path
// streams every row in vertex order. With a BFS ordering the row of
// vertex v and the rows of its neighbors land in nearby cache lines;
// with a degree-sort ordering the hubs (rows touched by the most
// senders) pack into a contiguous hot region.

// Ordering selects the permutation strategy of Relabel.
type Ordering int

const (
	// OrderNone is the identity: no relabeling. It is the zero value,
	// so configuration structs default to the untransformed graph.
	OrderNone Ordering = iota
	// OrderBFS renumbers vertices in breadth-first order from the
	// lowest-numbered vertex of each component (components in ascending
	// order of their original minimum vertex; within a frontier,
	// neighbors are visited in ascending original order, so the
	// permutation is deterministic). Neighbors receive nearby new IDs —
	// the classic bandwidth-reducing layout for sparse delivery.
	OrderBFS
	// OrderDegree renumbers vertices by descending degree (ties broken
	// by ascending original ID, so the permutation is deterministic).
	// High-degree hubs — the CSR rows most frequently ORed during
	// scatter delivery — become the lowest IDs and share a compact
	// prefix of the adjacency slab.
	OrderDegree
)

// String returns the flag-friendly name of the ordering.
func (o Ordering) String() string {
	switch o {
	case OrderNone:
		return "none"
	case OrderBFS:
		return "bfs"
	case OrderDegree:
		return "degree"
	}
	return "unknown"
}

// Relabeling is the result of Relabel: the permuted graph together with
// both directions of the permutation, so per-vertex results computed on
// the relabeled topology can be mapped back to the original IDs.
type Relabeling struct {
	// Graph is the relabeled topology: vertex NewID[v] of Graph is the
	// original vertex v.
	Graph *Graph
	// NewID[old] is the identifier of original vertex old in Graph.
	NewID []int32
	// OldID[new] is the original identifier of vertex new of Graph
	// (the inverse permutation: OldID[NewID[v]] == v).
	OldID []int32
}

// Relabel permutes the vertex identifiers of g according to the chosen
// ordering and rebuilds the CSR in the new order. The result is a new
// graph (g is immutable and untouched) whose adjacency is sorted and
// validated by construction; the name is carried over.
func Relabel(g *Graph, ord Ordering) *Relabeling {
	n := g.N()
	oldID := make([]int32, n) // oldID[new] = old
	switch ord {
	case OrderNone:
		for v := range oldID {
			oldID[v] = int32(v)
		}
	case OrderDegree:
		for v := range oldID {
			oldID[v] = int32(v)
		}
		sort.SliceStable(oldID, func(i, j int) bool {
			di, dj := g.Degree(int(oldID[i])), g.Degree(int(oldID[j]))
			if di != dj {
				return di > dj
			}
			return oldID[i] < oldID[j]
		})
	default: // OrderBFS
		next := 0
		queue := make([]int32, 0, n)
		seen := make([]bool, n)
		for s := 0; s < n; s++ {
			if seen[s] {
				continue
			}
			seen[s] = true
			queue = append(queue[:0], int32(s))
			for len(queue) > 0 {
				v := queue[0]
				queue = queue[1:]
				oldID[next] = v
				next++
				for _, u := range g.Neighbors(int(v)) {
					if !seen[u] {
						seen[u] = true
						queue = append(queue, u)
					}
				}
			}
		}
	}

	newID := make([]int32, n) // newID[old] = new
	for nw, old := range oldID {
		newID[old] = int32(nw)
	}

	// Rebuild the CSR directly under the permutation: row nw of the new
	// graph is the row oldID[nw] of g with every entry mapped through
	// newID, then sorted. Degrees are preserved, so the offsets come
	// straight from the old degrees — no edge-list round trip, no
	// dedup pass (g is already simple).
	off := make([]int32, n+1)
	for nw := 0; nw < n; nw++ {
		off[nw+1] = off[nw] + int32(g.Degree(int(oldID[nw])))
	}
	adj := make([]int32, off[n])
	for nw := 0; nw < n; nw++ {
		row := adj[off[nw]:off[nw+1]]
		for i, u := range g.Neighbors(int(oldID[nw])) {
			row[i] = newID[u]
		}
		sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
	}

	g2 := &Graph{name: g.name, off: off, adj: adj, maxDeg: g.maxDeg}
	return &Relabeling{Graph: g2, NewID: newID, OldID: oldID}
}

// MapBack translates a per-vertex mask computed on the relabeled graph
// into original vertex order: result[old] = mask[NewID[old]].
func (r *Relabeling) MapBack(mask []bool) []bool {
	out := make([]bool, len(mask))
	for old, nw := range r.NewID {
		out[old] = mask[nw]
	}
	return out
}

// MapBackInt32 translates a per-vertex int32 slice (e.g. exported
// levels) computed on the relabeled graph into original vertex order.
func (r *Relabeling) MapBackInt32(vals []int32) []int32 {
	out := make([]int32, len(vals))
	for old, nw := range r.NewID {
		out[old] = vals[nw]
	}
	return out
}
