package partition

import (
	"math/rand"

	"scgnn/internal/graph"
)

// Multilevel is a METIS-style multilevel k-way partitioner — the algorithm
// family the paper actually cites for its graph-partition step [Karypis &
// Kumar]. It proceeds in three phases:
//
//  1. coarsening: repeated heavy-edge matching contracts the graph until it
//     is small, preserving community structure in the edge weights;
//  2. initial partitioning: greedy balanced region growth on the coarsest
//     graph (which is tiny, so quality is cheap);
//  3. uncoarsening: the assignment is projected back level by level, with a
//     boundary Kernighan–Lin/FM refinement sweep at every level.
//
// Compared with the single-level growers (EdgeCut/NodeCut), Multilevel finds
// substantially smaller cuts on community-structured graphs and is the
// recommended partitioner for large inputs.
const Multilevel Method = 3

// coarseGraph is one level of the coarsening hierarchy: a weighted graph
// plus the mapping from the finer level's nodes to this level's.
type coarseGraph struct {
	n      int
	adj    []map[int32]float64 // weighted adjacency
	weight []float64           // node weights (collapsed node counts)
	// parent[v_fine] = v_coarse for the finer graph this was built from.
	parent []int32
}

func multilevelPartition(g *graph.Graph, nparts int, rng *rand.Rand) []int {
	// Build the level-0 weighted graph.
	level := &coarseGraph{n: g.NumNodes(), adj: make([]map[int32]float64, g.NumNodes()), weight: make([]float64, g.NumNodes())}
	for u := 0; u < g.NumNodes(); u++ {
		level.adj[u] = make(map[int32]float64)
		level.weight[u] = 1
	}
	for u := int32(0); int(u) < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(u) {
			level.adj[u][v] += 1
		}
	}

	// Phase 1: coarsen until small or progress stalls.
	var hierarchy []*coarseGraph
	hierarchy = append(hierarchy, level)
	for level.n > 4*nparts && level.n > 32 {
		next := coarsen(level, rng)
		if next.n >= level.n*9/10 {
			break // matching stalled (e.g. star graphs)
		}
		hierarchy = append(hierarchy, next)
		level = next
	}

	// Phase 2: initial partitioning of the coarsest graph by weighted
	// greedy growth.
	coarsest := hierarchy[len(hierarchy)-1]
	assign := initialPartition(coarsest, nparts, rng)

	// Phase 3: uncoarsen with rebalancing + refinement at every level.
	for li := len(hierarchy) - 1; li >= 0; li-- {
		cg := hierarchy[li]
		rebalanceWeighted(cg, assign, nparts)
		refineWeighted(cg, assign, nparts)
		if li > 0 {
			// cg.parent maps the finer level's nodes to cg's nodes.
			finer := hierarchy[li-1]
			fineAssign := make([]int, finer.n)
			for v := 0; v < finer.n; v++ {
				fineAssign[v] = assign[cg.parent[v]]
			}
			assign = fineAssign
		}
	}
	return assign
}

// coarsen contracts a maximal heavy-edge matching.
func coarsen(cg *coarseGraph, rng *rand.Rand) *coarseGraph {
	n := cg.n
	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	order := rng.Perm(n)
	for _, ui := range order {
		u := int32(ui)
		if match[u] != -1 {
			continue
		}
		// Match u with its heaviest unmatched neighbor.
		var best int32 = -1
		bestW := -1.0
		for v, w := range cg.adj[u] {
			if match[v] == -1 && v != u && w > bestW {
				best, bestW = v, w
			}
		}
		if best == -1 {
			match[u] = u // self-matched
		} else {
			match[u] = best
			match[best] = u
		}
	}

	// Number the coarse nodes.
	coarseID := make([]int32, n)
	for i := range coarseID {
		coarseID[i] = -1
	}
	var next int32
	for u := int32(0); int(u) < n; u++ {
		if coarseID[u] != -1 {
			continue
		}
		coarseID[u] = next
		if m := match[u]; m != u && m >= 0 {
			coarseID[m] = next
		}
		next++
	}

	out := &coarseGraph{
		n:      int(next),
		adj:    make([]map[int32]float64, next),
		weight: make([]float64, next),
		parent: coarseID,
	}
	for i := range out.adj {
		out.adj[i] = make(map[int32]float64)
	}
	for u := int32(0); int(u) < n; u++ {
		cu := coarseID[u]
		out.weight[cu] += cg.weight[u]
		for v, w := range cg.adj[u] {
			cv := coarseID[v]
			if cu != cv {
				out.adj[cu][cv] += w
			}
		}
	}
	return out
}

// initialPartition grows nparts balanced regions on the (small) coarsest
// graph, heaviest-connection-first.
func initialPartition(cg *coarseGraph, nparts int, rng *rand.Rand) []int {
	assign := make([]int, cg.n)
	for i := range assign {
		assign[i] = -1
	}
	var totalW float64
	for _, w := range cg.weight {
		totalW += w
	}
	capacity := totalW/float64(nparts)*1.1 + 1
	loads := make([]float64, nparts)

	seeds := rng.Perm(cg.n)
	for p := 0; p < nparts && p < cg.n; p++ {
		s := seeds[p]
		assign[s] = p
		loads[p] += cg.weight[s]
	}
	// Greedy frontier growth: repeatedly assign the unassigned node with the
	// strongest connection to any under-capacity partition.
	for {
		bestNode, bestPart := -1, -1
		bestGain := -1.0
		for u := 0; u < cg.n; u++ {
			if assign[u] != -1 {
				continue
			}
			conn := make([]float64, nparts)
			for v, w := range cg.adj[int32(u)] {
				if p := assign[v]; p >= 0 {
					conn[p] += w
				}
			}
			for p := 0; p < nparts; p++ {
				if loads[p] >= capacity {
					continue
				}
				if conn[p] > bestGain {
					bestGain, bestNode, bestPart = conn[p], u, p
				}
			}
		}
		if bestNode == -1 {
			// No connected candidates left: place stranded nodes on the
			// lightest partitions.
			done := true
			for u := 0; u < cg.n; u++ {
				if assign[u] == -1 {
					lightest := 0
					for p := 1; p < nparts; p++ {
						if loads[p] < loads[lightest] {
							lightest = p
						}
					}
					assign[u] = lightest
					loads[lightest] += cg.weight[u]
					done = false
				}
			}
			if done {
				break
			}
			break
		}
		assign[bestNode] = bestPart
		loads[bestPart] += cg.weight[bestNode]
	}
	return assign
}

// rebalanceWeighted enforces the balance constraint before refinement:
// while any partition exceeds the slack cap, the overloaded partition's
// minimum-damage node (least internal connectivity) migrates to the lightest
// partition. Refinement then repairs the cut without breaking balance.
func rebalanceWeighted(cg *coarseGraph, assign []int, nparts int) {
	var totalW float64
	for _, w := range cg.weight {
		totalW += w
	}
	maxLoad := totalW/float64(nparts)*(1+slack) + 1
	loads := make([]float64, nparts)
	for u, p := range assign {
		loads[p] += cg.weight[u]
	}
	for iter := 0; iter < cg.n; iter++ {
		over, lightest := -1, 0
		for p := 0; p < nparts; p++ {
			if loads[p] > maxLoad && (over == -1 || loads[p] > loads[over]) {
				over = p
			}
			if loads[p] < loads[lightest] {
				lightest = p
			}
		}
		if over == -1 {
			return
		}
		// Pick the member of `over` with the smallest internal connectivity
		// that still fits in the lightest partition.
		bestU, bestCost := -1, 0.0
		for u := 0; u < cg.n; u++ {
			if assign[u] != over {
				continue
			}
			var internal float64
			for v, w := range cg.adj[int32(u)] {
				if assign[v] == over {
					internal += w
				}
			}
			if bestU == -1 || internal < bestCost {
				bestU, bestCost = u, internal
			}
		}
		if bestU == -1 {
			return
		}
		assign[bestU] = lightest
		loads[over] -= cg.weight[bestU]
		loads[lightest] += cg.weight[bestU]
	}
}

// refineWeighted runs boundary FM-style sweeps on a weighted coarse graph.
func refineWeighted(cg *coarseGraph, assign []int, nparts int) {
	var totalW float64
	for _, w := range cg.weight {
		totalW += w
	}
	minLoad := totalW / float64(nparts) * (1 - slack)
	maxLoad := totalW/float64(nparts)*(1+slack) + 1
	loads := make([]float64, nparts)
	for u, p := range assign {
		loads[p] += cg.weight[u]
	}

	for round := 0; round < refineRounds; round++ {
		moved := 0
		for u := 0; u < cg.n; u++ {
			cur := assign[u]
			if loads[cur]-cg.weight[u] < minLoad {
				continue
			}
			conn := make(map[int]float64)
			for v, w := range cg.adj[int32(u)] {
				conn[assign[v]] += w
			}
			bestP, bestGain := -1, 0.0
			for p, w := range conn {
				if p == cur || loads[p]+cg.weight[u] > maxLoad {
					continue
				}
				if gain := w - conn[cur]; gain > bestGain {
					bestGain, bestP = gain, p
				}
			}
			if bestP >= 0 {
				loads[cur] -= cg.weight[u]
				loads[bestP] += cg.weight[u]
				assign[u] = bestP
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}
