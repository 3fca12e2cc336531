package graph

import (
	"fmt"
	"slices"
)

// ArcBuckets is the retained CSR-of-pairs bucketing of every cross-partition
// arc: the counting sweep of AllDBGs, kept around instead of discarded. Pair
// (s→t) owns the arc slice [Off[s*NParts+t], Off[s*NParts+t+1]) of Srcs/Dsts,
// in (src ascending, dst ascending per src) order — the order the CSR sweep
// emits, which is deterministic for a given (graph, partition).
//
// The bucketing is the unit of incremental replanning: two partitions of the
// same graph produce byte-identical DBGs for exactly the pairs whose buckets
// are identical (the graph's arc set is deduplicated, so a bucket *is* the
// pair's cross-edge set), which is what DiffDBGs exploits.
type ArcBuckets struct {
	NParts int
	// Off has NParts²+1 entries; pair idx owns Srcs[Off[idx]:Off[idx+1]].
	Off []int
	// Srcs/Dsts are the bucketed arc endpoints (global node ids).
	Srcs, Dsts []int32
}

// ExtractArcBuckets runs the single O(N+E) sweep that buckets every
// cross-partition arc by ordered pair. Nodes whose partition id falls outside
// [0, nparts) contribute no arcs (matching AllDBGs); a short partition vector
// panics — callers wanting an error instead should run ValidatePartition
// first (core.BuildAllPlans and the Repartition entry points do).
func ExtractArcBuckets(g *Graph, part []int, nparts int) *ArcBuckets {
	return ExtractArcBucketsInto(nil, g, part, nparts)
}

// ExtractArcBucketsInto is ExtractArcBuckets with scratch reuse: when prev is
// non-nil its Off/Srcs/Dsts backing arrays are recycled (grown only when the
// new bucketing needs more room), so a repartition-in-the-loop caller extracts
// each round's bucketing with zero steady-state allocation. prev's contents
// are destroyed; the returned value is a fresh header (callers holding the old
// header — e.g. a PlanCache about to diff old vs new — must pass a bucketing
// they own exclusively). prev == nil allocates everything, which is exactly
// ExtractArcBuckets.
func ExtractArcBucketsInto(prev *ArcBuckets, g *Graph, part []int, nparts int) *ArcBuckets {
	if len(part) != g.NumNodes() {
		panic(fmt.Sprintf("graph: partition vector len %d want %d", len(part), g.NumNodes()))
	}
	npairs := nparts * nparts
	var off []int
	if prev != nil && cap(prev.Off) >= npairs+1 {
		off = prev.Off[:npairs+1]
		for i := range off {
			off[i] = 0
		}
	} else {
		off = make([]int, npairs+1)
	}
	counts := off[1:] // count into the offset slots, then prefix-sum in place
	for u := int32(0); int(u) < g.NumNodes(); u++ {
		p := part[u]
		if p < 0 || p >= nparts {
			continue
		}
		for _, v := range g.Neighbors(u) {
			q := part[v]
			if q == p || q < 0 || q >= nparts {
				continue
			}
			counts[p*nparts+q]++
		}
	}
	for i := 1; i <= npairs; i++ {
		off[i] += off[i-1]
	}
	narcs := off[npairs]
	b := &ArcBuckets{NParts: nparts, Off: off}
	if prev != nil && cap(prev.Srcs) >= narcs && cap(prev.Dsts) >= narcs {
		b.Srcs, b.Dsts = prev.Srcs[:narcs], prev.Dsts[:narcs]
	} else {
		b.Srcs = make([]int32, narcs)
		b.Dsts = make([]int32, narcs)
	}
	cur := make([]int, npairs) // fill cursors (npairs ints — noise next to the arc arrays)
	copy(cur, off[:npairs])
	for u := int32(0); int(u) < g.NumNodes(); u++ {
		p := part[u]
		if p < 0 || p >= nparts {
			continue
		}
		for _, v := range g.Neighbors(u) {
			q := part[v]
			if q == p || q < 0 || q >= nparts {
				continue
			}
			k := cur[p*nparts+q]
			b.Srcs[k] = u
			b.Dsts[k] = v
			cur[p*nparts+q] = k + 1
		}
	}
	return b
}

// NumArcs returns the total cross-partition arc count.
func (b *ArcBuckets) NumArcs() int { return b.Off[len(b.Off)-1] }

// Pair returns ordered pair idx's arc endpoints (views into the bucketing;
// callers must not mutate them).
func (b *ArcBuckets) Pair(idx int) (srcs, dsts []int32) {
	return b.Srcs[b.Off[idx]:b.Off[idx+1]], b.Dsts[b.Off[idx]:b.Off[idx+1]]
}

// DBG materializes pair idx's directed bipartite boundary graph, or nil when
// the bucket is empty. The result is byte-identical to ExtractDBG for the
// same (graph, partition, pair).
func (b *ArcBuckets) DBG(idx int) *DBG {
	srcs, dsts := b.Pair(idx)
	if len(srcs) == 0 {
		return nil
	}
	d, _ := dbgFromArcs(idx/b.NParts, idx%b.NParts, srcs, dsts, nil)
	return d
}

// DBGs materializes every non-empty pair's DBG in ascending (src, dst) order
// — the output contract of AllDBGs. Returns nil when nothing crosses.
func (b *ArcBuckets) DBGs() []*DBG {
	if b.NumArcs() == 0 {
		return nil
	}
	out := make([]*DBG, 0, b.NParts*b.NParts)
	var scratch []int32 // sink-sort buffer shared across buckets
	for idx := 0; idx < b.NParts*b.NParts; idx++ {
		srcs, dsts := b.Pair(idx)
		if len(srcs) == 0 {
			continue
		}
		var d *DBG
		d, scratch = dbgFromArcs(idx/b.NParts, idx%b.NParts, srcs, dsts, scratch)
		out = append(out, d)
	}
	return out
}

// DiffDBGs compares two bucketings of the same graph in one sweep and returns
// the ascending pair indices whose arc buckets differ. Because the CSR sweep
// is deterministic and the graph's arc set is deduplicated, equal buckets
// guarantee byte-identical DBGs — so a pair absent from the diff can reuse
// its cached DBG, grouping, and plan verbatim, and the dirty set is exactly
// the pairs whose boundary structure changed (FuzzDiffDBGs checks both
// directions differentially). Panics when the two bucketings disagree on the
// partition count.
func DiffDBGs(old, new *ArcBuckets) []int {
	if old.NParts != new.NParts {
		panic(fmt.Sprintf("graph: DiffDBGs partition counts %d vs %d", old.NParts, new.NParts))
	}
	npairs := old.NParts * old.NParts
	// Length pass first: a pair whose bucket length changed is dirty with no
	// arc comparison at all. When every jointly non-empty pair already differs
	// by length — the signature of a global repartition, where the dirty set
	// is provably total from the offsets alone — the O(arcs) element scan is
	// skipped entirely and the diff costs O(nparts²).
	var dirty []int
	var scan []int // equal-length non-empty pairs still needing the arc scan
	for idx := 0; idx < npairs; idx++ {
		olen := old.Off[idx+1] - old.Off[idx]
		nlen := new.Off[idx+1] - new.Off[idx]
		switch {
		case olen != nlen:
			dirty = append(dirty, idx)
		case olen > 0:
			scan = append(scan, idx)
		}
	}
	if len(scan) == 0 {
		return dirty
	}
	merge := false
	for _, idx := range scan {
		o0, n0 := old.Off[idx], new.Off[idx]
		ln := old.Off[idx+1] - o0
		for k := 0; k < ln; k++ {
			if old.Srcs[o0+k] != new.Srcs[n0+k] || old.Dsts[o0+k] != new.Dsts[n0+k] {
				merge = merge || (len(dirty) > 0 && dirty[len(dirty)-1] > idx)
				dirty = append(dirty, idx)
				break
			}
		}
	}
	if merge {
		slices.Sort(dirty) // restore the ascending-pair contract
	}
	return dirty
}

// ValidatePartition checks a node→partition assignment at the API boundary:
// the vector must cover all n nodes, every id must fall in [0, nparts), and
// every partition must own at least one node. Planning and repartitioning
// entry points (core.BuildAllPlans, PlanCache.Repartition, the engine and
// cluster Repartition) run this so hostile inputs surface as errors instead
// of panics (or silently dropped arcs) deep in the extraction sweep.
func ValidatePartition(n int, part []int, nparts int) error {
	if nparts < 1 {
		return fmt.Errorf("graph: partition count %d < 1", nparts)
	}
	if len(part) != n {
		return fmt.Errorf("graph: partition vector has %d entries, graph has %d nodes", len(part), n)
	}
	occupied := make([]bool, nparts)
	for u, p := range part {
		if p < 0 || p >= nparts {
			return fmt.Errorf("graph: node %d assigned to partition %d, want [0,%d)", u, p, nparts)
		}
		occupied[p] = true
	}
	for p, ok := range occupied {
		if !ok {
			return fmt.Errorf("graph: partition %d is empty", p)
		}
	}
	return nil
}
