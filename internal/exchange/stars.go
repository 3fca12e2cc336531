package exchange

import "scgnn/internal/compress"

// Stars is one direction of a baseline pair's halo stars — DGL's halo
// exchange: each boundary row ships once per peer, and the receiver fans it
// out over the row's arcs into the peer. Star k is sent by node Sender[k] and
// spans positions [Off[k], Off[k+1]); position p is the arc Arc(p) of the
// pair's bucket and delivers to node Recv(p). Forward a star is a run of one
// source in bucket order (source ascending, then sink), backward the arcs
// into one sink. Stars are ordered by sender and each star's arcs by
// receiver, so within a frame every receiving row sums its senders' terms in
// ascending sender order.
type Stars struct {
	Off, Sender []int32
	// Perm maps a backward position to its arc (nil forward: positions are
	// the bucket order). Ends holds the arcs' receiving ends in bucket order:
	// sinks forward, sources backward.
	Perm, Ends []int32
}

// Arc returns the bucket index of position p's arc.
func (s *Stars) Arc(p int32) int32 {
	if s.Perm == nil {
		return p
	}
	return s.Perm[p]
}

// Recv returns the node position p delivers to.
func (s *Stars) Recv(p int32) int32 { return s.Ends[s.Arc(p)] }

// Survives reports whether position p's arc survives edge coin c: edge
// sampling keys an arc's coin by its bucket index, whichever direction the
// round runs. Walk and the receivers that fan a star out both ask it.
func (s *Stars) Survives(c *compress.Sampler, p int32) bool { return c.Coin(int64(s.Arc(p))) }

// Stars returns pair idx's stars for the direction, on a baseline topology.
// The arcs' ends are read off the current bucketing, which holds a clean
// pair's arcs unchanged across a Repartition.
func (t *Topology) Stars(idx int, backward bool) Stars {
	srcs, dsts := t.buckets.Pair(idx)
	if backward {
		st := t.stars[idx][1]
		st.Ends = srcs
		return st
	}
	st := t.stars[idx][0]
	st.Ends = dsts
	return st
}

// buildStars derives one pair's stars from its bucket (srcs[p]→dsts[p], in
// bucket order) in O(arcs + sinks): forward stars are the source runs,
// backward stars one stable counting sort of the arcs by sink, which keeps
// each sink's arcs in ascending source order. sinks is the sink partition's
// nodes, ascending; cnt a scratch of one entry per node, all zero on entry and
// on return.
func buildStars(srcs, dsts, sinks, cnt []int32) (st [2]Stars) {
	if len(srcs) == 0 {
		return st
	}
	nsrc, ndst := 0, 0
	for p, v := range dsts {
		if p == 0 || srcs[p] != srcs[p-1] {
			nsrc++
		}
		if cnt[v] == 0 {
			ndst++
		}
		cnt[v]++
	}
	fwd := Stars{Off: make([]int32, 0, nsrc+1), Sender: make([]int32, 0, nsrc)}
	for p, u := range srcs {
		if p == 0 || u != srcs[p-1] {
			fwd.Off, fwd.Sender = append(fwd.Off, int32(p)), append(fwd.Sender, u)
		}
	}
	fwd.Off = append(fwd.Off, int32(len(srcs)))
	bwd := Stars{Off: make([]int32, 0, ndst+1), Sender: make([]int32, 0, ndst), Perm: make([]int32, len(srcs))}
	var at int32
	for _, v := range sinks {
		if k := cnt[v]; k > 0 {
			bwd.Off, bwd.Sender = append(bwd.Off, at), append(bwd.Sender, v)
			cnt[v], at = at, at+k // cnt[v] is now v's next position
		}
	}
	bwd.Off = append(bwd.Off, at)
	for p, v := range dsts {
		bwd.Perm[cnt[v]] = int32(p)
		cnt[v]++
	}
	for _, v := range dsts {
		cnt[v] = 0
	}
	return [2]Stars{fwd, bwd}
}
