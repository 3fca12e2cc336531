package exchange

// Stars is one direction of a baseline pair's halo stars — DGL's halo
// exchange: each boundary row ships once per peer, and the receiver fans it
// out over the row's arcs into the peer. Star k is sent by node Sender[k] and
// delivers to the nodes Recv[Off[k]:Off[k+1]], one per arc. Forward a star is
// a run of one source in bucket order (source ascending, then sink), and Recv
// is the bucket's sinks; backward a star is the arcs into one sink, and Recv
// their sources, which the star stores. Stars are ordered by sender and each
// star's arcs by receiver, so within a frame every receiving row sums its
// senders' terms in ascending sender order.
type Stars struct {
	Off, Sender, Recv []int32
}

// Stars returns pair idx's stars for the direction, on a baseline topology.
// Forward receivers are read off the current bucketing, which holds a clean
// pair's arcs unchanged across a Repartition.
func (t *Topology) Stars(idx int, backward bool) Stars {
	if backward {
		return t.stars[idx][1]
	}
	st := t.stars[idx][0]
	_, st.Recv = t.buckets.Pair(idx)
	return st
}

// buildStars derives one pair's stars from its bucket (srcs[p]→dsts[p], in
// bucket order) in O(arcs + sinks): forward stars are the source runs,
// backward stars one stable counting sort of the arcs' sources by sink, which
// keeps each sink's arcs in ascending source order. sinks is the sink
// partition's nodes, ascending; cnt a scratch of one entry per node, all zero
// on entry and on return.
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
	bwd := Stars{Off: make([]int32, 0, ndst+1), Sender: make([]int32, 0, ndst), Recv: make([]int32, len(srcs))}
	var at int32
	for _, v := range sinks {
		if k := cnt[v]; k > 0 {
			bwd.Off, bwd.Sender = append(bwd.Off, at), append(bwd.Sender, v)
			cnt[v], at = at, at+k // cnt[v] is now v's next position
		}
	}
	bwd.Off = append(bwd.Off, at)
	for p, v := range dsts {
		bwd.Recv[cnt[v]] = srcs[p]
		cnt[v]++
	}
	for _, v := range dsts {
		cnt[v] = 0
	}
	return [2]Stars{fwd, bwd}
}
