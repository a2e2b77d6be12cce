package trace

import "sort"

// buildIndexRef is the pinned two-pass reference build of a sorted trace:
// fill the columns while collecting each flow's packet run in a map, then
// sort the flow keys canonically and lay out runs, posting lists and time
// buckets. It shares nothing with IndexBuilder but flowLess and the Index
// layout, so the differential tests that compare the two catch a fault in
// the builder's open-addressing table, counting sort or posting slabs.
func buildIndexRef(tr *Trace) *Index {
	n := tr.Len()
	ix := &Index{
		tr:      tr,
		TS:      make([]int64, n),
		Seconds: make([]float64, n),
		Src:     make([]IPv4, n),
		Dst:     make([]IPv4, n),
		SrcPort: make([]uint16, n),
		DstPort: make([]uint16, n),
		PktLen:  make([]uint16, n),
		Proto:   make([]Proto, n),
		Flags:   make([]TCPFlags, n),
		flowOf:  make([]int32, n),
	}
	runs := make(map[FlowKey][]int32)
	for i := range tr.Packets {
		p := &tr.Packets[i]
		ix.TS[i] = p.TS
		ix.Seconds[i] = p.Seconds()
		ix.Src[i] = p.Src
		ix.Dst[i] = p.Dst
		ix.SrcPort[i] = p.SrcPort
		ix.DstPort[i] = p.DstPort
		ix.PktLen[i] = p.Len
		ix.Proto[i] = p.Proto
		ix.Flags[i] = p.Flags
		k := p.Flow()
		runs[k] = append(runs[k], int32(i))
	}

	ix.flows = make([]FlowKey, 0, len(runs))
	for k := range runs {
		ix.flows = append(ix.flows, k)
	}
	sort.Slice(ix.flows, func(i, j int) bool { return flowLess(ix.flows[i], ix.flows[j]) })

	ix.flowOff = make([]int32, len(ix.flows)+1)
	ix.flowPkts = make([]int32, 0, n)
	ix.bySrc = make(map[IPv4][]int32)
	ix.byDst = make(map[IPv4][]int32)
	ix.byDstPort = make(map[uint16][]int32)
	for fi, k := range ix.flows {
		run := runs[k]
		ix.flowPkts = append(ix.flowPkts, run...)
		ix.flowOff[fi+1] = int32(len(ix.flowPkts))
		for _, pi := range run {
			ix.flowOf[pi] = int32(fi)
		}
		ix.bySrc[k.Src] = append(ix.bySrc[k.Src], int32(fi))
		ix.byDst[k.Dst] = append(ix.byDst[k.Dst], int32(fi))
		ix.byDstPort[k.DstPort] = append(ix.byDstPort[k.DstPort], int32(fi))
	}

	nb := 0
	if n > 0 {
		nb = int(ix.TS[n-1]/bucketTS) + 1
	}
	ix.bucketLo = make([]int32, nb+1)
	pi := 0
	for b := 0; b <= nb; b++ {
		for pi < n && ix.TS[pi] < int64(b)*bucketTS {
			pi++
		}
		ix.bucketLo[b] = int32(pi)
	}
	return ix
}
