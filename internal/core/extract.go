package core

import (
	"slices"

	"mawilab/internal/simgraph"
	"mawilab/internal/trace"
)

// TrafficSet is the traffic designated by one alarm at a given granularity
// (§2.1.1): the traffic-unit ids used for similarity, plus references back
// to the matched flows/packets for labeling.
type TrafficSet struct {
	// IDs identify the traffic units as positions in the shared index,
	// ascending and duplicate-free: the packet indices (GranPacket, the same
	// slice as PacketIdx), the flow-table ids (GranUniFlow, the same slice
	// as FlowRefs) or, per conversation, the smaller flow-table id of the
	// flow and its reverse (GranBiFlow). Distinct traffic units never share
	// an id.
	IDs simgraph.Set
	// FlowRefs are indices into the shared flow table for every matched
	// unidirectional flow, sorted ascending.
	FlowRefs []int
	// PacketIdx are the matched packet indices (populated only at
	// GranPacket), sorted ascending.
	PacketIdx []int
}

// Size returns the number of traffic units in the set.
func (ts *TrafficSet) Size() int { return len(ts.IDs) }

// Extractor resolves alarms to TrafficSets against one trace through its
// shared trace.Index: the index's canonical flow table replaces the
// per-extractor flow map rebuild, and its posting lists prefilter each
// alarm filter to the flows that can match, replacing the old
// O(alarms × flows) full-table scan. This is the "traffic extractor /
// oracle" of §2.1.1.
type Extractor struct {
	ix   *trace.Index
	gran trace.Granularity
}

// NewExtractor returns an extractor over the shared index at granularity g.
// Construction is free — every flow structure lives in the index.
func NewExtractor(ix *trace.Index, g trace.Granularity) *Extractor {
	return &Extractor{ix: ix, gran: g}
}

// Granularity returns the traffic granularity of the extractor.
func (e *Extractor) Granularity() trace.Granularity { return e.gran }

// Index returns the shared trace index the extractor resolves against.
func (e *Extractor) Index() *trace.Index { return e.ix }

// FlowKey returns the flow key at table index i.
func (e *Extractor) FlowKey(i int) trace.FlowKey { return e.ix.Flow(i) }

// Extract resolves alarm a to its TrafficSet. Each filter visits its
// posting-list candidates (ascending flow ids, a superset of the matching
// flows), or the whole flow table when the filter constrains none of the
// posted fields.
func (e *Extractor) Extract(a *Alarm) *TrafficSet {
	ts := &TrafficSet{}
	for _, f := range a.Filters {
		if candidates, ok := e.ix.CandidateFlows(f); ok {
			for _, fi := range candidates {
				e.matchFlow(f, int(fi), ts)
			}
		} else {
			for fi := 0; fi < e.ix.Flows(); fi++ {
				e.matchFlow(f, fi, ts)
			}
		}
	}
	e.finish(ts)
	return ts
}

// matchFlow appends flow fi, and at GranPacket its packets inside the
// filter's interval, to the traffic set if it satisfies filter f. The
// slices collect duplicates across filters; finish sorts and compacts them.
func (e *Extractor) matchFlow(f trace.Filter, fi int, ts *TrafficSet) {
	if !f.MatchFlow(e.ix.Flow(fi)) {
		return
	}
	if e.gran != trace.GranPacket {
		if !f.TimeBounded() || e.anyPacketIn(fi, f.From, f.To) {
			ts.FlowRefs = append(ts.FlowRefs, fi)
		}
		return
	}
	n := len(ts.PacketIdx)
	for _, pi := range e.ix.FlowPackets(fi) {
		if f.TimeBounded() {
			sec := e.ix.Seconds[pi]
			if sec < f.From || sec >= f.To {
				continue
			}
		}
		ts.PacketIdx = append(ts.PacketIdx, int(pi))
	}
	if len(ts.PacketIdx) > n {
		ts.FlowRefs = append(ts.FlowRefs, fi)
	}
}

// finish turns the collected flow and packet references into ascending,
// duplicate-free sets and derives the traffic-unit ids of the granularity.
func (e *Extractor) finish(ts *TrafficSet) {
	ts.FlowRefs = sortedSet(ts.FlowRefs)
	switch e.gran {
	case trace.GranPacket:
		ts.PacketIdx = sortedSet(ts.PacketIdx)
		ts.IDs = ts.PacketIdx
	case trace.GranUniFlow:
		ts.IDs = ts.FlowRefs
	default:
		ids := make([]int, len(ts.FlowRefs))
		for i, fi := range ts.FlowRefs {
			ids[i] = fi
			if rev, ok := e.ix.FlowID(e.ix.Flow(fi).Reverse()); ok && rev < fi {
				ids[i] = rev
			}
		}
		ts.IDs = sortedSet(ids)
	}
}

// anyPacketIn reports whether flow fi has a packet in [from,to) seconds.
func (e *Extractor) anyPacketIn(fi int, from, to float64) bool {
	for _, pi := range e.ix.FlowPackets(fi) {
		sec := e.ix.Seconds[pi]
		if sec >= from && sec < to {
			return true
		}
	}
	return false
}

// sortedSet sorts s ascending and drops duplicates in place.
func sortedSet(s []int) []int {
	slices.Sort(s)
	return slices.Compact(s)
}

// CommunityTraffic is the union of member alarms' traffic, materialized for
// labeling: distinct flows and the packets they carry.
type CommunityTraffic struct {
	Flows   []trace.FlowKey
	Packets []int
}

// Union merges the traffic of several alarm sets into community traffic.
// At flow granularities the packets are all packets of the matched flows;
// at packet granularity they are exactly the matched packets.
func (e *Extractor) Union(sets []*TrafficSet) CommunityTraffic {
	var flowRefs []int
	for _, ts := range sets {
		flowRefs = append(flowRefs, ts.FlowRefs...)
	}
	flowRefs = sortedSet(flowRefs)
	ct := CommunityTraffic{Flows: make([]trace.FlowKey, len(flowRefs))}
	for i, fi := range flowRefs {
		ct.Flows[i] = e.ix.Flow(fi)
	}
	if e.gran == trace.GranPacket {
		var pkts []int
		for _, ts := range sets {
			pkts = append(pkts, ts.PacketIdx...)
		}
		ct.Packets = sortedSet(pkts)
	} else {
		for _, fi := range flowRefs {
			for _, pi := range e.ix.FlowPackets(fi) {
				ct.Packets = append(ct.Packets, int(pi))
			}
		}
		slices.Sort(ct.Packets)
	}
	return ct
}
