package trace

import (
	"context"
	"sort"
)

// bucketTS is the fixed time-bucket width of the index, in microseconds.
// One-second buckets keep the offset table small (one entry per trace
// second) while narrowing every Window search to at most one bucket.
const bucketTS = int64(1e6)

// Index is an immutable, once-per-trace columnar view of a sorted Trace:
// structure-of-arrays packet columns, a canonical sorted flow table with
// packet-index runs, per-field posting lists (source IP, destination IP and
// destination port → flow ids) and fixed one-second time-bucket offsets.
//
// The pipeline builds the index once per trace and shares it across every
// consumer — the detector fan-out, the similarity estimator's traffic
// extractor, community labeling and the Table 1 heuristics — replacing
// per-consumer flow-table rebuilds and full-trace rescans. The column
// slices are exported for hot loops; neither they nor the trace may be
// mutated after the build.
//
// Every index is built by an IndexBuilder (DecodeIndex, SegmentWriter and
// BuildIndex all feed one), which is sequential and sorts the flow table
// canonically, so no structure depends on goroutine scheduling.
type Index struct {
	tr *Trace

	// Packet columns, aligned with the trace's packet order.
	TS      []int64
	Seconds []float64
	Src     []IPv4
	Dst     []IPv4
	SrcPort []uint16
	DstPort []uint16
	PktLen  []uint16
	Proto   []Proto
	Flags   []TCPFlags

	// Canonical flow table: flows sorted by (Src, Dst, SrcPort, DstPort,
	// Proto); flowPkts holds each flow's packet indices (ascending) as one
	// contiguous run delimited by flowOff; flowOf maps a packet index back
	// to its flow id.
	flows    []FlowKey
	flowOff  []int32
	flowPkts []int32
	flowOf   []int32

	// Posting lists: header-field value → ascending flow ids.
	bySrc     map[IPv4][]int32
	byDst     map[IPv4][]int32
	byDstPort map[uint16][]int32

	// bucketLo[b] is the first packet index with TS >= b*bucketTS; the
	// final entry is the packet count. Requires non-negative, sorted
	// timestamps (the trace model).
	bucketLo []int32

	// arena, when non-nil, is the pooled backing storage of a fused
	// IndexBuilder build; Release returns it for reuse. Detached builds
	// leave it nil.
	arena *indexArena
}

// NewIndex builds the index of a sorted trace. It is the convenience for
// tests and one-shot tools; it panics on a trace that violates the sorted
// trace model (see BuildIndex).
func NewIndex(tr *Trace) *Index {
	ix, err := BuildIndex(context.Background(), tr, 1)
	if err != nil {
		panic("trace: index build failed: " + err.Error())
	}
	return ix
}

// BuildIndex builds the index of a materialized trace by feeding its packets
// through a detached IndexBuilder, so the index owns its buffers (Release is
// a no-op) and keeps tr as its backing trace. The trace must be sorted
// (Trace.Sort) with non-negative timestamps; violations return ErrUnsorted.
// workers is accepted for call-site compatibility and ignored: the build is
// sequential, like every other index build.
func BuildIndex(ctx context.Context, tr *Trace, workers int) (*Index, error) {
	_ = workers
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b := newDetachedBuilder()
	b.a.reserve(tr.Len())
	for i := range tr.Packets {
		if err := b.Add(tr.Packets[i]); err != nil {
			return nil, err
		}
	}
	return b.finish(tr), nil
}

// flowLess is the canonical flow-table order: by source, destination,
// source port, destination port, protocol.
func flowLess(a, b FlowKey) bool {
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	if a.Dst != b.Dst {
		return a.Dst < b.Dst
	}
	if a.SrcPort != b.SrcPort {
		return a.SrcPort < b.SrcPort
	}
	if a.DstPort != b.DstPort {
		return a.DstPort < b.DstPort
	}
	return a.Proto < b.Proto
}

// Trace returns the indexed trace.
func (ix *Index) Trace() *Trace { return ix.tr }

// Len returns the number of indexed packets.
func (ix *Index) Len() int { return len(ix.TS) }

// Duration returns the trace duration in seconds (timestamp of the last
// packet; 0 when empty), matching Trace.Duration.
func (ix *Index) Duration() float64 {
	if len(ix.Seconds) == 0 {
		return 0
	}
	return ix.Seconds[len(ix.Seconds)-1]
}

// PacketAt returns the full packet record at index i, for consumers that
// need the row form (e.g. rule-mining transactions) rather than columns. The
// row is synthesized from the columns, so it works on fused-built indexes
// that never materialized a []Packet.
func (ix *Index) PacketAt(i int) Packet {
	return Packet{
		TS:      ix.TS[i],
		Src:     ix.Src[i],
		Dst:     ix.Dst[i],
		SrcPort: ix.SrcPort[i],
		DstPort: ix.DstPort[i],
		Len:     ix.PktLen[i],
		Proto:   ix.Proto[i],
		Flags:   ix.Flags[i],
	}
}

// Digest returns the index's canonical content digest: Trace.Digest's
// record encoding over the packet columns, so a fused-built index and the
// trace it decoded from always agree. The serve path keys its label store
// and dedup on it.
func (ix *Index) Digest() string { return digestRecords(ix.Len(), ix.PacketAt) }

// Flows returns the number of distinct unidirectional flows.
func (ix *Index) Flows() int { return len(ix.flows) }

// Flow returns the flow key at flow-table index fi.
func (ix *Index) Flow(fi int) FlowKey { return ix.flows[fi] }

// FlowPackets returns flow fi's packet indices, ascending. The slice
// aliases the index and must not be mutated.
func (ix *Index) FlowPackets(fi int) []int32 {
	return ix.flowPkts[ix.flowOff[fi]:ix.flowOff[fi+1]]
}

// FlowID returns the flow-table id of key k and true, or -1 and false when
// the trace carries no such flow. It binary-searches the canonically sorted
// flow table.
func (ix *Index) FlowID(k FlowKey) (int, bool) {
	fi := sort.Search(len(ix.flows), func(i int) bool { return !flowLess(ix.flows[i], k) })
	if fi == len(ix.flows) || ix.flows[fi] != k {
		return -1, false
	}
	return fi, true
}

// FlowIDOf returns the flow-table id of packet pi.
func (ix *Index) FlowIDOf(pi int) int32 { return ix.flowOf[pi] }

// CandidateFlows returns the posting list most selective for the filter's
// constrained header fields — ascending flow ids guaranteed to contain
// every flow the filter can match — and true. When the filter constrains
// none of the posted fields (source IP, destination IP, destination port)
// it returns false and the caller must scan the flow table. Candidates
// still require a Filter.MatchFlow check; the list only prunes.
func (ix *Index) CandidateFlows(f Filter) ([]int32, bool) {
	var best []int32
	found := false
	consider := func(l []int32) {
		if !found || len(l) < len(best) {
			best, found = l, true
		}
	}
	if f.Src != nil {
		consider(ix.bySrc[*f.Src])
	}
	if f.Dst != nil {
		consider(ix.byDst[*f.Dst])
	}
	if f.DstPort != nil {
		consider(ix.byDstPort[*f.DstPort])
	}
	return best, found
}

// Window returns the index range [lo,hi) of packets with timestamps in
// [from,to) seconds — identical to Trace.Window, but the time buckets
// narrow each boundary search to one bucket.
func (ix *Index) Window(from, to float64) (lo, hi int) {
	return ix.searchTS(int64(from * 1e6)), ix.searchTS(int64(to * 1e6))
}

// searchTS returns the first packet index with TS >= ts.
func (ix *Index) searchTS(ts int64) int {
	n := len(ix.TS)
	if n == 0 || ts <= 0 {
		return 0
	}
	b := ts / bucketTS
	if b >= int64(len(ix.bucketLo)-1) {
		return n
	}
	lo, hi := int(ix.bucketLo[b]), int(ix.bucketLo[b+1])
	return lo + sort.Search(hi-lo, func(i int) bool { return ix.TS[lo+i] >= ts })
}
