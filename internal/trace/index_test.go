package trace

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// indexTestTrace builds a seeded synthetic trace with enough flow reuse and
// timestamp collisions to exercise runs, postings and buckets.
func indexTestTrace(seed int64, n int) *Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &Trace{Name: "index-test"}
	for i := 0; i < n; i++ {
		tr.Append(Packet{
			TS:      int64(rng.Intn(30 * 1e6)),
			Src:     MakeIPv4(10, 0, byte(rng.Intn(4)), byte(rng.Intn(16))),
			Dst:     MakeIPv4(192, 168, byte(rng.Intn(4)), byte(rng.Intn(16))),
			SrcPort: uint16(1024 + rng.Intn(64)),
			DstPort: uint16(rng.Intn(8)*1111 + 80),
			Len:     uint16(40 + rng.Intn(1460)),
			Proto:   []Proto{TCP, UDP, ICMP}[rng.Intn(3)],
			Flags:   TCPFlags(rng.Intn(256)),
		})
	}
	tr.Sort()
	return tr
}

// TestBuildIndexMatchesReference is the differential for the
// materialized-trace path every batch and window index goes through:
// BuildIndex must be reflect.DeepEqual to the two-pass reference build —
// columns, flow order, packet runs, postings, time buckets and backing
// trace — on every repeated run.
func TestBuildIndexMatchesReference(t *testing.T) {
	tr := indexTestTrace(7, 4000)
	ref := buildIndexRef(tr)
	for run := 0; run < 3; run++ {
		ix, err := BuildIndex(context.Background(), tr, 1)
		if err != nil {
			t.Fatalf("run=%d: %v", run, err)
		}
		if !reflect.DeepEqual(ix, ref) {
			t.Fatalf("run=%d: BuildIndex differs from the reference build", run)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildIndex(ctx, tr, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled BuildIndex: %v, want context.Canceled", err)
	}
	unsorted := &Trace{Packets: []Packet{{TS: 2}, {TS: 1}}}
	if _, err := BuildIndex(context.Background(), unsorted, 1); !errors.Is(err, ErrUnsorted) {
		t.Fatalf("unsorted BuildIndex: %v, want ErrUnsorted", err)
	}
}

// TestIndexMatchesFlowIndex: the canonical flow table must carry exactly
// the flows and packet runs of a one-shot flow-key → packet-indices map, in
// the extractor's historical sort order.
func TestIndexMatchesFlowIndex(t *testing.T) {
	tr := indexTestTrace(11, 2500)
	ix := NewIndex(tr)
	want := make(map[FlowKey][]int)
	for i := range tr.Packets {
		k := tr.Packets[i].Flow()
		want[k] = append(want[k], i)
	}
	if ix.Flows() != len(want) {
		t.Fatalf("flows = %d, want %d", ix.Flows(), len(want))
	}
	for fi := 0; fi < ix.Flows(); fi++ {
		k := ix.Flow(fi)
		if fi > 0 && !flowLess(ix.Flow(fi-1), k) {
			t.Fatalf("flow table not strictly sorted at %d", fi)
		}
		run := ix.FlowPackets(fi)
		ref := want[k]
		if len(run) != len(ref) {
			t.Fatalf("flow %v: run length %d, want %d", k, len(run), len(ref))
		}
		for i, pi := range run {
			if int(pi) != ref[i] {
				t.Fatalf("flow %v: run[%d] = %d, want %d", k, i, pi, ref[i])
			}
			if ix.FlowIDOf(int(pi)) != int32(fi) {
				t.Fatalf("FlowIDOf(%d) = %d, want %d", pi, ix.FlowIDOf(int(pi)), fi)
			}
		}
	}
}

// TestIndexWindowMatchesTrace: the bucket-narrowed Window must agree with
// Trace.Window on randomized (including negative and out-of-range) bounds.
func TestIndexWindowMatchesTrace(t *testing.T) {
	tr := indexTestTrace(13, 1200)
	ix := NewIndex(tr)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		from := rng.Float64()*40 - 5
		to := from + rng.Float64()*10 - 2
		wlo, whi := tr.Window(from, to)
		ilo, ihi := ix.Window(from, to)
		if wlo != ilo || whi != ihi {
			t.Fatalf("Window(%v,%v) = [%d,%d), trace says [%d,%d)", from, to, ilo, ihi, wlo, whi)
		}
	}
	// Exact bucket boundaries.
	for _, sec := range []float64{0, 1, 1.5, 29, 30, 31} {
		wlo, whi := tr.Window(sec, sec+1)
		ilo, ihi := ix.Window(sec, sec+1)
		if wlo != ilo || whi != ihi {
			t.Fatalf("Window(%v) = [%d,%d), want [%d,%d)", sec, ilo, ihi, wlo, whi)
		}
	}
}

// TestIndexCandidateFlows: the posting lists must return a complete,
// ascending candidate set for every constrained field, and decline filters
// without a posted field.
// TestIndexFlowID: every flow key maps back to its own table id, and keys
// the trace does not carry (below, between and above the table) are absent.
func TestIndexFlowID(t *testing.T) {
	ix := NewIndex(indexTestTrace(5, 2000))
	for fi := 0; fi < ix.Flows(); fi++ {
		if got, ok := ix.FlowID(ix.Flow(fi)); !ok || got != fi {
			t.Fatalf("FlowID(Flow(%d)) = %d, %v", fi, got, ok)
		}
	}
	absent := []FlowKey{
		{Src: MakeIPv4(1, 0, 0, 1), Dst: MakeIPv4(192, 168, 0, 1), SrcPort: 1024, DstPort: 80, Proto: TCP},   // below every source
		{Src: MakeIPv4(10, 0, 0, 0), Dst: MakeIPv4(192, 168, 0, 0), SrcPort: 1, DstPort: 80, Proto: TCP},     // inside the table, no such port
		{Src: MakeIPv4(250, 0, 0, 1), Dst: MakeIPv4(192, 168, 0, 1), SrcPort: 1024, DstPort: 80, Proto: TCP}, // above every source
	}
	for _, k := range absent {
		if got, ok := ix.FlowID(k); ok || got != -1 {
			t.Errorf("FlowID(%v) = %d, %v for a flow the trace does not carry", k, got, ok)
		}
	}
	if _, ok := NewIndex(&Trace{}).FlowID(absent[0]); ok {
		t.Error("empty index reports a flow")
	}
}

func TestIndexCandidateFlows(t *testing.T) {
	tr := indexTestTrace(17, 2000)
	ix := NewIndex(tr)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		k := ix.Flow(rng.Intn(ix.Flows()))
		var f Filter
		switch i % 4 {
		case 0:
			f = NewFilter().WithSrc(k.Src)
		case 1:
			f = NewFilter().WithDst(k.Dst)
		case 2:
			f = NewFilter().WithDstPort(k.DstPort)
		default:
			f = NewFilter().WithSrc(k.Src).WithDst(k.Dst).WithDstPort(k.DstPort)
		}
		cands, ok := ix.CandidateFlows(f)
		if !ok {
			t.Fatalf("filter %v: posting lists declined", f)
		}
		if !sort.SliceIsSorted(cands, func(a, b int) bool { return cands[a] < cands[b] }) {
			t.Fatalf("filter %v: candidates not ascending", f)
		}
		inCands := make(map[int32]struct{}, len(cands))
		for _, fi := range cands {
			inCands[fi] = struct{}{}
		}
		for fi := 0; fi < ix.Flows(); fi++ {
			if _, ok := inCands[int32(fi)]; !ok && f.MatchFlow(ix.Flow(fi)) {
				t.Fatalf("filter %v: matching flow %d missing from candidates", f, fi)
			}
		}
	}
	if _, ok := ix.CandidateFlows(NewFilter()); ok {
		t.Fatal("match-all filter should decline the prefilter")
	}
	if _, ok := ix.CandidateFlows(NewFilter().WithSrcPort(1030).WithProto(TCP)); ok {
		t.Fatal("srcPort/proto-only filter should decline the prefilter")
	}
	// Absent value: prefilter accepts with zero candidates.
	if cands, ok := ix.CandidateFlows(NewFilter().WithSrc(MakeIPv4(1, 2, 3, 4))); !ok || len(cands) != 0 {
		t.Fatalf("unknown src: cands=%d ok=%v, want empty accept", len(cands), ok)
	}
}

// TestIndexEmptyTrace: all accessors stay well-defined on an empty trace.
func TestIndexEmptyTrace(t *testing.T) {
	ix := NewIndex(&Trace{})
	if ix.Len() != 0 || ix.Flows() != 0 || ix.Duration() != 0 {
		t.Fatalf("empty index: len=%d flows=%d dur=%v", ix.Len(), ix.Flows(), ix.Duration())
	}
	if lo, hi := ix.Window(0, 10); lo != 0 || hi != 0 {
		t.Fatalf("empty window = [%d,%d)", lo, hi)
	}
	if ix.Trace() == nil {
		t.Fatal("trace accessor nil")
	}
}
