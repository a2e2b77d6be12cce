package trace

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
)

// appendAll replays a trace through a writer and collects sealed segments,
// including the final Close seal.
func appendAll(t *testing.T, w *SegmentWriter, tr *Trace) []*Segment {
	t.Helper()
	var segs []*Segment
	for _, p := range tr.Packets {
		seg, err := w.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		if seg != nil {
			segs = append(segs, seg)
		}
	}
	seg, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if seg != nil {
		segs = append(segs, seg)
	}
	return segs
}

func TestSegmentWriterSealsOnGrid(t *testing.T) {
	// 400 packets at 1ms spacing: 0 .. 0.399s. Grid of 0.1s → 4 segments.
	tr := buildTrace(400, 7)
	w := NewSegmentWriter(context.Background(), 0.1, 1)
	segs := appendAll(t, w, tr)
	if len(segs) != 4 {
		t.Fatalf("segments = %d, want 4", len(segs))
	}
	total := 0
	for i, s := range segs {
		if s.Seq != i {
			t.Errorf("segment %d: Seq = %d", i, s.Seq)
		}
		// Bounds derive from the integer-microsecond grid, so expectations
		// must too (float64(i)*0.1 accumulates rounding error).
		wantStart := float64(i) * 100000 / 1e6
		wantEnd := float64(i+1) * 100000 / 1e6
		if s.Start != wantStart || s.End != wantEnd {
			t.Errorf("segment %d spans [%g,%g), want [%g,%g)", i, s.Start, s.End, wantStart, wantEnd)
		}
		if s.Len() != 100 {
			t.Errorf("segment %d has %d packets, want 100", i, s.Len())
		}
		lo := int64(s.Start * 1e6)
		for _, p := range s.Trace.Packets {
			if p.TS < lo || p.TS >= lo+100000 {
				t.Fatalf("segment %d contains TS %d outside [%d,%d)", i, p.TS, lo, lo+100000)
			}
		}
		total += s.Len()
	}
	if total != tr.Len() {
		t.Errorf("segments carry %d packets, stream had %d", total, tr.Len())
	}
}

// TestSegmentBoundaryExact: a packet exactly on a grid boundary opens the
// next segment — spans are half-open [k*S, (k+1)*S).
func TestSegmentBoundaryExact(t *testing.T) {
	tr := &Trace{}
	tr.Append(Packet{TS: 0})
	tr.Append(Packet{TS: 999_999})
	tr.Append(Packet{TS: 1_000_000}) // exactly 1s: second segment
	w := NewSegmentWriter(context.Background(), 1, 1)
	segs := appendAll(t, w, tr)
	if len(segs) != 2 || segs[0].Len() != 2 || segs[1].Len() != 1 {
		t.Fatalf("segments = %+v, want 2 packets then 1", segs)
	}
}

// TestSegmentWriterSkipsEmptySpans: grid spans with no packets are skipped —
// seq numbers stay dense while Start/End report the real grid position.
func TestSegmentWriterSkipsEmptySpans(t *testing.T) {
	tr := &Trace{}
	tr.Append(Packet{TS: 0})
	tr.Append(Packet{TS: 5_500_000}) // skips spans [1,2)..[5,6) start
	w := NewSegmentWriter(context.Background(), 1, 1)
	segs := appendAll(t, w, tr)
	if len(segs) != 2 {
		t.Fatalf("segments = %d, want 2 (empty spans skipped)", len(segs))
	}
	if segs[0].Seq != 0 || segs[1].Seq != 1 {
		t.Errorf("seqs = %d,%d, want dense 0,1", segs[0].Seq, segs[1].Seq)
	}
	if segs[1].Start != 5 || segs[1].End != 6 {
		t.Errorf("second segment spans [%g,%g), want [5,6)", segs[1].Start, segs[1].End)
	}
}

func TestSegmentWriterRejectsOutOfOrder(t *testing.T) {
	w := NewSegmentWriter(context.Background(), 1, 1)
	if _, err := w.Append(Packet{TS: 1000}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(Packet{TS: 999}); err == nil {
		t.Fatal("out-of-order packet accepted")
	}
	if _, err := w.Append(Packet{TS: -1}); err == nil {
		t.Fatal("negative timestamp accepted")
	}
}

func TestSegmentWriterClosed(t *testing.T) {
	w := NewSegmentWriter(context.Background(), 1, 1)
	if seg, err := w.Close(); err != nil || seg != nil {
		t.Fatalf("empty Close = (%v, %v), want (nil, nil)", seg, err)
	}
	if _, err := w.Append(Packet{}); !errors.Is(err, ErrSegmentWriterClosed) {
		t.Fatalf("Append after Close: %v, want ErrSegmentWriterClosed", err)
	}
	if _, err := w.Close(); !errors.Is(err, ErrSegmentWriterClosed) {
		t.Fatalf("double Close: %v, want ErrSegmentWriterClosed", err)
	}
}

// TestSegmentIndexMatchesDirectBuild: a sealed segment's index is the same
// structure the two-pass reference build makes over the segment's packets —
// the per-segment face of the repo's determinism contract.
func TestSegmentIndexMatchesDirectBuild(t *testing.T) {
	tr := buildTrace(600, 11)
	w := NewSegmentWriter(context.Background(), 0.15, 1)
	for _, s := range appendAll(t, w, tr) {
		if !reflect.DeepEqual(s.Index, buildIndexRef(s.Trace)) {
			t.Fatalf("segment %d index differs from the reference build", s.Seq)
		}
	}
}

func TestSealTraceCanonical(t *testing.T) {
	tr := buildTrace(200, 3)
	seg, err := SealTrace(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Trace != tr {
		t.Error("canonical segment must alias the materialized trace, not copy it")
	}
	if seg.Start != 0 || !math.IsInf(seg.End, 1) {
		t.Errorf("canonical segment spans [%g,%g), want [0,+Inf)", seg.Start, seg.End)
	}
	if !reflect.DeepEqual(seg.Index, buildIndexRef(tr)) {
		t.Error("canonical segment index differs from the whole-trace index")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SealTrace(ctx, tr); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled SealTrace: %v, want context.Canceled", err)
	}
}

// replayChan fills a buffered channel with the trace's packets and closes
// it, so iterator consumers never need a producer goroutine.
func replayChan(tr *Trace) <-chan Packet {
	ch := make(chan Packet, tr.Len())
	for _, p := range tr.Packets {
		ch <- p
	}
	close(ch)
	return ch
}

func TestSegmentsIteratorMatchesWriter(t *testing.T) {
	tr := buildTrace(500, 5)
	want := appendAll(t, NewSegmentWriter(context.Background(), 0.12, 1), tr)
	var got []*Segment
	for seg, err := range Segments(context.Background(), replayChan(tr), 0.12) {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, seg)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("iterator sealed %d segments, writer %d — or contents differ", len(got), len(want))
	}
}

func TestSegmentsIteratorCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Channel left open and empty: only the context can end the iteration.
	ch := make(chan Packet)
	var sawErr error
	for seg, err := range Segments(ctx, ch, 1) {
		if seg != nil {
			t.Fatal("segment yielded under a cancelled context")
		}
		sawErr = err
	}
	if !errors.Is(sawErr, context.Canceled) {
		t.Fatalf("iterator error = %v, want context.Canceled", sawErr)
	}
}

func TestSegmentsIteratorPropagatesAppendError(t *testing.T) {
	tr := &Trace{}
	tr.Append(Packet{TS: 2000})
	tr.Append(Packet{TS: 1000}) // out of order
	var sawErr error
	for _, err := range Segments(context.Background(), replayChan(tr), 1) {
		if err != nil {
			sawErr = err
		}
	}
	if sawErr == nil {
		t.Fatal("out-of-order stream did not surface an error")
	}
}

// TestSegmentsIteratorEarlyBreak: the consumer may stop mid-stream without
// touching remaining packets — the iterator contract RunStream relies on
// when a window consumer cancels.
func TestSegmentsIteratorEarlyBreak(t *testing.T) {
	tr := buildTrace(400, 9)
	n := 0
	for _, err := range Segments(context.Background(), replayChan(tr), 0.1) {
		if err != nil {
			t.Fatal(err)
		}
		n++
		if n == 2 {
			break
		}
	}
	if n != 2 {
		t.Fatalf("consumed %d segments, want 2", n)
	}
}
