package trace

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
)

// Segment is one sealed, immutable span of a packet stream: the packets with
// timestamps in [Start, End) seconds plus their own columnar Index,
// finished the moment the segment sealed. Segments are the LSM-style unit
// of the streaming pipeline — packets accumulate in an open segment, the
// segment seals when the stream crosses its upper boundary, and from then
// on neither the trace nor the index may be mutated. Everything
// downstream (per-segment detection, window labeling) consumes sealed
// segments only.
type Segment struct {
	// Seq is the 0-based seal order of the segment within its stream.
	Seq int
	// Start and End bound the segment's time span in seconds, [Start, End).
	// The canonical batch segment (SealTrace, or a SegmentWriter with
	// seconds <= 0) is unbounded: Start 0, End +Inf.
	Start, End float64
	// Trace holds the segment's packets, sorted by timestamp. Timestamps
	// stay absolute (stream-relative), not segment-relative, so alarms and
	// window labelings report stream time.
	Trace *Trace
	// Index is the segment's columnar view, built at seal time.
	Index *Index
}

// Len returns the number of packets in the segment. Index-only segments
// (the fused serving path wraps a built Index with no materialized Trace)
// report their index's length.
func (s *Segment) Len() int {
	if s.Trace == nil {
		if s.Index == nil {
			return 0
		}
		return s.Index.Len()
	}
	return s.Trace.Len()
}

// String renders a short summary.
func (s *Segment) String() string {
	return fmt.Sprintf("segment %d [%g,%g): %d packets", s.Seq, s.Start, s.End, s.Len())
}

// ErrSegmentWriterClosed is returned by Append after Close.
var ErrSegmentWriterClosed = errors.New("trace: segment writer is closed")

// SegmentWriter accepts packets incrementally and seals immutable
// fixed-duration segments as the stream crosses segment boundaries. The
// boundaries sit on a fixed grid — segment k spans [k*S, (k+1)*S) seconds
// for segment length S — so a given packet stream always chops into the
// same segments regardless of arrival batching; grid spans that contain no
// packets are skipped rather than sealed empty. Packets must arrive in
// non-decreasing timestamp order with non-negative timestamps (the sorted
// trace model); an out-of-order packet is an error, not a silent re-sort,
// because re-sorting inside a writer would make sealing depend on arrival
// batching.
//
// The segment's Index is built incrementally by a fused IndexBuilder fed on
// every Append, so sealing only canonicalizes — no second pass over the
// packets. The result is structurally identical to the two-pass reference
// build over the sealed trace (pinned by the seal-vs-rebuild tests), so the
// streaming path keeps the repo-wide determinism contract.
type SegmentWriter struct {
	ctx    context.Context
	stepUS int64 // segment length in microseconds; 0 = one unbounded segment

	cur    *Trace
	b      *IndexBuilder // fused column build of the open segment
	bucket int64         // grid ordinal of the open segment
	lastTS int64
	seq    int
	closed bool
}

// NewSegmentWriter returns a writer sealing segments of the given length in
// seconds. seconds <= 0 selects the canonical batch boundary: one unbounded
// segment, sealed only by Close — the chop Run/RunContext replay through.
// workers is accepted for call-site compatibility and ignored: the fused
// per-Append build is sequential by construction (hence trivially
// deterministic).
func NewSegmentWriter(ctx context.Context, seconds float64, workers int) *SegmentWriter {
	_ = workers
	stepUS := int64(0)
	if seconds > 0 {
		stepUS = int64(math.Round(seconds * 1e6))
		if stepUS == 0 {
			stepUS = 1
		}
	}
	return &SegmentWriter{ctx: ctx, stepUS: stepUS, lastTS: -1}
}

// Append adds one packet to the stream. When p crosses the open segment's
// upper boundary the open segment seals — its index is built — and is
// returned; p then starts the next segment. A nil segment means p landed in
// the open segment.
func (w *SegmentWriter) Append(p Packet) (*Segment, error) {
	if w.closed {
		return nil, ErrSegmentWriterClosed
	}
	if p.TS < 0 {
		return nil, fmt.Errorf("trace: negative packet timestamp %d in segment stream", p.TS)
	}
	if p.TS < w.lastTS {
		return nil, fmt.Errorf("trace: out-of-order packet (TS %d after %d); segment streams require sorted arrival", p.TS, w.lastTS)
	}
	w.lastTS = p.TS
	bucket := int64(0)
	if w.stepUS > 0 {
		bucket = p.TS / w.stepUS
	}
	var sealed *Segment
	if w.cur != nil && bucket != w.bucket {
		var err error
		if sealed, err = w.seal(); err != nil {
			return nil, err
		}
	}
	if w.cur == nil {
		w.cur = &Trace{Name: fmt.Sprintf("segment-%d", w.seq)}
		// Detached, not pooled: sealed segments flow to window consumers of
		// unknown lifetime, so their index buffers are never recycled.
		w.b = newDetachedBuilder()
		w.bucket = bucket
	}
	w.cur.Append(p)
	if err := w.b.Add(p); err != nil {
		// Unreachable: the ordering checks above are the builder's own.
		return nil, err
	}
	return sealed, nil
}

// Close seals the in-progress segment and returns it, or nil when no packet
// arrived since the last seal. The writer rejects further Appends.
func (w *SegmentWriter) Close() (*Segment, error) {
	if w.closed {
		return nil, ErrSegmentWriterClosed
	}
	w.closed = true
	if w.cur == nil {
		return nil, nil
	}
	return w.seal()
}

// seal finalizes the open segment's incrementally-built index and hands the
// segment off. A cancelled context fails the seal, as it fails BuildIndex.
func (w *SegmentWriter) seal() (*Segment, error) {
	if err := w.ctx.Err(); err != nil {
		w.b.Discard()
		w.cur, w.b = nil, nil
		return nil, err
	}
	ix := w.b.finish(w.cur)
	start, end := 0.0, math.Inf(1)
	if w.stepUS > 0 {
		start = float64(w.bucket) * float64(w.stepUS) / 1e6
		end = float64(w.bucket+1) * float64(w.stepUS) / 1e6
	}
	seg := &Segment{Seq: w.seq, Start: start, End: end, Trace: w.cur, Index: ix}
	w.seq++
	w.cur, w.b = nil, nil
	return seg, nil
}

// SealTrace wraps an already-materialized trace as the canonical single
// sealed segment: the whole trace, unbounded span, index built by
// BuildIndex. This is the batch boundary — Pipeline.Run/RunContext chop a materialized
// day at it and replay the result through the same engine the streaming
// path uses, which is what keeps batch and stream outputs bit-for-bit
// interchangeable. The trace must be sorted with non-negative timestamps
// and must not be mutated afterwards.
func SealTrace(ctx context.Context, tr *Trace) (*Segment, error) {
	ix, err := BuildIndex(ctx, tr, 1)
	if err != nil {
		return nil, err
	}
	return &Segment{Start: 0, End: math.Inf(1), Trace: tr, Index: ix}, nil
}

// Segments chops an in-order packet stream into sealed segments: the
// iterator form of SegmentWriter, and the ingest substrate under
// Pipeline.RunStream. It yields each segment as it seals (including the
// final partial segment when the channel closes) and stops at the first
// error — a cancelled context, or an out-of-order packet. Like all Go
// iterators it is single-use and pull-driven: sealing (and the index build
// it implies) happens on the consumer's goroutine.
func Segments(ctx context.Context, packets <-chan Packet, seconds float64) iter.Seq2[*Segment, error] {
	return func(yield func(*Segment, error) bool) {
		w := NewSegmentWriter(ctx, seconds, 1)
		for {
			select {
			case <-ctx.Done():
				yield(nil, ctx.Err())
				return
			case p, ok := <-packets:
				if !ok {
					seg, err := w.Close()
					if err != nil {
						yield(nil, err)
					} else if seg != nil {
						yield(seg, nil)
					}
					return
				}
				seg, err := w.Append(p)
				if err != nil {
					yield(nil, err)
					return
				}
				if seg != nil && !yield(seg, nil) {
					return
				}
			}
		}
	}
}
