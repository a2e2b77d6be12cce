package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"mawilab"
	"mawilab/internal/parallel"
	wirev1 "mawilab/internal/serve/v1"
	"mawilab/internal/trace"
)

// streamStart is the first of the consecutive days stream-windows
// concatenates.
var streamStart = mawilab.Date(2005, 3, 7)

// streamInput is the generated stream and its reference window labelings.
type streamInput struct {
	packets []mawilab.Packet
	csvs    [][]byte // reference CSV per window
	admds   [][]byte // reference ADMD per window
}

// streamConfig is the segmenting stream-windows runs under: short
// segments and an overlapping window advancing one segment at a time.
func streamConfig(sc scale) mawilab.StreamConfig {
	return mawilab.StreamConfig{SegmentSeconds: sc.segmentSeconds, WindowSegments: sc.windowSegments, WindowStride: 1}
}

// makeStream generates sc.streamDays consecutive days, shifts each day's
// timestamps past the previous day's end, and labels the stream once with
// the sequential reference path (RunStream at 1 worker).
func makeStream(ctx context.Context, seed int64, sc scale) (*streamInput, error) {
	days, err := parallel.Map(ctx, sc.streamDays, 2, func(_ context.Context, i int) (*mawilab.Trace, error) {
		return dayTrace(seed, streamStart.AddDate(0, 0, i), sc.dayDuration, sc.baseRate), nil
	})
	if err != nil {
		return nil, err
	}
	in := &streamInput{}
	for i, day := range days {
		shift := int64(math.Round(float64(i) * sc.dayDuration * 1e6))
		for _, pk := range day.Packets {
			pk.TS += shift
			in.packets = append(in.packets, pk)
		}
	}
	p := mawilab.NewPipeline()
	p.Workers = 1
	p.Stream = streamConfig(sc)
	ch := make(chan mawilab.Packet, len(in.packets))
	for _, pk := range in.packets {
		ch <- pk
	}
	close(ch)
	s := p.RunStream(ctx, ch)
	for w := range s.Windows() {
		csv, admd, err := encodeWindow(w)
		if err != nil {
			return nil, err
		}
		in.csvs = append(in.csvs, csv)
		in.admds = append(in.admds, admd)
	}
	if err := s.Wait(); err != nil {
		return nil, fmt.Errorf("reference stream labeling: %w", err)
	}
	return in, nil
}

func sameStream(a, b *streamInput) bool {
	return slices.Equal(a.packets, b.packets) &&
		slices.EqualFunc(a.csvs, b.csvs, bytes.Equal) && slices.EqualFunc(a.admds, b.admds, bytes.Equal)
}

// encodeWindow encodes one window labeling as CSV and ADMD.
func encodeWindow(w *mawilab.WindowLabeling) ([]byte, []byte, error) {
	var csv, admd bytes.Buffer
	if err := w.Labeling.WriteCSV(&csv); err != nil {
		return nil, nil, err
	}
	if err := w.Labeling.WriteADMD(&admd, fmt.Sprintf("window-%d", w.Window), w.Trace); err != nil {
		return nil, nil, err
	}
	return csv.Bytes(), admd.Bytes(), nil
}

// streamPhase is a run of consecutive stream passes.
type streamPhase struct {
	emit, enc []span // per window: emission latency; encode time
	passes    []span // per pass of the whole stream (n = packets)
	rssMB     float64
	sp        spans
	mem       memDelta
}

// runStream is stream-windows: one producer feeds the stream closed-loop
// into RunStream, pass after pass, through an unbuffered channel.
func runStream(ctx context.Context, b *bench) error {
	sc := b.cfg.scale
	in, stop, err := setupRepeated(b, func() (*streamInput, func(), error) {
		in, err := makeStream(ctx, b.cfg.seed, sc)
		return in, nil, err
	}, sameStream)
	if err != nil {
		return err
	}
	defer stop()

	if !b.cfg.trace {
		ph, err := measureWindow(b, nil, func() (*streamPhase, error) {
			return streamRun(ctx, b, in, b.cfg.seconds, sc.minSamples, false)
		})
		if err != nil {
			return err
		}
		emit, enc := durations(ph.emit), durations(ph.enc)
		b.put("label_ms_p50", "window_emit_ms_p50", emit.quantile(0.5), len(emit))
		b.put("label_ms_p90", "window_emit_ms_p90", emit.quantile(0.9), len(emit))
		b.put("pkts_per_s", "stream_pkts_per_s", rate(ph.passes), len(ph.passes))
		b.put("read_ms_p50", "v1_encode_ms_p50", enc.quantile(0.5), len(enc))
		b.put("read_ms_p90", "v1_encode_ms_p90", enc.quantile(0.9), len(enc))
		b.put("peak_rss_mb", "", ph.rssMB, 0)
		return nil
	}

	untraced, err := streamRun(ctx, b, in, b.cfg.seconds/2, 0, false)
	if err != nil {
		return err
	}
	traced, err := streamRun(ctx, b, in, b.cfg.seconds/2, 0, true)
	if err != nil {
		return err
	}
	lsp, cnt := spans{}, counts{}
	windows, err := replayStream(ctx, b, in, lsp, cnt)
	if err != nil {
		return err
	}
	ops := len(traced.emit)
	// Segment sealing runs inside RunStream's ingest loop, outside every
	// Observe span, so the ledger adds the replay's seal time per pass.
	sealPerPass := ms(lsp["trace.seal"])
	elapsed := ms(total(traced.passes))
	gap := elapsed - stageTotal(traced.sp) - sealPerPass*float64(len(traced.passes))
	gapPct := 100 * gap / elapsed
	if gapPct > ledgerTolerancePct || gapPct < -ledgerTolerancePct {
		b.problem("ledger: stage spans + seal leave %.2f%% of the stream time unattributed (tolerance %d%%)", gapPct, ledgerTolerancePct)
	}
	putStageSpans(b, traced.sp, ops)
	b.put("stage.unattributed_ms", "", gap/float64(max(ops, 1)), ops)
	b.put("ledger.gap_pct", "", gapPct, ops)
	b.put("v1.encode_ms", "", ms(total(traced.enc))/float64(max(ops, 1)), ops)
	b.put("go.alloc_mb_per_op", "", float64(traced.mem.allocBytes)/(1<<20)/float64(max(ops, 1)), ops)
	b.put("go.gc_cycles", "", float64(traced.mem.gcCycles)/float64(max(ops, 1)), ops)
	b.put("bench.trace_overhead_pct", "", overheadPct(durations(untraced.emit), durations(traced.emit)), ops)

	b.put("trace.seal_ms", "", lsp.perOp("trace.seal", windows), windows)
	b.put("trace.window_index_ms", "", lsp.perOp("trace.window_index", windows), windows)
	b.put("trace.reindex_ratio", "", cnt["trace.indexed"]/float64(len(in.packets)), windows)
	b.put("trace.flows", "", cnt["trace.flows"]/float64(max(windows, 1)), windows)
	putLayerSpans(b, lsp, cnt, windows)
	return nil
}

// streamRun runs stream passes for seconds (and at least minOps windows).
func streamRun(ctx context.Context, b *bench, in *streamInput, seconds float64, minOps int, traced bool) (*streamPhase, error) {
	ph := &streamPhase{sp: spans{}}
	p := mawilab.NewPipeline()
	p.Workers = b.cfg.scale.workers
	p.Stream = streamConfig(b.cfg.scale)
	if traced {
		p.Observe = observeInto(ph.sp)
	}
	rss := startRSS(0)
	start := time.Now()
	for !phaseDone(start, seconds, len(ph.emit), minOps) {
		pass := func() error { return streamPass(ctx, b, in, p, ph) }
		var err error
		if traced {
			err = ph.mem.measureMem(pass)
		} else {
			err = pass()
		}
		if err != nil {
			rss.peakMB()
			return nil, err
		}
	}
	peak, err := rss.peakMB()
	if err != nil {
		return nil, fmt.Errorf("sampling RSS: %w", err)
	}
	ph.rssMB = peak
	return ph, nil
}

// handover is when the producer handed over the first packet of a segment.
type handover struct {
	ts int64 // the packet's timestamp, µs
	at time.Time
}

// streamPass feeds the whole stream through one RunStream and verifies
// every window. A window's emission latency runs from the handover of the
// first packet at or past the window's end — the packet that seals its
// last segment — or from the end of the stream, to its arrival on
// Windows().
func streamPass(ctx context.Context, b *bench, in *streamInput, p *mawilab.Pipeline, ph *streamPhase) error {
	passCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	stepUS := int64(math.Round(p.Stream.SegmentSeconds * 1e6))
	ch := make(chan mawilab.Packet)
	var (
		marks    []handover
		closedAt time.Time
		fed      = make(chan struct{})
	)
	start := time.Now()
	go func() {
		defer close(fed)
		last := int64(-1)
		for _, pk := range in.packets {
			select {
			case ch <- pk:
			case <-passCtx.Done():
				return
			}
			if seg := pk.TS / stepUS; seg != last {
				marks = append(marks, handover{ts: pk.TS, at: time.Now()})
				last = seg
			}
		}
		closedAt = time.Now()
		close(ch)
	}()
	type arrival struct {
		window int
		end    float64
		at     time.Time
	}
	var arrivals []arrival
	s := p.RunStream(passCtx, ch)
	for w := range s.Windows() {
		at := time.Now()
		csv, admd, err := encodeWindow(w)
		ph.enc = append(ph.enc, span{from: at, to: time.Now()})
		arrivals = append(arrivals, arrival{window: w.Window, end: w.End, at: at})
		b.attempted++
		switch {
		case err != nil:
			b.opFailed("window %d: encode: %v", w.Window, err)
		case w.Window >= len(in.csvs):
			b.opFailed("window %d: the reference run emitted only %d windows", w.Window, len(in.csvs))
		case !bytes.Equal(csv, in.csvs[w.Window]) || !bytes.Equal(admd, in.admds[w.Window]):
			b.opFailed("DIVERGENCE window %d: labels differ from the reference stream labeling", w.Window)
		}
	}
	err := s.Wait()
	end := time.Now()
	cancel()
	<-fed
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		b.opFailed("stream: %v", err)
		return nil
	}
	if len(arrivals) != len(in.csvs) {
		b.opFailed("stream emitted %d windows, the reference %d", len(arrivals), len(in.csvs))
	}
	for _, a := range arrivals {
		endUS := int64(math.Round(a.end * 1e6))
		i := sort.Search(len(marks), func(i int) bool { return marks[i].ts >= endUS })
		from := closedAt
		if i < len(marks) {
			from = marks[i].at
		}
		ph.emit = append(ph.emit, span{from: from, to: a.at})
	}
	ph.passes = append(ph.passes, span{from: start, to: end, n: len(in.packets)})
	return nil
}

// segmentRun pairs a sealed segment with its replayed alarms.
type segmentRun struct {
	seg    *trace.Segment
	alarms []mawilab.Alarm
}

// replayStream replays the stream layer by layer — segment writer,
// detectors per sealed segment, window index build, estimate, combine,
// label — with the engine's windowing, and checks every window's CSV. It
// returns the number of windows.
func replayStream(ctx context.Context, b *bench, in *streamInput, sp spans, cnt counts) (int, error) {
	p := mawilab.NewPipeline()
	cfg := streamConfig(b.cfg.scale)
	var (
		pending []segmentRun
		fresh   int
		windows int
	)
	label := func() error {
		ix := pending[0].seg.Index
		if len(pending) > 1 {
			wtr := &trace.Trace{Name: fmt.Sprintf("window-%d", windows)}
			for _, r := range pending {
				wtr.Packets = append(wtr.Packets, r.seg.Trace.Packets...)
			}
			if err := sp.time("trace.window_index", func() error {
				var err error
				ix, err = trace.BuildIndex(ctx, wtr, 1)
				return err
			}); err != nil {
				return err
			}
			cnt["trace.indexed"] += float64(wtr.Len())
		}
		cnt["trace.flows"] += float64(ix.Flows())
		var alarms []mawilab.Alarm
		for _, r := range pending {
			alarms = append(alarms, r.alarms...)
		}
		reports, err := replayLabel(ctx, p, ix, alarms, sp, cnt)
		if err != nil {
			return err
		}
		var csv bytes.Buffer
		if err := wirev1.WriteCSV(&csv, reports); err != nil {
			return err
		}
		b.attempted++
		if windows >= len(in.csvs) || !bytes.Equal(csv.Bytes(), in.csvs[windows]) {
			b.opFailed("DIVERGENCE window %d: the traced replay's labels differ from the untraced run's", windows)
		}
		windows++
		return nil
	}
	sealed := func(seg *trace.Segment) error {
		cnt["trace.indexed"] += float64(seg.Len())
		alarms, err := replayDetect(p, seg.Index, sp, cnt)
		if err != nil {
			return err
		}
		pending = append(pending, segmentRun{seg: seg, alarms: alarms})
		fresh++
		if len(pending) == cfg.WindowSegments {
			if err := label(); err != nil {
				return err
			}
			pending = append(pending[:0:0], pending[cfg.WindowStride:]...)
			fresh = 0
		}
		return nil
	}
	w := trace.NewSegmentWriter(ctx, cfg.SegmentSeconds, 1)
	t0 := time.Now()
	for _, pk := range in.packets {
		seg, err := w.Append(pk)
		if err != nil {
			return 0, err
		}
		if seg != nil {
			sp["trace.seal"] += time.Since(t0)
			if err := sealed(seg); err != nil {
				return 0, err
			}
			t0 = time.Now()
		}
	}
	seg, err := w.Close()
	sp["trace.seal"] += time.Since(t0)
	if err != nil {
		return 0, err
	}
	if seg != nil {
		if err := sealed(seg); err != nil {
			return 0, err
		}
	}
	if fresh > 0 && len(pending) > 0 {
		if err := label(); err != nil {
			return 0, err
		}
	}
	if windows != len(in.csvs) {
		b.opFailed("DIVERGENCE: the traced replay labeled %d windows, the reference %d", windows, len(in.csvs))
	}
	return windows, nil
}
