// Package hough implements the Hough-transform anomaly detector of Fontugne
// and Fukuda (§3.2 (3)): traffic is monitored in 2-D scatter plots where
// anomalous behaviours — scans, floods, heavy flows — appear as lines, and
// the Hough transform identifies those lines in the plots.
//
// Two planes are analyzed: (time, destination-address bucket) and (time,
// source-address bucket). A network scan sweeping destinations draws a
// slanted line, a flood pinned on one host draws a horizontal line, and a
// heavy flow draws horizontal lines in both planes. The packets under each
// detected line are aggregated into sets of flows, the alarm granularity
// the paper attributes to this detector.
package hough

import (
	"math"
	"sort"
	"sync"

	"mawilab/internal/core"
	"mawilab/internal/detectors"
	"mawilab/internal/sketch"
	"mawilab/internal/trace"
)

// Detector is the Hough-transform detector.
type Detector struct {
	// TimeBin is the plot's time quantum in seconds.
	TimeBin float64
	// Rows is the address-bucket resolution of the plot.
	Rows int
	// Angles is the θ quantization of the Hough accumulator.
	Angles int
	// MaxFilters caps the flows reported per detected line.
	MaxFilters int
	// Seed derives the address-bucket hash.
	Seed uint64
	// tunings holds per-configuration (cell activation threshold, minimum
	// line votes as a fraction of the time extent).
	tunings [detectors.NumTunings]tuning
}

type tuning struct {
	cellMin   int     // packets for a cell to switch "on"
	voteShare float64 // accumulator peak threshold, fraction of time bins
}

// New returns the detector with defaults calibrated for the synthetic MAWI
// archive.
func New(seed uint64) *Detector {
	return &Detector{
		TimeBin:    0.5,
		Rows:       128,
		Angles:     48,
		MaxFilters: 10,
		Seed:       seed,
		tunings: [detectors.NumTunings]tuning{
			detectors.Optimal:      {cellMin: 3, voteShare: 0.30},
			detectors.Sensitive:    {cellMin: 2, voteShare: 0.20},
			detectors.Conservative: {cellMin: 4, voteShare: 0.45},
		},
	}
}

// Name implements detectors.Detector.
func (d *Detector) Name() string { return "hough" }

// NumConfigs implements detectors.Detector.
func (d *Detector) NumConfigs() int { return int(detectors.NumTunings) }

// Detect implements detectors.Detector.
func (d *Detector) Detect(ix *trace.Index, config int) ([]core.Alarm, error) {
	if err := detectors.CheckConfig(d, config); err != nil {
		return nil, err
	}
	cols := int(math.Ceil(ix.Duration()/d.TimeBin)) + 1
	if ix.Len() == 0 || cols < 6 {
		return nil, nil
	}
	tn := d.tunings[config]
	var alarms []core.Alarm
	alarms = append(alarms, d.detectPlane(ix, config, tn, cols, true)...)
	alarms = append(alarms, d.detectPlane(ix, config, tn, cols, false)...)
	return alarms, nil
}

// scratch is the pooled working memory of one detectPlane call: the
// per-stripe row counters, the sparse on-cell list and stripe offsets, the
// flat Hough accumulator with its per-angle touched ρ sets, the per-line
// claim marks, and the trig tables. Pooling makes steady-state detection
// allocate only the per-line aggregation maps. Invariants on return to the
// pool: rowCnt and acc are all-zero over their full lengths, every touched
// list has length 0 — so reuse never needs a bulk clear.
type scratch struct {
	rowCnt   []int32
	stripeLo []int32
	on       []uint64
	acc      []int32
	touched  [][]int32
	claimed  []bool
	sinT     []float64
	cosT     []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grow returns *s resized to length n, reusing capacity. Fresh growth is
// zeroed by make; reused prefixes keep their previous contents, so callers
// either overwrite fully or rely on a zero-on-return invariant.
func grow[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	} else {
		*s = (*s)[:n]
	}
	return *s
}

// detectPlane runs Hough line detection on one (time, address) plane.
//
// This is the sparse formulation: identical output to the dense
// map-rasterized reference (kept verbatim in the package tests and pinned
// by randomized equality tests across all tunings), without the per-packet
// map work or the dense Angles×rhoBins accumulator sweep.
func (d *Detector) detectPlane(ix *trace.Index, config int, tn tuning, cols int, dstPlane bool) []core.Alarm {
	sk := sketch.New(d.Rows, d.Seed^uint64(boolToInt(dstPlane))<<17)
	addrs := ix.Src
	if dstPlane {
		addrs = ix.Dst
	}
	n := ix.Len()
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	// Rasterize sparsely. Timestamps are sorted, so the time coordinate
	// x = Seconds/TimeBin is non-decreasing: each x-stripe is one contiguous
	// packet range. One Rows-sized counter array serves every stripe in
	// turn, and flushing a stripe emits its on-cells — already in (x, y)
	// order, exactly the order the dense path got from sorting — as packed
	// (x<<32 | y) keys. stripeLo records each stripe's packet range so the
	// surviving lines can re-scan their cells' packets later.
	rowCnt := grow(&sc.rowCnt, d.Rows)
	stripeLo := grow(&sc.stripeLo, cols+1)
	on := sc.on[:0]
	curX := 0
	stripeLo[0] = 0
	flush := func(x int) {
		for y := 0; y < d.Rows; y++ {
			if int(rowCnt[y]) >= tn.cellMin {
				on = append(on, uint64(x)<<32|uint64(y))
			}
			rowCnt[y] = 0
		}
	}
	for pi := 0; pi < n; pi++ {
		x := int(ix.Seconds[pi] / d.TimeBin)
		if x != curX {
			flush(curX)
			for xx := curX + 1; xx <= x; xx++ {
				stripeLo[xx] = int32(pi)
			}
			curX = x
		}
		rowCnt[sk.Bin(addrs[pi])]++
	}
	flush(curX)
	for xx := curX + 1; xx <= cols; xx++ {
		stripeLo[xx] = int32(n)
	}
	sc.on = on // keep the grown capacity pooled
	if len(on) == 0 {
		return nil
	}

	// Hough accumulator over (θ, ρ), ρ resolution = 1 cell — flat, with a
	// per-angle touched set so peak finding and the reset walk only nonzero
	// ρ bins (acc itself stays dense so the local-max neighbourhood test
	// reads it directly).
	diag := math.Hypot(float64(cols), float64(d.Rows))
	rhoBins := 2*int(diag) + 1
	sinT := grow(&sc.sinT, d.Angles)
	cosT := grow(&sc.cosT, d.Angles)
	for a := 0; a < d.Angles; a++ {
		theta := math.Pi * float64(a) / float64(d.Angles)
		sinT[a] = math.Sin(theta)
		cosT[a] = math.Cos(theta)
	}
	acc := grow(&sc.acc, d.Angles*rhoBins)
	touched := growLists(&sc.touched, d.Angles)
	for _, c := range on {
		x := float64(int(c >> 32))
		y := float64(int(uint32(c)))
		for a := 0; a < d.Angles; a++ {
			rho := x*cosT[a] + y*sinT[a]
			rb := int(rho + diag)
			if rb >= 0 && rb < rhoBins {
				i := a*rhoBins + rb
				if acc[i] == 0 {
					touched[a] = append(touched[a], int32(rb))
				}
				acc[i]++
			}
		}
	}

	minVotes := int32(math.Max(4, tn.voteShare*float64(cols)))
	type line struct {
		a, rb int
		votes int32
	}
	var lines []line
	for a := 0; a < d.Angles; a++ {
		for _, rb32 := range touched[a] {
			rb := int(rb32)
			v := acc[a*rhoBins+rb]
			if v < minVotes {
				continue
			}
			// Local maximum over a small neighbourhood to avoid reporting
			// the same line many times. Candidate order within an angle is
			// first-touch, not ρ order, but the (votes, a, rb) sort below is
			// a total order over distinct (a, rb), so the collection order
			// never shows in the output.
			if isLocalMax(acc, d.Angles, rhoBins, a, rb, v) {
				lines = append(lines, line{a, rb, v})
			}
		}
	}
	// Restore the pool invariant before any return: zero exactly the
	// touched accumulator entries and empty the touched lists.
	for a := range touched {
		for _, rb := range touched[a] {
			acc[a*rhoBins+int(rb)] = 0
		}
		touched[a] = touched[a][:0]
	}
	if len(lines) == 0 {
		return nil
	}
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].votes != lines[j].votes {
			return lines[i].votes > lines[j].votes
		}
		if lines[i].a != lines[j].a {
			return lines[i].a < lines[j].a
		}
		return lines[i].rb < lines[j].rb
	})
	if len(lines) > 8 {
		lines = lines[:8] // strongest structures only
	}

	var alarms []core.Alarm
	claimed := grow(&sc.claimed, len(on))
	for i := range claimed {
		claimed[i] = false
	}
	for _, ln := range lines {
		// Collect the on-cells lying near the line and aggregate per plane
		// host: a scan is thousands of one-packet flows sharing a source,
		// so attribution must go through the host the plane is keyed on,
		// not through individual flows. A cell's packets are re-scanned
		// from its stripe's contiguous range — a packet lies in cell (x, y)
		// iff its plane address hashes to row y — and since flow keys copy
		// packet header fields verbatim, per-packet attribution sums to
		// exactly the per-flow totals the dense path aggregated.
		hostPkts := make(map[trace.IPv4]int)
		hostPorts := make(map[trace.IPv4]map[uint16]int)
		var minX, maxX = math.MaxInt32, -1
		for i, c := range on {
			if claimed[i] {
				continue
			}
			cx := int(c >> 32)
			cy := int(uint32(c))
			rho := float64(cx)*cosT[ln.a] + float64(cy)*sinT[ln.a]
			if math.Abs(rho-(float64(ln.rb)-diag)) > 1.0 {
				continue
			}
			claimed[i] = true
			for pi := stripeLo[cx]; pi < stripeLo[cx+1]; pi++ {
				if sk.Bin(addrs[pi]) != cy {
					continue
				}
				host := addrs[pi]
				hostPkts[host]++
				pm := hostPorts[host]
				if pm == nil {
					pm = make(map[uint16]int)
					hostPorts[host] = pm
				}
				pm[ix.DstPort[pi]]++
			}
			if cx < minX {
				minX = cx
			}
			if cx > maxX {
				maxX = cx
			}
		}
		if len(hostPkts) == 0 {
			continue
		}
		alarm := core.Alarm{
			Detector: d.Name(),
			Config:   config,
			Score:    float64(ln.votes),
			Note:     planeName(dstPlane) + " line",
		}
		from := float64(minX) * d.TimeBin
		to := float64(maxX+1) * d.TimeBin
		for _, host := range detectors.TopHosts(hostPkts, d.MaxFilters) {
			f := trace.NewFilter().WithInterval(from, to)
			if dstPlane {
				f = f.WithDst(host)
			} else {
				f = f.WithSrc(host)
			}
			// Narrow to the dominant destination port when one stands out:
			// the aggregated flow set then reads like <host, *, *, port>.
			if port, share := dominantPort(hostPorts[host]); share >= 0.6 {
				f = f.WithDstPort(port)
			}
			alarm.Filters = append(alarm.Filters, f)
		}
		alarms = append(alarms, alarm)
	}
	return alarms
}

// growLists returns *s resized to n lists, each reset to length 0.
func growLists(s *[][]int32, n int) [][]int32 {
	if cap(*s) < n {
		next := make([][]int32, n)
		copy(next, *s)
		*s = next
	} else {
		*s = (*s)[:n]
	}
	for i := range *s {
		(*s)[i] = (*s)[i][:0]
	}
	return *s
}

// dominantPort returns the destination port carrying the largest packet
// share for a host, with that share.
func dominantPort(ports map[uint16]int) (uint16, float64) {
	total := 0
	best := uint16(0)
	bestN := -1
	for p, n := range ports {
		total += n
		if n > bestN || (n == bestN && p < best) {
			best, bestN = p, n
		}
	}
	if total == 0 {
		return 0, 0
	}
	return best, float64(bestN) / float64(total)
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func planeName(dst bool) string {
	if dst {
		return "dst"
	}
	return "src"
}

// isLocalMax reports whether the accumulator value at (a, rb) is maximal
// over a 3×5 neighbourhood (ties resolved toward the smaller index so one
// cell wins). acc is the flat Angles×rhoBins accumulator.
func isLocalMax(acc []int32, angles, rhoBins, a, rb int, v int32) bool {
	for da := -1; da <= 1; da++ {
		na := a + da
		if na < 0 || na >= angles {
			continue
		}
		row := acc[na*rhoBins : (na+1)*rhoBins]
		for dr := -2; dr <= 2; dr++ {
			nr := rb + dr
			if nr < 0 || nr >= rhoBins || (da == 0 && dr == 0) {
				continue
			}
			nv := row[nr]
			if nv > v {
				return false
			}
			if nv == v && (na < a || (na == a && nr < rb)) {
				return false
			}
		}
	}
	return true
}
