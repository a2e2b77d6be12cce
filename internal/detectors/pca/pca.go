// Package pca implements the PCA-based anomaly detector (§3.2 (1)):
// Lakhina-style principal-component subspace separation applied to sketeched
// traffic, following Li et al. and Kanda et al. so that anomalous *sources*
// can be reported despite PCA's aggregate view.
//
// The traffic is hashed into several independent sketches of the source
// address space. For each sketch, the per-bin packet-count time series form
// a matrix whose top principal components model normal behaviour; time bins
// with a large residual are anomalous. The sketch bins driving the residual
// are intersected across the independent sketches to recover the source IPs
// responsible, which become host alarms.
package pca

import (
	"math"
	"sort"

	"mawilab/internal/core"
	"mawilab/internal/detectors"
	"mawilab/internal/linalg"
	"mawilab/internal/sketch"
	"mawilab/internal/stats"
	"mawilab/internal/trace"
)

// Detector is the sketch+PCA detector. The zero value is not usable; call
// New.
type Detector struct {
	// TimeBin is the aggregation interval in seconds.
	TimeBin float64
	// Bins is the sketch width (buckets per sketch).
	Bins int
	// Sketches is the number of independent sketches.
	Sketches int
	// MinAgree is how many sketches must implicate a host before it is
	// reported.
	MinAgree int
	// Seed derives the sketch hash seeds.
	Seed uint64
	// Tunings holds the per-configuration (subspace size, threshold)
	// pairs; index with detectors.Optimal/Sensitive/Conservative.
	Tunings [detectors.NumTunings]Tuning
}

// Tuning is one PCA parameter set.
type Tuning struct {
	// Subspace is the number of principal components spanning the normal
	// subspace.
	Subspace int
	// Sigma is the residual threshold in robust standard deviations
	// (median + Sigma·1.4826·MAD).
	Sigma float64
}

// New returns the detector with the paper-calibrated defaults.
func New(seed uint64) *Detector {
	return &Detector{
		TimeBin:  1.0,
		Bins:     32,
		Sketches: 4,
		MinAgree: 3,
		Seed:     seed,
		Tunings: [detectors.NumTunings]Tuning{
			detectors.Optimal:      {Subspace: 3, Sigma: 4.0},
			detectors.Sensitive:    {Subspace: 2, Sigma: 3.0},
			detectors.Conservative: {Subspace: 4, Sigma: 5.0},
		},
	}
}

// Name implements detectors.Detector.
func (d *Detector) Name() string { return "pca" }

// NumConfigs implements detectors.Detector.
func (d *Detector) NumConfigs() int { return int(detectors.NumTunings) }

// Detect implements detectors.Detector.
func (d *Detector) Detect(ix *trace.Index, config int) ([]core.Alarm, error) {
	if err := detectors.CheckConfig(d, config); err != nil {
		return nil, err
	}
	tn := d.Tunings[config]
	dur := ix.Duration()
	t := int(math.Ceil(dur / d.TimeBin))
	if t < 8 || ix.Len() == 0 {
		return nil, nil // too short for a meaningful subspace
	}

	// votes[host] = set of sketches implicating the host at a time bin.
	type hostBin struct {
		host trace.IPv4
		bin  int // time bin
	}
	votes := make(map[hostBin]int)

	for si := 0; si < d.Sketches; si++ {
		sk := sketch.New(d.Bins, d.Seed+uint64(si)*0x9e37)
		x := linalg.NewMatrix(t, d.Bins)
		for pi := 0; pi < ix.Len(); pi++ {
			tb := int(ix.Seconds[pi] / d.TimeBin)
			if tb >= t {
				tb = t - 1
			}
			sb := sk.Bin(ix.Src[pi])
			x.Set(tb, sb, x.At(tb, sb)+1)
		}
		anomalous := d.subspaceResiduals(x, tn)
		for _, at := range anomalous {
			// Recover hosts: rescan the window via the index's time
			// buckets, count per suspicious bin.
			lo, hi := ix.Window(float64(at.bin)*d.TimeBin, float64(at.bin+1)*d.TimeBin)
			counts := make(map[trace.IPv4]int)
			for pi := lo; pi < hi; pi++ {
				if sk.Bin(ix.Src[pi]) == at.sketchBin {
					counts[ix.Src[pi]]++
				}
			}
			for _, h := range detectors.TopHosts(counts, 3) {
				votes[hostBin{h, at.bin}]++
			}
		}
	}

	// Hosts implicated by enough independent sketches become alarms; merge
	// contiguous time bins per host.
	perHost := make(map[trace.IPv4][]int)
	for hb, n := range votes {
		if n >= d.MinAgree {
			perHost[hb.host] = append(perHost[hb.host], hb.bin)
		}
	}
	hosts := make([]trace.IPv4, 0, len(perHost))
	for h := range perHost {
		hosts = append(hosts, h)
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })

	var alarms []core.Alarm
	for _, h := range hosts {
		sort.Ints(perHost[h])
		for _, iv := range mergeBins(perHost[h]) {
			alarms = append(alarms, core.Alarm{
				Detector: d.Name(),
				Config:   config,
				Filters: []trace.Filter{
					trace.NewFilter().WithSrc(h).
						WithInterval(float64(iv[0])*d.TimeBin, float64(iv[1]+1)*d.TimeBin),
				},
				Note: "pca residual",
			})
		}
	}
	return alarms, nil
}

// anomaly is a (time bin, sketch bin) cell with excess residual.
type anomaly struct {
	bin       int
	sketchBin int
}

// subspaceResiduals centers and standardizes x's columns, finds the top
// principal components, and returns the (time bin, sketch bin) cells
// driving residuals above a robust threshold (median + σ·1.4826·MAD).
//
// Column standardization matters: without it, a single intense sketch bin
// dominates the covariance and its burst becomes a principal component —
// the "normal subspace contamination" failure mode of PCA detectors
// (Ringberg et al.), which at this scale would suppress detection
// entirely. With unit-variance columns, the leading components capture the
// correlated background fluctuation shared by all bins, and an isolated
// burst stays in the residual.
func (d *Detector) subspaceResiduals(x *linalg.Matrix, tn Tuning) []anomaly {
	work := x.Clone()
	work.CenterColumns()
	standardizeColumns(work)
	cov := work.Gram()
	inv := 1.0 / float64(work.Rows-1)
	for i := range cov.Data {
		cov.Data[i] *= inv
	}
	_, vecs, err := linalg.EigenSym(cov)
	if err != nil {
		return nil
	}
	k := tn.Subspace
	if k > work.Cols {
		k = work.Cols
	}
	// Residual matrix after projecting each row onto the top-k subspace.
	resVec := linalg.NewMatrix(work.Rows, work.Cols)
	for i := 0; i < work.Rows; i++ {
		row := work.Row(i)
		proj := make([]float64, work.Cols)
		for c := 0; c < k; c++ {
			var dot float64
			for j := 0; j < work.Cols; j++ {
				dot += row[j] * vecs.At(j, c)
			}
			for j := 0; j < work.Cols; j++ {
				proj[j] += dot * vecs.At(j, c)
			}
		}
		for j := 0; j < work.Cols; j++ {
			resVec.Set(i, j, row[j]-proj[j])
		}
	}
	// Score residuals per column: a burst confined to one sketch bin must
	// not be diluted by the noise of the other 31 columns, so each bin's
	// residual series is thresholded against its own robust statistics.
	var out []anomaly
	col := make([]float64, work.Rows)
	for j := 0; j < work.Cols; j++ {
		for i := 0; i < work.Rows; i++ {
			col[i] = resVec.At(i, j)
		}
		med := stats.Median(col)
		scale := 1.4826 * stats.MAD(col)
		if scale < 1e-9 {
			scale = stats.Std(col)
			if scale < 1e-9 {
				continue
			}
		}
		for i := 0; i < work.Rows; i++ {
			if (col[i]-med)/scale > tn.Sigma {
				out = append(out, anomaly{bin: i, sketchBin: j})
			}
		}
	}
	return out
}

// standardizeColumns scales each column to unit sample variance (columns
// with no variance are left untouched).
func standardizeColumns(m *linalg.Matrix) {
	for j := 0; j < m.Cols; j++ {
		var ss float64
		for i := 0; i < m.Rows; i++ {
			v := m.At(i, j)
			ss += v * v
		}
		if ss < 1e-12 {
			continue
		}
		inv := 1 / math.Sqrt(ss/float64(m.Rows-1))
		for i := 0; i < m.Rows; i++ {
			m.Set(i, j, m.At(i, j)*inv)
		}
	}
}

// mergeBins merges sorted time-bin indices into contiguous [first,last]
// intervals.
func mergeBins(bins []int) [][2]int {
	var out [][2]int
	for i := 0; i < len(bins); {
		j := i
		for j+1 < len(bins) && bins[j+1] == bins[j]+1 {
			j++
		}
		out = append(out, [2]int{bins[i], bins[j]})
		i = j + 1
	}
	return out
}
