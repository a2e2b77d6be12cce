package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ms converts a duration to float milliseconds, keeping every digit.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// samples is a list of per-operation latencies.
type samples []time.Duration

// quantile returns the q-quantile in milliseconds (0 for an empty list).
func (s samples) quantile(q float64) float64 {
	v := make([]float64, len(s))
	for i, d := range s {
		v[i] = ms(d)
	}
	return quantile(v, q)
}

// quantile returns the q-quantile of v by linear interpolation between
// order statistics (0 for an empty list). It sorts v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

// spans accumulates busy time per layer over the ops of a traced phase.
type spans map[string]time.Duration

// time runs f and charges its wall time to name.
func (sp spans) time(name string, f func() error) error {
	t0 := time.Now()
	err := f()
	sp[name] += time.Since(t0)
	return err
}

// perOp returns the span's mean per op in milliseconds.
func (sp spans) perOp(name string, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return ms(sp[name]) / float64(ops)
}

// memDelta measures the Go heap work of a block of labeling calls.
type memDelta struct {
	allocBytes uint64
	gcCycles   uint32
}

// measureMem runs f and adds its allocation and GC-cycle deltas to m. The
// stop-the-world ReadMemStats stays outside any timed interval.
func (m *memDelta) measureMem(f func() error) error {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err := f()
	runtime.ReadMemStats(&b)
	m.allocBytes += b.TotalAlloc - a.TotalAlloc
	m.gcCycles += b.NumGC - a.NumGC
	return err
}

// rssSampler records the resident set of one process while a measured
// window runs, reading /proc/<pid>/status every few milliseconds. Sampling
// the window, rather than reading the kernel's lifetime high-water mark,
// keeps set-up allocations out of the figure.
type rssSampler struct {
	pid  int
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	kb   []rssSample
	err  error
}

type rssSample struct {
	at time.Time
	kb int64
}

// startRSS starts sampling pid (0 samples this process).
func startRSS(pid int) *rssSampler {
	if pid == 0 {
		pid = os.Getpid()
	}
	r := &rssSampler{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	r.sample()
	go r.loop()
	return r
}

func (r *rssSampler) loop() {
	defer close(r.done)
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			r.sample()
			return
		case <-t.C:
			r.sample()
		}
	}
}

func (r *rssSampler) sample() {
	kb, err := procStatusKB(r.pid, "VmRSS")
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		if r.err == nil {
			r.err = err
		}
		return
	}
	r.kb = append(r.kb, rssSample{at: time.Now(), kb: kb})
}

// peakMB stops the sampler and returns the peak RSS in MB, read as the
// median over the window's seconds of each second's highest sample. The
// bare maximum of a window is one garbage-collector timing coincidence and
// moved by a sixth between inputs of identical size; the peak the process
// reaches second after second does not.
func (r *rssSampler) peakMB() (float64, error) {
	close(r.stop)
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.kb) == 0 {
		return 0, r.err
	}
	var peaks []float64
	for i := 0; i < len(r.kb); {
		j, peak := i, int64(0)
		for ; j < len(r.kb) && r.kb[j].at.Sub(r.kb[i].at) < time.Second; j++ {
			peak = max(peak, r.kb[j].kb)
		}
		peaks = append(peaks, float64(peak)/1024)
		i = j
	}
	return quantile(peaks, 0.5), nil
}

// procStatusKB reads one "<key>: N kB" line of /proc/<pid>/status.
func procStatusKB(pid int, key string) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, key+":") {
			continue
		}
		fields := strings.Fields(line[len(key)+1:])
		if len(fields) == 0 {
			break
		}
		return strconv.ParseInt(fields[0], 10, 64)
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", key, pid)
}

// sleepUntil waits until t or until ctx ends.
func sleepUntil(ctx context.Context, t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
	case <-timer.C:
	}
}

// stamp identifies the machine a result was measured on.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
}

func machineStamp() stamp {
	s := stamp{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown", Go: runtime.Version()}
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return s
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			s.CPU = strings.TrimSpace(v)
			break
		}
	}
	return s
}

// overheadPct is how much slower the traced median is than the untraced one.
func overheadPct(untraced, traced samples) float64 {
	base := untraced.quantile(0.5)
	if base == 0 {
		return 0
	}
	return 100 * (traced.quantile(0.5) - base) / base
}

// phaseDone reports whether a closed-loop phase that started at start has
// run its seconds and collected minOps samples. A phase that cannot reach
// minOps stops at three times its seconds.
func phaseDone(start time.Time, seconds float64, n, minOps int) bool {
	el := time.Since(start).Seconds()
	return (el >= seconds && n >= minOps) || el >= 3*seconds
}

// maxStealPct is the most of the CPU time the machine wanted, in percent,
// that the hypervisor may give to other guests (steal) over a measured
// window for the window to stand. On a shared 2-CPU host a window with 20%
// steal reads latencies half again as long: it measures the neighbours,
// not the program.
const maxStealPct = 10

// windowAttempts is how many times a run measures its window when the
// host steals more than maxStealPct: once more at most, so a run stays
// within its time budget.
const windowAttempts = 2

// cpuMark is the machine's CPU counters (in clock ticks) at one moment:
// the time its CPUs ran or wanted to run, steal included, and the steal.
type cpuMark struct {
	busy, steal uint64
}

// readCPU reads the aggregate line of /proc/stat.
func readCPU() (cpuMark, error) {
	var m cpuMark
	f, err := os.Open("/proc/stat")
	if err != nil {
		return m, err
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return m, err
	}
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return m, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user and nice.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return m, fmt.Errorf("/proc/stat: %w", err)
		}
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			m.steal = v
			m.busy += v
		default:
			m.busy += v
		}
	}
	return m, nil
}

// stealPct is the steal share of the busy CPU time between two marks, in
// percent: how much of the time the machine wanted to run, other guests
// ran instead. A mostly idle window feels steal only while it runs, so the
// share of all CPU time would understate it. Without counters it reads 0,
// and the window stands.
func stealPct(a, b cpuMark, errA, errB error) float64 {
	if errA != nil || errB != nil || b.busy <= a.busy {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.busy-a.busy)
}

// measureWindow runs a workload's measured window and reads the CPU
// counters around it. When the host stole more than maxStealPct of the CPU
// over the window, reset (if any) restores the state the window starts
// from and the window runs once more; the attempt with less steal is kept
// whole, every sample of it. The kept window's steal and the attempt count
// are reported beside the metrics.
func measureWindow[T any](b *bench, reset func() error, window func() (T, error)) (T, error) {
	var (
		best      T
		bestSteal = math.Inf(1)
		attempts  int
	)
	for attempts < windowAttempts {
		if attempts > 0 && reset != nil {
			if err := reset(); err != nil {
				return best, err
			}
		}
		attempts++
		a, errA := readCPU()
		v, err := window()
		z, errZ := readCPU()
		if err != nil {
			return best, err
		}
		steal := stealPct(a, z, errA, errZ)
		if steal < bestSteal {
			best, bestSteal = v, steal
		}
		if steal <= maxStealPct {
			break
		}
		fmt.Fprintf(os.Stderr, "mawibench: the host stole %.1f%% of the CPU during window %d (limit %d%%)\n", steal, attempts, maxStealPct)
	}
	b.noteValue("cpu_steal_pct", bestSteal, "%", 0)
	b.noteValue("windows_measured", float64(attempts), "count", 0)
	return best, nil
}

// span is one timed piece of work: from start to end, n units (packets).
type span struct {
	from, to time.Time
	n        int
}

// durations returns the spans' lengths.
func durations(sp []span) samples {
	out := make(samples, len(sp))
	for i, s := range sp {
		out[i] = s.to.Sub(s.from)
	}
	return out
}

// total returns the spans' summed length.
func total(sp []span) (t time.Duration) {
	for _, s := range sp {
		t += s.to.Sub(s.from)
	}
	return t
}

// rate returns units per second of span time.
func rate(sp []span) float64 {
	var n int
	for _, s := range sp {
		n += s.n
	}
	if t := total(sp); t > 0 {
		return float64(n) / t.Seconds()
	}
	return 0
}
