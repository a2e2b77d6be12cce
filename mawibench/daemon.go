package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mawilab"
	"mawilab/internal/loadgen"
	wirev1 "mawilab/internal/serve/v1"
)

// The daemon-mixed op mix, as shares of all ops. Uploads (distinct plus
// duplicate) and queries (label reads plus community queries) are half
// each, so both p90s rest on the same number of samples; distinct uploads
// are a quarter of the uploads, which puts the upload p50 among duplicates
// and the upload p90 among labelings.
const (
	shareDistinct  = 0.12
	shareDup       = 0.38
	shareRead      = 0.25
	communityFlows = 8 // ?flows=N of the community queries
	pollInterval   = 2 * time.Millisecond
	httpTimeout    = 60 * time.Second
	daemonClients  = 2 // open connections
)

// daemonStart is the first of the consecutive days daemon-mixed uploads,
// all of the 2006 link-upgrade era. Days of one era make each op kind's
// latencies one cluster; with the four eras of batch-days, whose packets
// per day differ by 2.5x, a p90 that falls at the edge of an era's cluster
// jumped between eras from run to run.
var daemonStart = mawilab.Date(2006, 9, 4)

// daemonProc is one running mawilabd.
type daemonProc struct {
	baseURL string
	pid     int // the process whose RSS is sampled
	stop    func() error
}

// daemonWorkers is the daemon's pipeline worker count. One worker leaves
// the second CPU to the uploads and queries that run beside a labeling
// job; with two, whether an op overlapped a job decided its latency, and
// the p50s jumped with it.
const daemonWorkers = 1

// startDaemonProcess runs the mawilabd binary on a loopback port with its
// store in dir: daemonWorkers pipeline workers, one job at a time, the
// default queue (8), resident store (8) and index cache (4).
func startDaemonProcess(ctx context.Context, cfg *config, dir string) (*daemonProc, error) {
	if cfg.daemon == "" {
		return nil, errors.New("no mawilabd binary (pass --daemon)")
	}
	cmd := exec.Command(cfg.daemon, "-addr", "127.0.0.1:0", "-store", filepath.Join(dir, "store"),
		"-workers", strconv.Itoa(daemonWorkers), "-job-workers", "1", "-queue", "8", "-resident", "8")
	// The daemon must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting mawilabd: %w", err)
	}
	exited := make(chan error, 1)
	addr := make(chan string, 1)
	go func() {
		line, _ := bufio.NewReader(stdout).ReadString('\n')
		addr <- strings.TrimSpace(strings.TrimPrefix(line, "mawilabd: listening on "))
		io.Copy(io.Discard, stdout)
		exited <- cmd.Wait()
	}()
	stop := func() error {
		cmd.Process.Signal(syscall.SIGTERM)
		select {
		case err := <-exited:
			return err
		case <-time.After(20 * time.Second):
			cmd.Process.Kill()
			<-exited
			return errors.New("mawilabd did not drain within 20s; killed")
		}
	}
	select {
	case a := <-addr:
		if a == "" {
			stop()
			return nil, fmt.Errorf("mawilabd exited before listening: %s", strings.TrimSpace(stderr.String()))
		}
		return &daemonProc{baseURL: "http://" + a, pid: cmd.Process.Pid, stop: stop}, nil
	case <-time.After(30 * time.Second):
		stop()
		return nil, errors.New("mawilabd did not report its address within 30s")
	case <-ctx.Done():
		stop()
		return nil, ctx.Err()
	}
}

// daemonSetup is one built daemon-mixed set-up: the generated uploads with
// their reference labelings and a booted, warmed daemon.
type daemonSetup struct {
	warm      []*dayInput // labeled before the window; dups, reads and queries target these
	distinct  []*dayInput // each uploaded once during the window
	community map[string][]byte
	proc      *daemonProc
	dir       string // the daemon's store
	client    *http.Client
}

// opKind is one daemon-mixed operation.
type opKind int

const (
	opDistinct opKind = iota
	opDup
	opRead
	opCommunity
)

type plannedOp struct {
	kind opKind
	day  *dayInput
}

// planSeed fixes the daemon-mixed op schedule. Like the anomaly schedule
// of the generated days, it is the same for every workload seed: the seed
// varies the traffic, not which op hits which cache when, so a run's
// figures move with the program and not with the draw.
const planSeed = 2010

// planOps deals an exact deck of n ops: the shares are fixed, rng draws the
// order of duplicates, reads and queries and their warm targets. Distinct
// uploads sit at evenly spaced slots, so no labeling job queues behind
// another by the luck of the draw; each uploads the next distinct day.
func planOps(rng *rand.Rand, n int, s *daemonSetup) []plannedOp {
	nDistinct := int(float64(n)*shareDistinct + 0.5)
	nDup := int(float64(n)*shareDup + 0.5)
	nRead := int(float64(n)*shareRead + 0.5)
	rest := make([]opKind, n-nDistinct)
	for i := range rest {
		switch {
		case i < nDup:
			rest[i] = opDup
		case i < nDup+nRead:
			rest[i] = opRead
		default:
			rest[i] = opCommunity
		}
	}
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	ops := make([]plannedOp, n)
	next := 0
	for i := range ops {
		if (i+1)*nDistinct/n > i*nDistinct/n {
			ops[i] = plannedOp{kind: opDistinct, day: s.distinct[next]}
			next++
			continue
		}
		ops[i] = plannedOp{kind: rest[0], day: s.warm[rng.Intn(len(s.warm))]}
		rest = rest[1:]
	}
	return ops
}

// daemonOps returns how many ops one phase of seconds sends.
func daemonOps(sc scale, seconds float64) int { return max(1, int(sc.daemonRate*seconds+0.5)) }

// runDaemon is daemon-mixed: the real mawilabd in its own process, driven
// open-loop at a fixed op rate over two connections with a fixed mix of
// distinct uploads (labeling runs), duplicate uploads (decode, digest and
// store lookup only), label CSV reads and community flow queries.
func runDaemon(ctx context.Context, b *bench) error {
	sc := b.cfg.scale
	seconds := b.cfg.seconds
	nDistinct := int(float64(daemonOps(sc, seconds))*shareDistinct + 0.5)
	repeat := 0
	s, stop, err := setupRepeated(b, func() (*daemonSetup, func(), error) {
		repeat++
		return setupDaemon(ctx, b.cfg, nDistinct, repeat)
	}, func(x, y *daemonSetup) bool {
		return sameDays(x.warm, y.warm) && sameDays(x.distinct, y.distinct) && maps.EqualFunc(x.community, y.community, bytes.Equal)
	})
	if err != nil {
		return err
	}
	defer stop()

	plan := planOps(rand.New(rand.NewSource(planSeed)), daemonOps(sc, seconds), s)
	window := func() (*daemonPhase, error) { return daemonRun(ctx, b, s, plan, seconds) }
	if !b.cfg.trace {
		// A second attempt replays the same plan on a fresh daemon, booted
		// and warmed as set-up left the first.
		reboot := func() error {
			repeat++
			return s.boot(ctx, b.cfg, repeat)
		}
		ph, err := measureWindow(b, reboot, window)
		if err != nil {
			return err
		}
		upload, query := durations(ph.upload), durations(ph.query)
		jobs := ph.jobRuns()
		b.put("label_ms_p50", "upload_labeled_ms_p50", upload.quantile(0.5), len(upload))
		b.put("label_ms_p90", "upload_labeled_ms_p90", upload.quantile(0.9), len(upload))
		b.put("read_ms_p50", "query_ms_p50", query.quantile(0.5), len(query))
		b.put("read_ms_p90", "query_ms_p90", query.quantile(0.9), len(query))
		b.put("pkts_per_s", "labeled_pkts_per_job_s", rate(jobs), len(jobs))
		b.put("peak_rss_mb", "", ph.rssMB, 0)
		b.noteValue("gen_late_ms_p90", ph.late.quantile(0.9), "ms", len(ph.late))
		return nil
	}

	ph, err := window()
	if err != nil {
		return err
	}
	d := func(name string) float64 { return ph.after.Delta(ph.before, name) }
	// histMean is a /metrics histogram's mean over the phase, in ms.
	histMean := func(name, labels string) (float64, int) {
		c := d(name + "_count" + labels)
		if c == 0 {
			return 0, 0
		}
		return 1000 * d(name+"_sum"+labels) / c, int(c)
	}
	stage := func(st string) (float64, int) {
		return histMean("mawilabd_stage_seconds", fmt.Sprintf(`{stage="%s"}`, st))
	}
	decode, decodes := stage("ingest")
	detect, jobs := stage("detect")
	estimate, _ := stage("estimate")
	label, _ := stage("label")
	jobMean, _ := histMean("mawilabd_job_seconds", "")
	// The daemon observes its upload decode as the ingest stage.
	b.put("pcap.decode_ms", "", decode, decodes)
	b.put("stage.ingest_ms", "", decode, decodes)
	b.put("stage.detect_ms", "", detect, jobs)
	b.put("stage.estimate_ms", "", estimate, jobs)
	b.put("stage.label_ms", "", label, jobs)
	b.put("stage.unattributed_ms", "", jobMean-detect-estimate-label, jobs)
	b.put("serve.admit_ms_p50", "", ph.admit.quantile(0.5), len(ph.admit))
	waits := make(samples, len(ph.jobs))
	for i, j := range ph.jobs {
		waits[i] = j.wait
	}
	b.put("serve.job_run_ms_p50", "", durations(ph.jobRuns()).quantile(0.5), len(ph.jobs))
	b.put("serve.queue_wait_ms_p90", "", waits.quantile(0.9), len(waits))
	b.put("serve.dup_ms_p50", "", ph.dup.quantile(0.5), len(ph.dup))
	b.put("serve.cache_hit_ratio", "", ratio(d("mawilabd_cache_hits_total"), d("mawilabd_uploads_total")), int(d("mawilabd_uploads_total")))
	hits, misses := d("mawilabd_index_cache_hits_total"), d("mawilabd_index_cache_misses_total")
	b.put("serve.index_cache_hit_ratio", "", ratio(hits, hits+misses), int(hits+misses))
	b.put("serve.store_disk_reads", "", d("mawilabd_store_disk_reads_total"), 0)
	b.put("serve.rejected", "", d(`mawilabd_uploads_rejected_total{reason="queue_full"}`), 0)
	b.put("gen.late_ms_p90", "", ph.late.quantile(0.9), len(ph.late))
	// The daemon's figures come from /metrics, which is always on, and
	// from /v1/jobs after the window: nothing is traced inside the window,
	// so there is no tracing overhead to measure.
	b.put("bench.trace_overhead_pct", "", 0, 0)

	lsp, cnt, mem := spans{}, counts{}, memDelta{}
	replayed := min(sc.replayOps, len(ph.jobs))
	for _, j := range ph.jobs[:replayed] {
		if err := replayUpload(ctx, b, j.day, lsp, cnt, &mem); err != nil {
			return err
		}
	}
	b.put("pcap.encode_ms", "", lsp.perOp("pcap.encode", replayed), replayed)
	b.put("v1.encode_ms", "", lsp.perOp("v1.encode", replayed), replayed)
	b.put("trace.reindex_ratio", "", 1, replayed) // DecodePcap indexes each packet once
	b.put("trace.flows", "", cnt["trace.flows"]/float64(max(replayed, 1)), replayed)
	b.put("go.alloc_mb_per_op", "", float64(mem.allocBytes)/(1<<20)/float64(max(replayed, 1)), replayed)
	b.put("go.gc_cycles", "", float64(mem.gcCycles)/float64(max(replayed, 1)), replayed)
	putLayerSpans(b, lsp, cnt, replayed)
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setupDaemon generates the uploads, labels them in process, boots the
// daemon in a fresh store and labels the warm set through it.
func setupDaemon(ctx context.Context, cfg *config, nDistinct, repeat int) (*daemonSetup, func(), error) {
	sc := cfg.scale
	dates := make([]time.Time, sc.daemonWarm+nDistinct)
	for i := range dates {
		dates[i] = daemonStart.AddDate(0, 0, i)
	}
	days, err := makeDays(ctx, cfg.seed, dates, sc.daemonDuration, sc.baseRate)
	if err != nil {
		return nil, nil, err
	}
	s := &daemonSetup{
		warm:      days[:sc.daemonWarm],
		distinct:  days[sc.daemonWarm:],
		community: make(map[string][]byte),
		client: &http.Client{
			Timeout:   httpTimeout,
			Transport: &http.Transport{MaxConnsPerHost: daemonClients, MaxIdleConnsPerHost: daemonClients},
		},
	}
	if err := s.boot(ctx, cfg, repeat); err != nil {
		return nil, nil, err
	}
	return s, s.shutdown, nil
}

// boot stops the daemon s runs, if any, starts one in a fresh store and
// labels the warm set through it. The community answers of the warm set
// are recorded on the first boot and must not change on later ones.
func (s *daemonSetup) boot(ctx context.Context, cfg *config, n int) error {
	s.shutdown()
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("daemon-%d-%d", os.Getpid(), n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	proc, err := cfg.startDaemon(ctx, cfg, dir)
	if err != nil {
		os.RemoveAll(dir)
		return err
	}
	s.proc, s.dir = proc, dir
	for _, day := range s.warm {
		status, _, err := s.upload(ctx, day)
		if err == nil && status != http.StatusAccepted {
			err = fmt.Errorf("warm upload of %s: status %d", day.name, status)
		}
		if err == nil {
			err = s.awaitLabels(ctx, day)
		}
		if err == nil {
			var body []byte
			status, body, err = s.get(ctx, communityPath(day))
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("community query of %s: status %d", day.name, status)
			}
			if prev, ok := s.community[day.digest]; err == nil && ok && !bytes.Equal(prev, body) {
				err = fmt.Errorf("DIVERGENCE communities %s: a fresh daemon answers differently", day.name)
			}
			s.community[day.digest] = body
		}
		if err != nil {
			s.shutdown()
			return err
		}
	}
	return nil
}

// shutdown stops the daemon s runs, if any, and removes its store.
func (s *daemonSetup) shutdown() {
	if s.proc == nil {
		return
	}
	if err := s.proc.stop(); err != nil {
		fmt.Fprintf(os.Stderr, "mawibench: stopping mawilabd: %v\n", err)
	}
	os.RemoveAll(s.dir)
	s.proc, s.dir = nil, ""
}

func communityPath(day *dayInput) string {
	return fmt.Sprintf("/v1/labels/%s/communities?flows=%d", day.digest, communityFlows)
}

// uploadResponse is the daemon's POST /v1/traces reply.
type uploadResponse struct {
	Digest string `json:"digest"`
	Cached bool   `json:"cached"`
	JobID  string `json:"job_id"`
}

// upload POSTs a day's pcap bytes.
func (s *daemonSetup) upload(ctx context.Context, day *dayInput) (int, uploadResponse, error) {
	var ur uploadResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		s.proc.baseURL+"/v1/traces?name="+day.name, bytes.NewReader(day.pcap))
	if err != nil {
		return 0, ur, err
	}
	req.Header.Set("Content-Type", "application/vnd.tcpdump.pcap")
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, ur, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, ur, err
	}
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(body, &ur); err != nil {
			return resp.StatusCode, ur, fmt.Errorf("upload of %s: unparseable reply: %w", day.name, err)
		}
		if ur.Digest != day.digest {
			return resp.StatusCode, ur, fmt.Errorf("upload of %s: daemon digest %s, local %s", day.name, ur.Digest, day.digest)
		}
	}
	return resp.StatusCode, ur, nil
}

func (s *daemonSetup) get(ctx context.Context, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.proc.baseURL+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// awaitLabels polls a day's CSV until the daemon serves it and checks it
// byte for byte against the in-process labeling.
func (s *daemonSetup) awaitLabels(ctx context.Context, day *dayInput) error {
	for {
		status, body, err := s.get(ctx, "/v1/labels/"+day.digest+".csv")
		if err != nil {
			return err
		}
		switch status {
		case http.StatusOK:
			if !bytes.Equal(body, day.csv) {
				return fmt.Errorf("DIVERGENCE %s: served CSV differs from the in-process labeling", day.name)
			}
			return nil
		case http.StatusAccepted:
			sleepUntil(ctx, time.Now().Add(pollInterval))
			if err := ctx.Err(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("labels of %s: status %d", day.name, status)
		}
	}
}

// daemonPhase is one open-loop window.
type daemonPhase struct {
	upload, query    []span // from due time to verified bytes in hand
	admit, dup, late samples
	jobs             []jobRecord
	rssMB            float64
	before, after    loadgen.Metrics
}

// jobRecord is one distinct upload's labeling job.
type jobRecord struct {
	id   string
	day  *dayInput
	run  span          // StartedAt to FinishedAt, n = packets
	wait time.Duration // StartedAt−EnqueuedAt
}

// jobRuns returns the jobs' run spans.
func (ph *daemonPhase) jobRuns() []span {
	out := make([]span, len(ph.jobs))
	for i, j := range ph.jobs {
		out[i] = j.run
	}
	return out
}

// tally is one op's record.
type tally struct {
	daemonPhase
	posts2xx, posts429, cached int
	failures                   []string
}

// daemonRun sends plan open-loop over seconds — op i is issued at its due
// time i*seconds/len(plan), whatever earlier ops are still waiting for —
// over at most daemonClients connections, then reconciles the daemon's
// /metrics deltas with what the ops saw on the wire. An op that holds no
// connection, such as an upload between polls of its labels, delays no
// other op.
func daemonRun(ctx context.Context, b *bench, s *daemonSetup, plan []plannedOp, seconds float64) (*daemonPhase, error) {
	before, err := loadgen.Scrape(ctx, s.client, s.proc.baseURL)
	if err != nil {
		return nil, err
	}
	tallies := make([]*tally, len(plan))
	var wg sync.WaitGroup
	rss := startRSS(s.proc.pid)
	start := time.Now()
	interval := time.Duration(seconds * float64(time.Second) / float64(len(plan)))
	for i, op := range plan {
		due := start.Add(time.Duration(i) * interval)
		sleepUntil(ctx, due)
		if ctx.Err() != nil {
			break
		}
		t := &tally{}
		tallies[i] = t
		t.late = append(t.late, time.Since(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.do(ctx, t, op, due)
		}()
	}
	wg.Wait()
	peak, rssErr := rss.peakMB()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if rssErr != nil {
		return nil, fmt.Errorf("sampling the daemon's RSS: %w", rssErr)
	}
	after, err := loadgen.Scrape(ctx, s.client, s.proc.baseURL)
	if err != nil {
		return nil, err
	}

	ph := &daemonPhase{rssMB: peak, before: before, after: after}
	var posts2xx, posts429, cached int
	for _, t := range tallies {
		if t == nil {
			continue
		}
		ph.upload = append(ph.upload, t.upload...)
		ph.query = append(ph.query, t.query...)
		ph.admit = append(ph.admit, t.admit...)
		ph.dup = append(ph.dup, t.dup...)
		ph.late = append(ph.late, t.late...)
		ph.jobs = append(ph.jobs, t.jobs...)
		posts2xx += t.posts2xx
		posts429 += t.posts429
		cached += t.cached
		for _, f := range t.failures {
			b.opFailed("%s", f)
		}
	}
	b.attempted += len(plan)
	for i := range ph.jobs {
		if err := s.jobTimes(ctx, &ph.jobs[i]); err != nil {
			b.problem("%v", err)
		}
	}
	reconcile := func(what string, server float64, client int) {
		if server != float64(client) {
			b.problem("reconcile %s: /metrics delta %.0f, client tally %d", what, server, client)
		}
	}
	reconcile("uploads_total = 2xx + 429", after.Delta(before, "mawilabd_uploads_total"), posts2xx+posts429)
	reconcile("cache_hits_total = 200 responses", after.Delta(before, "mawilabd_cache_hits_total"), cached)
	reconcile("jobs done = distinct digests", after.Delta(before, `mawilabd_jobs_finished_total{state="done"}`), len(ph.jobs))
	reconcile("rejected{queue_full} = 429 responses", after.Delta(before, `mawilabd_uploads_rejected_total{reason="queue_full"}`), posts429)
	return ph, nil
}

// do executes one op and records it in t. A failed, refused or divergent
// op is recorded as a failure and takes no latency sample.
func (s *daemonSetup) do(ctx context.Context, t *tally, op plannedOp, due time.Time) {
	fail := func(format string, args ...any) {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
	day := op.day
	switch op.kind {
	case opDistinct, opDup:
		t0 := time.Now()
		status, ur, err := s.upload(ctx, day)
		posted := time.Since(t0)
		switch {
		case err != nil:
			fail("upload %s: %v", day.name, err)
			return
		case status == http.StatusTooManyRequests:
			t.posts429++
			fail("upload %s: refused with 429", day.name)
			return
		case status != http.StatusOK && status != http.StatusAccepted:
			fail("upload %s: status %d", day.name, status)
			return
		}
		t.posts2xx++
		if ur.Cached {
			t.cached++
		}
		if op.kind == opDistinct {
			if ur.Cached || ur.JobID == "" {
				fail("upload %s: a new digest was not scheduled (cached=%t job=%q)", day.name, ur.Cached, ur.JobID)
				return
			}
			t.admit = append(t.admit, posted)
		} else {
			if !ur.Cached {
				fail("upload %s: a labeled digest was not a cache hit", day.name)
				return
			}
			t.dup = append(t.dup, posted)
		}
		if err := s.awaitLabels(ctx, day); err != nil {
			fail("upload %s: %v", day.name, err)
			return
		}
		t.upload = append(t.upload, span{from: due, to: time.Now()})
		if op.kind == opDistinct {
			t.jobs = append(t.jobs, jobRecord{id: ur.JobID, day: day})
		}
	case opRead:
		status, body, err := s.get(ctx, "/v1/labels/"+day.digest+".csv")
		switch {
		case err != nil:
			fail("read %s: %v", day.name, err)
		case status != http.StatusOK:
			fail("read %s: status %d", day.name, status)
		case !bytes.Equal(body, day.csv):
			fail("DIVERGENCE read %s: served CSV differs from the in-process labeling", day.name)
		default:
			t.query = append(t.query, span{from: due, to: time.Now()})
		}
	case opCommunity:
		status, body, err := s.get(ctx, communityPath(day))
		var list []json.RawMessage
		switch {
		case err != nil:
			fail("communities %s: %v", day.name, err)
		case status != http.StatusOK:
			fail("communities %s: status %d", day.name, status)
		case !bytes.Equal(body, s.community[day.digest]):
			fail("DIVERGENCE communities %s: the answer changed between queries", day.name)
		case json.Unmarshal(body, &list) != nil || len(list) != day.reports:
			fail("communities %s: want %d communities in a JSON list", day.name, day.reports)
		default:
			t.query = append(t.query, span{from: due, to: time.Now()})
		}
	}
}

// jobTimes reads a finished job's timestamps from /v1/jobs/{id}.
func (s *daemonSetup) jobTimes(ctx context.Context, j *jobRecord) error {
	status, body, err := s.get(ctx, "/v1/jobs/"+j.id)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("job %s: status %d, %v", j.id, status, err)
	}
	var v struct {
		State      string    `json:"state"`
		EnqueuedAt time.Time `json:"enqueued_at"`
		StartedAt  time.Time `json:"started_at"`
		FinishedAt time.Time `json:"finished_at"`
	}
	if err := json.Unmarshal(body, &v); err != nil || v.State != "done" {
		return fmt.Errorf("job %s: state %q, %v", j.id, v.State, err)
	}
	j.run = span{from: v.StartedAt, to: v.FinishedAt, n: j.day.packets}
	j.wait = v.StartedAt.Sub(v.EnqueuedAt)
	return nil
}

// replayUpload repeats one labeling job in process — decode, RunIndex,
// both encodings and the store's pcap copy — under the Go heap counters,
// then replays its layers, and checks both against the served CSV.
func replayUpload(ctx context.Context, b *bench, day *dayInput, sp spans, cnt counts, mem *memDelta) error {
	b.attempted++
	var csv bytes.Buffer
	err := mem.measureMem(func() error {
		ix, err := mawilab.DecodePcap(bytes.NewReader(day.pcap))
		if err != nil {
			return err
		}
		defer ix.Release()
		p := mawilab.NewPipeline()
		p.Workers = daemonWorkers
		l, err := p.RunIndex(ctx, ix)
		if err != nil {
			return err
		}
		var admd, store bytes.Buffer
		if err := sp.time("v1.encode", func() error {
			if err := l.WriteCSV(&csv); err != nil {
				return err
			}
			return wirev1.WriteADMD(&admd, day.name, ix, l.Reports)
		}); err != nil {
			return err
		}
		cnt["trace.flows"] += float64(ix.Flows())
		return sp.time("pcap.encode", func() error { return mawilab.EncodePcap(&store, ix) })
	})
	if err != nil {
		return fmt.Errorf("replay of %s: %w", day.name, err)
	}
	if !bytes.Equal(csv.Bytes(), day.csv) {
		b.opFailed("DIVERGENCE %s: the in-process replay's CSV differs from the served one", day.name)
	}
	return replayDay(ctx, b, day, sp, cnt)
}
