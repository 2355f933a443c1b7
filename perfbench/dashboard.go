package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"hpclog/client"
	"hpclog/internal/analytics"
	"hpclog/internal/model"
	"hpclog/internal/query"
)

const (
	// setupRuns is how many times a run sets up from scratch; setup_s is
	// the median, and the last deployment is the one measured.
	setupRuns = 4
	// warmupRequests run through the closed loop at set-up, so caches
	// and lazy state are warm before timing.
	warmupRequests = 300
	// checkRequests is the size of the seeded answer-check sample.
	checkRequests = 48
)

// sdkTargets adapts SDK clients to the load loops.
func sdkTargets(clis []*client.Client) []target {
	ts := make([]target, len(clis))
	for i, cli := range clis {
		ts[i] = func(ctx context.Context, r *request, keep bool) ([]byte, error) {
			return r.exec(ctx, cli, keep)
		}
	}
	return ts
}

// dashboardRun is the state one dashboard or archive set-up leaves.
type dashboardRun struct {
	dep *single
	// clis are the run's nproc SDK clients of one connection each: the
	// warm-up, the measured phase and the checks all go through them.
	clis   []*client.Client
	corpus *corpus
	load   loadStats
	mix    *dashboardMix
	// ref holds the check sample's answers captured before the tier
	// sweep (archive only): the resident store's answers.
	ref [][]byte
	// baseHeap is the live heap, in MiB, with the corpus and the check
	// sample generated and no deployment open: harness memory that
	// heap_mb leaves out.
	baseHeap float64
}

// setupDashboard generates the corpus, loads and compacts it, sweeps it
// to the object tier (archive), starts the server and warms it up. It
// returns the set-up time without the harness's reference capture.
func setupDashboard(ctx context.Context, cfg runConfig, i int, tiered bool, sample []request) (*dashboardRun, time.Duration, error) {
	started := time.Now()
	var excluded time.Duration
	c := newCorpus(corpusConfig(cfg.seed, dashboardStart, corpusHours))
	t := time.Now()
	baseHeap := heapMiB()
	excluded += time.Since(t)
	dep, err := openSingle(filepath.Join(cfg.work, "setup-"+strconv.Itoa(i)), tiered)
	if err != nil {
		return nil, 0, err
	}
	run := &dashboardRun{dep: dep, corpus: c, baseHeap: baseHeap}
	fail := func(err error) (*dashboardRun, time.Duration, error) {
		dep.close()
		return nil, 0, err
	}
	if run.load, err = dep.load(c); err != nil {
		return fail(err)
	}
	if err := dep.serve(); err != nil {
		return fail(err)
	}
	run.clis = make([]*client.Client, runtime.NumCPU())
	for j := range run.clis {
		run.clis[j] = newClient(dep.url)
	}
	if tiered {
		// Capture the resident answers for the byte-identity check; not
		// set-up work, so not timed. The capture fills the result cache,
		// which is then emptied so the sweep's effect is measured.
		t = time.Now()
		if sample != nil {
			for _, r := range sample {
				b, err := r.exec(ctx, run.clis[0], true)
				if err != nil {
					return fail(fmt.Errorf("reference %s: %w", r.kind.name, err))
				}
				run.ref = append(run.ref, b)
			}
		}
		dep.q.InvalidateCache()
		excluded += time.Since(t)
		if err := dep.sweep(&run.load); err != nil {
			return fail(err)
		}
		if ss := dep.db.StorageStats(); ss.TieredBytes <= tierCacheBytes {
			return fail(fmt.Errorf("tier block cache (%d B) holds all %d tiered bytes", tierCacheBytes, ss.TieredBytes))
		}
	}
	run.mix = newDashboardMix(cfg.seed, dashboardStart, corpusSources(c))
	outs, _ := closedLoop(ctx, sdkTargets(run.clis), run.mix.next, warmupRequests, 0)
	for _, o := range outs {
		if o.err != nil {
			return fail(fmt.Errorf("warm-up %s: %w", o.kind.name, o.err))
		}
	}
	return run, time.Since(started) - excluded, nil
}

// corpusSources lists the distinct event sources of a corpus, sorted.
func corpusSources(c *corpus) []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range c.gen.Events {
		if !seen[e.Source] {
			seen[e.Source] = true
			out = append(out, e.Source)
		}
	}
	sort.Strings(out)
	return out
}

// checkSample draws the seeded answer-check sample: events lookups of
// each delivery form, heatmaps, and the rest of the mix.
func checkSample(seed int64, c *corpus) []request {
	m := newDashboardMix(seed, dashboardStart, corpusSources(c))
	m.rng = rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]request, 0, checkRequests)
	for i := 0; i < checkRequests; i++ {
		switch i % 4 {
		case 0:
			out = append(out, m.draw([]kind{kEvents, kEventsStream, kEventsPage}[i/4%3]))
		case 1:
			out = append(out, m.draw(kHeatmap))
		default:
			out = append(out, m.next(time.Time{}))
		}
	}
	return out
}

func runDashboard(ctx context.Context, cfg runConfig, tiered bool) (*result, error) {
	var run *dashboardRun
	var setups, loadRates []float64
	var sample []request
	for i := 0; i < setupRuns; i++ {
		if run != nil {
			// Drop the closed deployment before the next set-up reads
			// its base heap.
			err := run.dep.close()
			run = nil
			if err != nil {
				return nil, err
			}
		}
		if i == setupRuns-1 {
			sample = checkSample(cfg.seed, newCorpus(corpusConfig(cfg.seed, dashboardStart, corpusHours)))
		}
		var took time.Duration
		var err error
		if run, took, err = setupDashboard(ctx, cfg, i, tiered, sample); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, took.Seconds())
		loadRates = append(loadRates, float64(run.load.events)/run.load.loadTime.Seconds())
		cfg.logf("set-up %d: %.2fs (load %.2fs incl. compact %.2fs, sweep %.2fs, %d events)", i, took.Seconds(),
			run.load.loadTime.Seconds(), run.load.compactTime.Seconds(), run.load.sweepTime.Seconds(), run.load.events)
	}
	defer run.dep.close()

	res := &result{info: map[string]any{}}
	targets := sdkTargets(run.clis)
	var outs []outcome
	var elapsed time.Duration
	if cfg.trace {
		tr, err := tracedPhase(ctx, cfg, run, targets)
		if err != nil {
			return nil, err
		}
		res.metrics = tr.layers
		outs, elapsed = tr.outs, tr.elapsed
	} else {
		outs, elapsed = closedLoop(ctx, targets, run.mix.next, 0, time.Duration(cfg.seconds)*time.Second)
	}
	var lat [numClasses][]float64
	completed := 0
	for _, o := range outs {
		res.attempted++
		if o.err != nil {
			res.failed++
			continue
		}
		completed++
		lat[o.kind.class] = append(lat[o.kind.class], ms(o.lat))
	}
	res.info["kinds"] = kindStats(outs)
	// The outcomes are harness memory that grows with the run: release
	// them before reading the program's heap.
	outs = nil
	heap := heapMiB() - run.baseHeap

	checkDashboard(ctx, cfg, run, sample, tiered, res)
	if !cfg.trace {
		m := &res.metrics
		m.add("setup_s", median(setups), "s", int64(len(setups)))
		m.add("load_events_per_s", median(loadRates), "events/s", int64(len(loadRates)))
		m.add("disk_bytes_per_raw_byte", float64(run.load.diskBytes)/float64(run.load.rawBytes), "ratio", 1)
		m.add("heap_mb", heap, "MiB", 1)
		m.add("queries_per_s", float64(completed)/elapsed.Seconds(), "1/s", int64(completed))
		m.addLatency("analytics", lat[classAnalytics])
		m.addLatency("lookup", lat[classLookup])
		m.add("error_ratio", ratio(float64(res.failed), float64(res.attempted)), "ratio", res.attempted)
	}
	res.info["corpus_digest"] = run.corpus.digest()
	res.info["corpus_events"] = len(run.corpus.gen.Events)
	res.info["corpus_raw_bytes"] = run.corpus.rawBytes
	res.info["sealed_bytes"] = run.load.diskBytes
	res.info["cache_hit_ratio"] = cacheHitRatio(run.dep.q.CacheStats())
	return res, nil
}

func cacheHitRatio(cs query.CacheStats) float64 {
	return ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses))
}

// heapMiB is the live Go heap after a forced collection. The second
// collection frees what sync.Pool victim caches kept through the first,
// which otherwise varies with the last requests served. heap_mb is the
// growth from a set-up's base heap to the end of the measured phase, with
// the harness's per-request records released: the deployment's share.
func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// checkDashboard runs the check sample after the measured phase. Events
// answers and heatmap totals must equal the corpus ground truth; archive
// answers must be byte-identical to the resident store's.
func checkDashboard(ctx context.Context, cfg runConfig, run *dashboardRun, sample []request, tiered bool, res *result) {
	t := newTruth(run.corpus.gen.Events)
	cli := run.clis[0]
	var truthChecked, truthWrong, identChecked, identWrong, errs int64
	digest := newDigest()
	for i, r := range sample {
		res.attempted++
		b, err := r.exec(ctx, cli, true)
		if err != nil {
			errs++
			res.failed++
			cfg.logf("check %s: %v", r.kind.name, err)
			continue
		}
		digest.add(b)
		wrong := false
		switch r.kind {
		case kEvents, kEventsStream, kEventsPage, kHeatmap:
			truthChecked++
			if err := checkTruth(t, &r, b); err != nil {
				cfg.logf("check %s: %v", r.kind.name, err)
				truthWrong++
				wrong = true
			}
		}
		if tiered {
			identChecked++
			if !bytes.Equal(b, run.ref[i]) {
				cfg.logf("check %s: tiered answer differs from the resident answer", r.kind.name)
				identWrong++
				wrong = true
			}
		}
		if wrong {
			res.wrong++
			res.failed++
		}
	}
	res.checks = append(res.checks,
		fmt.Sprintf("ground truth: %d/%d events and heatmap answers match the corpus", truthChecked-truthWrong, truthChecked))
	if tiered {
		res.checks = append(res.checks,
			fmt.Sprintf("tier identity: %d/%d answers byte-identical to the resident store's", identChecked-identWrong, identChecked))
	}
	res.checks = append(res.checks, fmt.Sprintf("check sample: %d requests, %d errors, answers digest %s", len(sample), errs, digest.hex()))
}

// checkTruth compares an events or heatmap answer with the ground truth.
func checkTruth(t *truth, r *request, b []byte) error {
	qc := r.q.Context
	typ := model.EventType(qc.EventType)
	if r.kind == kHeatmap {
		var hm analytics.HeatMap
		if err := json.Unmarshal(b, &hm); err != nil {
			return err
		}
		counts, total, err := t.heatmap(typ, qc.From, qc.To)
		if err != nil {
			return err
		}
		if hm.Total != total || hm.Counts != counts {
			return fmt.Errorf("heatmap %s [%d,%d): total %d, ground truth %d", typ, qc.From, qc.To, hm.Total, total)
		}
		return nil
	}
	var recs []query.EventRecord
	if err := json.Unmarshal(b, &recs); err != nil {
		return err
	}
	want := t.window(typ, qc.From, qc.To)
	got := make([]eventKey, 0, len(recs))
	for _, rec := range recs {
		got = append(got, eventKey{ts: rec.Time, typ: model.EventType(rec.Type), source: rec.Source})
	}
	sort.Slice(got, func(i, j int) bool {
		if got[i].ts != got[j].ts {
			return got[i].ts < got[j].ts
		}
		return got[i].source < got[j].source
	})
	if len(got) != len(want) {
		return fmt.Errorf("events %s [%d,%d): %d rows, ground truth %d", typ, qc.From, qc.To, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("events %s [%d,%d): row %d is %+v, ground truth %+v", typ, qc.From, qc.To, i, got[i], want[i])
		}
	}
	return nil
}
