package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"hpclog/client"
	"hpclog/internal/cql"
	"hpclog/internal/ingest"
	"hpclog/internal/model"
	"hpclog/internal/query"
	"hpclog/internal/store"
)

// The live workload: operational traffic on a three-member cluster.
const (
	// liveHistoryHours of history are preloaded from dashboardStart.
	liveHistoryHours = 2
	// liveBaseRate is the offered rate of the base step, requests/s.
	liveBaseRate = 160.0
	// liveWarmup is how long set-up offers the base rate before timing.
	liveWarmup = 3 * time.Second
	// liveWindow is the width of the light analytics' window over the
	// written type. It slides with the clock, so once the warm-up has
	// filled it every query reads about the same number of rows.
	liveWindow = liveWarmup
	// ladderStep is the length of each rate-ladder step above the base.
	ladderStep = 2 * time.Second
	// liveLimit is the latency limit a ladder step's write and lookup
	// tails must meet.
	liveLimit = 50 * time.Millisecond
)

// writeType returns the event type a run writes and watches. Writes are
// keyed by the wall clock and the ring places a partition by its key, so
// with one fixed type the write path and the analytics over fresh writes
// would be local to the coordinator in some hours and remote in others.
// It picks the first of model.EventTypes whose event_by_time partitions
// for the hour of now and the next hour both have coord among their
// replicas; failing that, one local in this hour only. In an hour where
// no type has coord as a replica the run writes remotely.
func writeType(replicas func(pkey string) []string, coord string, now time.Time) model.EventType {
	hour := now.Unix() / 3600
	has := func(pkey string) bool {
		for _, id := range replicas(pkey) {
			if id == coord {
				return true
			}
		}
		return false
	}
	best, bestScore := model.EventTypes[0], -1
	for _, t := range model.EventTypes {
		score := 0
		if has(model.EventByTimeKey(hour, t)) {
			score += 2
		}
		if has(model.EventByTimeKey(hour+1, t)) {
			score++
		}
		if score > bestScore {
			best, bestScore = t, score
		}
	}
	return best
}

// ladder lists the rate-ladder steps as multiples of the base rate; the
// first is the base step itself.
var ladder = []float64{1, 2, 4, 6}

// liveKinds and their weights form the live mix. The weights, like the
// rates above, are an assumption (README.md, "Traffic mix").
var (
	liveKinds = []kind{kInsert, kPoint, kCQLSelect, kHeatmap, kHistogram}
	liveW     = []int{45, 15, 15, 12, 13}
)

// rowKey addresses one event_by_time row.
type rowKey struct{ part, key string }

// liveMix generates the live request stream. Its choices are fixed by
// the seed; write keys and analytics windows follow the clock.
type liveMix struct {
	mu      sync.Mutex
	rng     *rand.Rand
	seed    int64
	seq     int
	rows    []rowKey // preloaded rows, for point lookups
	parts   []string // preloaded event_by_time partitions
	sources []string
	typ     model.EventType // the type written, watched and analysed
	w       *watcher
}

func newLiveMix(seed int64, c *corpus, typ model.EventType, w *watcher) *liveMix {
	m := &liveMix{rng: rand.New(rand.NewSource(seed)), seed: seed, sources: corpusSources(c), typ: typ, w: w}
	parts := map[string]bool{}
	for _, ks := range newTruth(c.gen.Events).byType {
		for _, k := range ks {
			p := model.EventByTimeKey(k.ts/3600, k.typ)
			m.rows = append(m.rows, rowKey{p, store.EncodeTS(k.ts) + ":" + k.source})
			parts[p] = true
		}
	}
	sort.Slice(m.rows, func(i, j int) bool {
		if m.rows[i].part != m.rows[j].part {
			return m.rows[i].part < m.rows[j].part
		}
		return m.rows[i].key < m.rows[j].key
	})
	for p := range parts {
		m.parts = append(m.parts, p)
	}
	sort.Strings(m.parts)
	return m
}

func (m *liveMix) next(due time.Time) request {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := liveKinds[weighted(m.rng, liveW)]
	switch k {
	case kInsert:
		m.seq++
		src := "pb" + strconv.FormatInt(m.seed, 10) + "-" + strconv.Itoa(m.seq)
		at := due.Unix()
		m.w.expect(src, due)
		return request{kind: k, cl: "QUORUM", stmt: insertStmt(m.typ, at, src), source: src, at: at}
	case kPoint:
		rk := m.rows[m.rng.Intn(len(m.rows))]
		return request{kind: k, cl: "ONE", part: rk.part, key: rk.key, stmt: fmt.Sprintf(
			"SELECT source, amount FROM event_by_time WHERE partition = '%s' AND key = '%s'", rk.part, rk.key)}
	case kCQLSelect:
		p := m.parts[m.rng.Intn(len(m.parts))]
		src := m.sources[m.rng.Intn(len(m.sources))]
		return request{kind: k, cl: "ONE", part: p, stmt: fmt.Sprintf(
			"SELECT key, source FROM event_by_time WHERE partition = '%s' AND source = '%s'", p, src)}
	}
	qc := query.Context{EventType: string(m.typ), From: due.Add(-liveWindow).Unix(), To: due.Unix() + 1}
	r := analyticsRequest(k, qc, m.rng)
	r.q.BinSeconds = 1
	return r
}

// watcher holds the run's one watch subscription and matches deliveries
// to the writes that were due.
type watcher struct {
	w    *client.Watch
	mu   sync.Mutex
	due  map[string]time.Time
	got  map[string]int
	at   map[string]time.Time // first delivery
	done chan struct{}
}

func openWatcher(ctx context.Context, url string, typ model.EventType, since time.Time) (*watcher, error) {
	cli := client.New(url, client.WithRetries(0))
	w, err := cli.Watch(ctx, string(typ), client.WatchOptions{Since: since, Timeout: 2 * time.Minute})
	if err != nil {
		return nil, fmt.Errorf("watch: %w", err)
	}
	wt := &watcher{w: w, due: map[string]time.Time{}, got: map[string]int{}, at: map[string]time.Time{}, done: make(chan struct{})}
	go func() {
		defer close(wt.done)
		for {
			rec, ok := w.Next()
			if !ok {
				return
			}
			now := time.Now()
			wt.mu.Lock()
			wt.got[rec.Source]++
			if wt.got[rec.Source] == 1 {
				wt.at[rec.Source] = now
			}
			wt.mu.Unlock()
		}
	}()
	return wt, nil
}

func (wt *watcher) expect(source string, due time.Time) {
	wt.mu.Lock()
	wt.due[source] = due
	wt.mu.Unlock()
}

// wait blocks until every source in acked has been delivered or the
// timeout passes.
func (wt *watcher) wait(acked []request, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		wt.mu.Lock()
		missing := 0
		for _, r := range acked {
			if wt.got[r.source] == 0 {
				missing++
			}
		}
		wt.mu.Unlock()
		if missing == 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// reset forgets every expected and delivered write.
func (wt *watcher) reset() {
	wt.mu.Lock()
	wt.due, wt.got, wt.at = map[string]time.Time{}, map[string]int{}, map[string]time.Time{}
	wt.mu.Unlock()
}

func (wt *watcher) close() {
	wt.w.Close()
	<-wt.done
}

// lags returns due → first delivery, in ms, for writes due in [from, to).
func (wt *watcher) lags(acked []request, from, to time.Time) []float64 {
	wt.mu.Lock()
	defer wt.mu.Unlock()
	var out []float64
	for _, r := range acked {
		due := wt.due[r.source]
		at, ok := wt.at[r.source]
		if ok && !due.Before(from) && due.Before(to) {
			out = append(out, ms(at.Sub(due)))
		}
	}
	return out
}

// liveRun is the state one live set-up leaves.
type liveRun struct {
	cl *cluster
	// clis carry every request of the run: warm-up, measured phase and
	// the read-back check.
	clis   []*client.Client
	corpus *corpus
	load   loadStats
	mix    *liveMix
	watch  *watcher
	// acked collects every acknowledged INSERT (warm-up included).
	mu    sync.Mutex
	acked []request
	// baseHeap is the live heap, in MiB, with the corpus generated and no
	// cluster open (see heapMiB).
	baseHeap float64
}

// onDone records acknowledged writes and checks point lookups, which
// must find exactly the one preloaded row they address.
func (lr *liveRun) onDone(a arrival, o outcome) outcome {
	if o.err != nil {
		return o
	}
	switch a.req.kind {
	case kInsert:
		lr.mu.Lock()
		lr.acked = append(lr.acked, a.req)
		lr.mu.Unlock()
	case kPoint:
		rows, err := cqlRows(o.ans)
		if err == nil && len(rows) != 1 {
			err = fmt.Errorf("point lookup found %d rows", len(rows))
		}
		if err != nil {
			o.err = wrongAnswer{err}
		}
	}
	return o
}

// wrongAnswer marks an outcome whose request succeeded with a wrong
// answer.
type wrongAnswer struct{ error }

// liveClients returns the open loop's SDK clients: nproc − 1 of one
// connection each, since the watch holds the last connection.
func liveClients(url string) []*client.Client {
	clis := make([]*client.Client, max(1, runtime.NumCPU()-1))
	for i := range clis {
		clis[i] = newClient(url)
	}
	return clis
}

// setupLive starts the cluster, preloads the history, compacts it, opens
// the watch and warms up at the base rate. Member n0 coordinates every
// request.
func setupLive(ctx context.Context, cfg runConfig, i int) (*liveRun, time.Duration, error) {
	started := time.Now()
	// The history sits at fixed hours. The ring places a partition by its
	// key, which holds the hour, so history anchored to the current hour
	// would put a different share of the lookups on remote members in
	// every hour of the day.
	gen := corpusConfig(cfg.seed, dashboardStart, liveHistoryHours)
	gen.Storms = nil // the storm is the sealed corpus's incident, not operational history
	c := newCorpus(gen)
	t := time.Now()
	baseHeap := heapMiB()
	excluded := time.Since(t)
	cl, err := openCluster(filepath.Join(cfg.work, "live-"+strconv.Itoa(i)))
	if err != nil {
		return nil, 0, err
	}
	lr := &liveRun{cl: cl, corpus: c, baseHeap: baseHeap}
	fail := func(err error) (*liveRun, time.Duration, error) {
		if lr.watch != nil {
			lr.watch.close()
		}
		cl.close()
		return nil, 0, err
	}
	n0 := cl.nodes[0]
	typ := writeType(n0.DB.Ring().Replicas, n0.Cfg.ID, started)
	if lr.load, err = cl.load(c); err != nil {
		return fail(err)
	}
	if lr.watch, err = openWatcher(ctx, cl.urls[0], typ, started); err != nil {
		return fail(err)
	}
	lr.mix = newLiveMix(cfg.seed, c, typ, lr.watch)
	lr.clis = liveClients(cl.urls[0])
	step := openLoop(ctx, sdkTargets(lr.clis), lr.mix.next, liveBaseRate, liveWarmup, lr.onDone)
	for _, o := range step.outcomes {
		if o.err != nil {
			return fail(fmt.Errorf("warm-up %s: %w", o.kind.name, o.err))
		}
	}
	return lr, time.Since(started) - excluded, nil
}

// load bulk-loads c through member n0 as coordinator (QUORUM writes
// replicate to the other members), then compacts every member.
func (c *cluster) load(cp *corpus) (loadStats, error) {
	st := loadStats{rawBytes: cp.rawBytes}
	n0 := c.nodes[0]
	walBefore := c.walBytes()
	started := time.Now()
	const nparts = 4
	res, err := ingest.BatchImport(n0.Compute, n0.DB, cp.lines, store.Quorum, nparts)
	if err != nil {
		return st, fmt.Errorf("batch import: %w", err)
	}
	jres, err := ingest.BatchImportJobs(n0.Compute, n0.DB, cp.jobLines, store.Quorum, nparts)
	if err != nil {
		return st, fmt.Errorf("batch import jobs: %w", err)
	}
	st.parse, st.jobs, st.events = res, jres, res.EventsLoaded
	if err := ingest.RefreshSynopsis(n0.Compute, n0.DB, model.HoursIn(cp.start, cp.end), store.Quorum); err != nil {
		return st, fmt.Errorf("refresh synopsis: %w", err)
	}
	compactStart := time.Now()
	for _, n := range c.nodes {
		if _, err := n.DB.Compact(); err != nil {
			return st, fmt.Errorf("compact %s: %w", n.Cfg.ID, err)
		}
	}
	st.compactTime = time.Since(compactStart)
	st.loadTime = time.Since(started)
	for _, n := range c.nodes {
		st.diskBytes += n.DB.StorageStats().DiskBytes
	}
	st.walBytes = c.walBytes() - walBefore
	return st, nil
}

func (c *cluster) walBytes() int64 {
	var n int64
	for _, node := range c.nodes {
		n += node.DB.StorageStats().WALBytes
	}
	return n
}

func (lr *liveRun) close() error {
	lr.watch.close()
	return lr.cl.close()
}

func runLive(ctx context.Context, cfg runConfig) (*result, error) {
	var lr *liveRun
	var setups, loadRates []float64
	for i := 0; i < setupRuns; i++ {
		if lr != nil {
			// Drop the closed cluster before the next set-up reads its
			// base heap.
			err := lr.close()
			lr = nil
			if err != nil {
				return nil, err
			}
		}
		var took time.Duration
		var err error
		if lr, took, err = setupLive(ctx, cfg, i); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, took.Seconds())
		loadRates = append(loadRates, float64(lr.load.events)/lr.load.loadTime.Seconds())
		cfg.logf("set-up %d: %.2fs (load %.2fs, %d events)", i, took.Seconds(), lr.load.loadTime.Seconds(), lr.load.events)
	}
	defer lr.close()

	res := &result{info: map[string]any{}}
	targets := sdkTargets(lr.clis)
	baseStart := time.Now()
	var base stepResult
	if cfg.trace {
		tr, err := tracedLive(ctx, cfg, lr, targets)
		if err != nil {
			return nil, err
		}
		res.metrics = tr.layers
		base = tr.step
	} else {
		base = openLoop(ctx, targets, lr.mix.next, liveBaseRate, time.Duration(cfg.seconds)*time.Second, lr.onDone)
	}
	baseEnd := time.Now()
	var lat [numClasses][]float64
	res.attempted, res.failed = base.offered, base.shed
	completedReads := 0
	for _, o := range base.outcomes {
		if o.err != nil {
			res.failed++
			if _, ok := o.err.(wrongAnswer); ok {
				res.wrong++
			}
			continue
		}
		lat[o.kind.class] = append(lat[o.kind.class], ms(o.lat))
		if o.kind.class != classWrite {
			completedReads++
		}
	}
	// The ladder: the highest step that, with every step below it, meets
	// the limit.
	maxRate, passing := 0.0, true
	if !cfg.trace {
		for i, mult := range ladder {
			step := base
			if i > 0 {
				step = openLoop(ctx, targets, lr.mix.next, liveBaseRate*mult, ladderStep, lr.onDone)
			}
			ok, line := judgeStep(step)
			res.checks = append(res.checks, line)
			if passing = passing && ok; passing {
				maxRate = step.rate
			}
		}
	}
	checkLive(ctx, cfg, lr, res)
	// After checkLive has waited for late deliveries.
	lags := lr.watch.lags(lr.acked, baseStart, baseEnd)
	res.info["kinds"] = kindStats(base.outcomes)
	// The outcomes, the acked writes and the watch bookkeeping are
	// harness memory that grows with the run: release them before
	// reading the program's heap.
	base.outcomes, lr.acked = nil, nil
	lr.watch.reset()
	heap := heapMiB() - lr.baseHeap
	if !cfg.trace {
		m := &res.metrics
		m.add("setup_s", median(setups), "s", int64(len(setups)))
		m.add("load_events_per_s", median(loadRates), "events/s", int64(len(loadRates)))
		m.add("disk_bytes_per_raw_byte", float64(lr.load.diskBytes)/float64(lr.load.rawBytes), "ratio", 1)
		m.add("heap_mb", heap, "MiB", 1)
		m.add("queries_per_s", float64(completedReads)/base.elapsed.Seconds(), "1/s", int64(completedReads))
		m.addLatency("analytics", lat[classAnalytics])
		m.addLatency("lookup", lat[classLookup])
		m.addLatency("write", lat[classWrite])
		m.addLatency("watch_lag", lags)
		m.add("live_max_rate_per_s", maxRate, "1/s", int64(len(ladder)))
		m.add("error_ratio", ratio(float64(res.failed), float64(res.attempted)), "ratio", res.attempted)
	}
	res.info["base_shed"] = base.shed
	res.info["corpus_digest"] = lr.corpus.digest()
	res.info["preload_events"] = lr.load.events
	return res, nil
}

// judgeStep decides whether a ladder step met the latency limit without
// a growing backlog. The limit applies to the write and lookup p99, or
// to the highest of p95 and p90 a short step's samples support; a step
// that ends with more than 1% of its arrivals never issued has a growing
// backlog.
func judgeStep(st stepResult) (bool, string) {
	var lat [numClasses][]float64
	errs := 0
	for _, o := range st.outcomes {
		if o.err != nil {
			errs++
			continue
		}
		lat[o.kind.class] = append(lat[o.kind.class], ms(o.lat))
	}
	ok := st.shed*100 <= st.offered && errs == 0
	line := fmt.Sprintf("ladder %.0f/s: offered %d, shed %d, failed %d", st.rate, st.offered, st.shed, errs)
	for _, c := range []class{classWrite, classLookup} {
		v, q, found := tailPercentile(lat[c])
		if !found {
			ok = false
			line += fmt.Sprintf(", %s: too few samples (%d)", c, len(lat[c]))
			continue
		}
		if v > ms(liveLimit) {
			ok = false
		}
		line += fmt.Sprintf(", %s p%g %.2f ms", c, q*100, v)
	}
	verdict := "meets"
	if !ok {
		verdict = "misses"
	}
	return ok, fmt.Sprintf("%s: %s the %v limit", line, verdict, liveLimit)
}

// tailPercentile returns the highest of p99, p95 and p90 with minTail
// samples beyond it.
func tailPercentile(xs []float64) (float64, float64, bool) {
	for _, q := range []float64{0.99, 0.95, 0.90} {
		if v, ok := percentile(xs, q); ok {
			return v, q, true
		}
	}
	return 0, 0, false
}

// checkLive verifies, after the run, that every acknowledged write reads
// back at QUORUM and was delivered exactly once to the subscription.
func checkLive(ctx context.Context, cfg runConfig, lr *liveRun, res *result) {
	lr.watch.wait(lr.acked, 5*time.Second)
	byPart := map[string]map[string]bool{}
	for _, r := range lr.acked {
		p := model.EventByTimeKey(r.at/3600, lr.mix.typ)
		if byPart[p] == nil {
			byPart[p] = map[string]bool{}
		}
		byPart[p][store.EncodeTS(r.at)+":"+r.source] = false
	}
	sess := lr.clis[0].Session("QUORUM")
	for p, keys := range byPart {
		res.attempted++
		err := sess.Each(ctx, fmt.Sprintf("SELECT key FROM event_by_time WHERE partition = '%s'", p), 1000,
			func(row cql.ResultRow) error {
				if _, ok := keys[row.Key]; ok {
					keys[row.Key] = true
				}
				return nil
			})
		if err != nil {
			res.failed++
			cfg.logf("read-back %s: %v", p, err)
		}
	}
	missing := 0
	for _, keys := range byPart {
		for _, found := range keys {
			if !found {
				missing++
			}
		}
	}
	lr.watch.mu.Lock()
	undelivered, dup := 0, 0
	for _, r := range lr.acked {
		switch n := lr.watch.got[r.source]; {
		case n == 0:
			undelivered++
		case n > 1:
			dup++
		}
	}
	lr.watch.mu.Unlock()
	bad := int64(missing + undelivered + dup)
	res.attempted += int64(len(lr.acked))
	res.failed += bad
	res.wrong += bad
	res.checks = append(res.checks,
		fmt.Sprintf("read-back: %d/%d acknowledged writes read back at QUORUM", len(lr.acked)-missing, len(lr.acked)),
		fmt.Sprintf("watch: %d acknowledged writes, %d undelivered, %d delivered more than once", len(lr.acked), undelivered, dup))
}
