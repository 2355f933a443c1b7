package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"hpclog/client"
	"hpclog/internal/analytics"
	"hpclog/internal/compute"
	"hpclog/internal/cql"
	"hpclog/internal/ingest"
	"hpclog/internal/model"
	"hpclog/internal/obs"
	"hpclog/internal/parse"
	"hpclog/internal/plan"
	"hpclog/internal/query"
	"hpclog/internal/server"
	"hpclog/internal/store"
	"hpclog/internal/topology"
)

// replaySample is how many traced requests are replayed down the stack.
const replaySample = 64

// span is one timed call the benchmark made into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Req    string `json:"request_id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Rows   int    `json:"rows,omitempty"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs fn as a span named name under parent and returns its id. fn
// returns the rows the call produced (0 where that means nothing).
func (t *tracer) do(name string, parent int, req string, fn func() (int, error)) (int, error) {
	start := time.Now()
	rows, err := fn()
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Rows: rows})
	return id, err
}

// selfTimes returns, per span name, the mean self time in milliseconds
// and the span count, and how many spans had a negative self time that
// was clamped to 0. A span's self time is its duration minus the time its
// child spans cover. In a replay the children run one after another one
// layer down, each doing the part of the parent's work that layer does,
// with the parent's concurrency, so each child's duration stands for that
// part of the parent's time.
func selfTimes(spans []span) (map[string][2]float64, int) {
	child := map[int]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	sum := map[string][2]float64{}
	clamped := 0
	for _, s := range spans {
		self := s.End - s.Start - child[s.ID]
		if self < 0 {
			self = 0
			clamped++
		}
		v := sum[s.Name]
		v[0] += float64(self) / 1e6
		v[1]++
		sum[s.Name] = v
	}
	for k, v := range sum {
		v[0] /= v[1]
		sum[k] = v
	}
	return sum, clamped
}

// layerSource is what the traced run reads counters from: one process or
// every member of a cluster, with the coordinator the load goes through.
type layerSource struct {
	urls     []string // every member, scraped and summed
	coordURL string
	dbs      []*store.DB
	comps    []*compute.Engine
	q        *query.Engine // the coordinator's engine
}

// probe is one reading of every counter the layers expose.
type probe struct {
	all, coord metricSet
	comp       compute.Stats
	st         store.StorageStats
	fsync      histSnap
	fetch      histSnap
	tierFetch  [3]int64 // fetched blocks, fetched bytes, verify failures
	tierCache  [2]uint64
	repairs    int64
	cache      query.CacheStats
	memRows    int
	segments   int64
	hints      float64
}

func takeProbe(ctx context.Context, src layerSource) (probe, error) {
	p := probe{all: metricSet{}, cache: src.q.CacheStats()}
	for _, u := range src.urls {
		ms, err := scrape(ctx, u)
		if err != nil {
			return p, fmt.Errorf("scrape %s: %w", u, err)
		}
		p.all.merge(ms)
		if u == src.coordURL {
			p.coord = ms
		}
	}
	for _, c := range src.comps {
		cs := c.Stats()
		p.comp.TasksRun += cs.TasksRun
		p.comp.LocalHits += cs.LocalHits
	}
	var fsyncHists []*obs.Hist
	for _, db := range src.dbs {
		st := db.StorageStats()
		p.st.WALAppends += st.WALAppends
		p.st.WALSyncs += st.WALSyncs
		p.st.Flushes += st.Flushes
		p.st.Compactions += st.Compactions
		p.segments += st.DiskSegments
		p.repairs += db.ReadRepairs()
		p.memRows += db.MemtableRows()
		fsyncHists = append(fsyncHists, db.WALFsyncHists()...)
		if t := db.Tier(); t != nil {
			ts := t.Snapshot()
			p.tierFetch[0] += ts.FetchedBlocks
			p.tierFetch[1] += ts.FetchedBytes
			p.tierFetch[2] += ts.VerifyFailures
			p.tierCache[0] += ts.CacheHits
			p.tierCache[1] += ts.CacheMisses
			p.fetch = snapHists(&t.FetchHist)
		}
	}
	p.fsync = snapHists(fsyncHists...)
	p.hints = p.all.sum("hpclog_dist_hint_backlog_rows")
	return p, nil
}

// phaseStats summarizes the traced measured phase.
type phaseStats struct {
	mu       sync.Mutex
	requests []request // every request issued in the phase
	// calls holds the SDK call time (ms) of each successful untraced [0]
	// and traced [1] call.
	calls     [2][]float64
	lag       []float64
	queueWait []float64
}

// wireRoutes are the route labels of the public routes the mixes call,
// as /v1/metrics exposes them: the URL pattern without the method.
var wireRoutes = []string{`route="/v1/query"`, `route="/v1/query/stream"`, `route="/v1/cql"`}

// wireServerSeconds is the time the server spent handling requests on
// wireRoutes between two scrapes.
func wireServerSeconds(before, after metricSet) float64 {
	total := 0.0
	for _, route := range wireRoutes {
		total += delta(before, after, "hpclog_http_request_seconds_sum", route)
	}
	return total
}

// layerReport turns the probes, the phase, the replays and the second
// load into the per-layer metrics. Layers a workload bypasses report 0.
func layerReport(src layerSource, b, a probe, ph *phaseStats, spans []span, rr reparseStats, ld loadStats, ring ringReader) (report, error) {
	var r report
	self, clamped := selfTimes(spans)
	selfMS := func(name string) (float64, int64) {
		v := self[name]
		return v[0], int64(v[1])
	}
	sdkMS := 0.0
	for _, calls := range ph.calls {
		for _, c := range calls {
			sdkMS += c
		}
	}
	n := int64(len(ph.calls[0]) + len(ph.calls[1]))

	serverS := wireServerSeconds(b.coord, a.coord)
	if n > 0 && serverS <= 0 {
		return r, fmt.Errorf("%d SDK calls completed but the coordinator's /v1/metrics shows no server time on %v", n, wireRoutes)
	}
	r.add("server.overhead_ms", ratio(sdkMS-serverS*1000, float64(n)), "ms", n)
	r.add("server.rejected", delta(b.all, a.all, "hpclog_http_rejected_total"), "count", n)

	hits := float64(a.cache.Hits - b.cache.Hits)
	misses := float64(a.cache.Misses - b.cache.Misses)
	r.add("query.cache_hit_ratio", ratio(hits, hits+misses), "ratio", int64(hits+misses))
	r.add("query.cache_invalidations", float64(a.cache.Invalidations-b.cache.Invalidations), "count", 1)
	v, c := selfMS("query.exec")
	r.add("query.exec_ms", v, "ms", c)
	for _, op := range []string{"heatmap", "distribution", "histogram", "transfer_entropy", "wordcount", "tfidf"} {
		v, c := selfMS("analytics." + op)
		r.add("analytics."+op+"_ms", v, "ms", c)
	}

	scanRows := delta(b.all, a.all, "hpclog_compute_scan_rows_total")
	r.add("compute.scan_tasks", delta(b.all, a.all, "hpclog_compute_scan_tasks_total"), "count", 1)
	r.add("compute.scan_rows", scanRows, "count", 1)
	r.add("compute.rows_per_result", ratio(scanRows, float64(n)), "ratio", n)
	r.add("compute.local_hit_ratio", ratio(float64(a.comp.LocalHits), float64(a.comp.TasksRun)), "ratio", int64(a.comp.TasksRun))
	v, c = selfMS("compute.scan")
	r.add("compute.scan_ms", v, "ms", c)

	v, c = selfMS("cql.exec")
	r.add("cql.exec_ms", v, "ms", c)
	read := delta(b.all, a.all, "hpclog_store_blocks_read_total")
	pruned := delta(b.all, a.all, "hpclog_store_blocks_pruned_total")
	r.add("plan.blocks_read", read, "count", 1)
	r.add("plan.blocks_pruned", pruned, "count", 1)
	r.add("plan.prune_ratio", ratio(pruned, read+pruned), "ratio", int64(read+pruned))

	v, c = selfMS("store.read")
	r.add("store.read_ms", v, "ms", c)
	rowsRead, rowsReturned := 0, 0
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Name != "store.read" {
			continue
		}
		root := s
		for root.Parent != 0 {
			root = byID[root.Parent]
		}
		if lookupSpan(root.Name) {
			rowsRead += s.Rows
			rowsReturned += root.Rows
		}
	}
	r.add("store.rows_read_per_row_returned", ratio(float64(rowsRead), float64(rowsReturned)), "ratio", int64(rowsReturned))
	r.add("store.memtable_rows", float64(a.memRows), "count", 1)
	r.add("store.flushes", float64(a.st.Flushes-b.st.Flushes), "count", 1)
	r.add("store.compactions", float64(a.st.Compactions-b.st.Compactions), "count", 1)
	r.add("store.compaction_s", ld.compactTime.Seconds(), "s", 1)
	r.add("store.disk_segments", float64(a.segments), "count", 1)
	r.add("store.read_repairs", float64(a.repairs-b.repairs), "count", 1)

	appends := float64(a.st.WALAppends - b.st.WALAppends)
	syncs := float64(a.st.WALSyncs - b.st.WALSyncs)
	r.add("wal.appends", appends, "count", 1)
	r.add("wal.syncs", syncs, "count", 1)
	r.add("wal.appends_per_sync", ratio(appends, syncs), "ratio", int64(syncs))
	addQuantiles(&r, "wal.fsync", func(q float64) (float64, int64, bool) { return quantileSince(b.fsync, a.fsync, q) })
	r.add("wal.bytes_per_raw_byte", ratio(float64(ld.walBytes), float64(ld.rawBytes)), "ratio", 1)

	r.add("parse.lines_per_s", rr.linesPerS, "1/s", int64(rr.lines))
	r.add("parse.unmatched", float64(ld.parse.Unmatched), "count", 1)
	r.add("parse.malformed", float64(ld.parse.Malformed+ld.jobs.Malformed), "count", 1)
	r.add("ingest.load_s", rr.loadS, "s", int64(rr.events))

	r.add("watch.delivered", delta(b.all, a.all, "hpclog_watch_delivered_total"), "count", 1)
	r.add("watch.wakeups", delta(b.all, a.all, "hpclog_watch_wakeups_total"), "count", 1)
	r.add("watch.coalesced", delta(b.all, a.all, "hpclog_watch_coalesced_total"), "count", 1)
	th := delta(b.all, a.all, "hpclog_watch_tail_hits_total")
	tm := delta(b.all, a.all, "hpclog_watch_tail_misses_total")
	r.add("watch.tail_hit_ratio", ratio(th, th+tm), "ratio", int64(th+tm))

	addQuantiles(&r, "dist.replication", func(q float64) (float64, int64, bool) {
		return histQuantile(b.all, a.all, "hpclog_dist_replication_seconds", q)
	})
	// Heartbeats are few per second, so their p99 covers everything since
	// the deployment started rather than the phase alone.
	hb, hbN, hbOK := histQuantile(metricSet{}, a.all, "hpclog_dist_heartbeat_rtt_seconds", 0.99)
	r.add("dist.heartbeat_rtt_p99_ms", orZero(hb, hbOK), "ms", hbN)
	r.add("dist.hint_backlog_rows", a.hints, "count", 1)
	remote, total := ring.remoteShare(ph.requests)
	r.add("dist.remote_read_share", ratio(float64(remote), float64(total)), "ratio", int64(total))

	fh := float64(a.tierCache[0] - b.tierCache[0])
	fm := float64(a.tierCache[1] - b.tierCache[1])
	r.add("objstore.cache_hit_ratio", ratio(fh, fh+fm), "ratio", int64(fh+fm))
	r.add("objstore.fetched_blocks", float64(a.tierFetch[0]-b.tierFetch[0]), "count", 1)
	r.add("objstore.fetched_bytes", float64(a.tierFetch[1]-b.tierFetch[1]), "bytes", 1)
	addQuantiles(&r, "objstore.fetch", func(q float64) (float64, int64, bool) { return quantileSince(b.fetch, a.fetch, q) })
	r.add("objstore.verify_failures", float64(a.tierFetch[2]-b.tierFetch[2]), "count", 1)
	r.add("objstore.uploaded_bytes", float64(ld.uploadedB), "bytes", 1)
	r.add("objstore.sweep_s", ld.sweepTime.Seconds(), "s", 1)

	lag, lagOK := percentile(ph.lag, 0.99)
	r.add("gen.sched_lag_p99_ms", orZero(lag, lagOK), "ms", int64(len(ph.lag)))
	qw, qwOK := percentile(ph.queueWait, 0.99)
	r.add("gen.queue_wait_p99_ms", orZero(qw, qwOK), "ms", int64(len(ph.queueWait)))
	r.add("trace.overhead_ratio", ratio(mean(ph.calls[1]), mean(ph.calls[0])), "ratio", n)
	r.add("trace.clamped_spans", float64(clamped), "count", int64(len(spans)))
	return r, nil
}

// addQuantiles adds name_p50_ms and name_p99_ms, 0 where the samples do
// not support the percentile.
func addQuantiles(r *report, name string, q func(float64) (float64, int64, bool)) {
	for _, p := range []struct {
		s string
		q float64
	}{{"_p50_ms", 0.5}, {"_p99_ms", 0.99}} {
		v, n, ok := q(p.q)
		r.add(name+p.s, orZero(v, ok), "ms", n)
	}
}

func orZero(v float64, ok bool) float64 {
	if !ok {
		return 0
	}
	return v
}

func lookupSpan(name string) bool {
	for _, k := range []kind{kEvents, kEventsStream, kEventsPage, kCQLAgg, kCQLSelect, kPoint} {
		if name == "client."+k.name {
			return true
		}
	}
	return false
}

// ringReader classifies partitions as local or remote to the coordinator.
type ringReader struct {
	replicas func(pkey string) []string
	local    string
}

// remoteShare counts the partitions the read requests touch whose
// replicas exclude the coordinator, so a single-replica read goes to
// another member.
func (rr ringReader) remoteShare(reqs []request) (remote, total int) {
	if rr.replicas == nil {
		return 0, 0
	}
	for _, r := range reqs {
		if r.kind.class == classWrite {
			continue
		}
		for _, p := range partitionsOf(r) {
			total++
			local := false
			for _, id := range rr.replicas(p.pkey) {
				local = local || id == rr.local
			}
			if !local {
				remote++
			}
		}
	}
	return remote, total
}

// partRead is one event_by_time partition range a request reads.
type partRead struct {
	pkey string
	rg   store.Range
}

// partitionsOf lists the event_by_time partition ranges r reads.
func partitionsOf(r request) []partRead {
	if r.part != "" {
		rg := store.Range{}
		if r.key != "" {
			rg = store.Range{From: r.key, To: r.key + "\x00"}
		}
		return []partRead{{r.part, rg}}
	}
	qc := r.q.Context
	if qc.EventType == "" {
		return nil
	}
	types := []string{qc.EventType}
	if r.q.SecondType != "" {
		types = append(types, r.q.SecondType)
	}
	from, to := qc.Window()
	var out []partRead
	for _, h := range model.HoursIn(from, to) {
		for _, t := range types {
			out = append(out, partRead{model.EventByTimeKey(h, model.EventType(t)), model.EventTimeRange(from, to)})
		}
	}
	return out
}

// replayer replays requests down the stack against a cache-less query
// engine over the deployment's store.
type replayer struct {
	db   *store.DB
	comp *compute.Engine
	q    *query.Engine
	cli  *client.Client
	hs   *http.Server
	srv  *server.Server
	tr   *tracer
}

func newReplayer(db *store.DB, comp *compute.Engine, tr *tracer) (*replayer, error) {
	q := query.NewWithOptions(db, comp, query.Options{CacheSize: -1})
	srv := server.NewWithConfig(q, db, comp, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	return &replayer{db: db, comp: comp, q: q, srv: srv, hs: hs, tr: tr, cli: newClient("http://" + ln.Addr().String())}, nil
}

func (rp *replayer) close() {
	rp.srv.Close()
	rp.hs.Close()
}

// replay times r as the SDK call, then the query engine or CQL session
// call, then the analytics scan, then a compute scan of the partitions it
// reads, then the store reads of those partitions — each a child span of
// the one before.
func (rp *replayer) replay(ctx context.Context, r request, id string) error {
	tr := rp.tr
	root, err := tr.do("client."+r.kind.name, 0, id, func() (int, error) {
		b, err := r.exec(ctx, rp.cli, true)
		if err != nil {
			return 0, err
		}
		return answerRows(r, b), nil
	})
	if err != nil {
		return fmt.Errorf("replay %s: %w", r.kind.name, err)
	}
	parent := root
	if r.stmt != "" {
		sess := &cql.Session{DB: rp.db, CL: store.One, Eng: rp.comp, Ctx: ctx, Exec: plan.ExecOptions{}}
		parent, err = tr.do("cql.exec", root, id, func() (int, error) {
			res, err := sess.Execute(r.stmt)
			if err != nil {
				return 0, err
			}
			return len(res.Rows), nil
		})
	} else {
		q, qerr := tr.do("query.exec", root, id, func() (int, error) {
			_, err := rp.q.ExecuteCtx(ctx, r.q)
			return 0, err
		})
		if qerr != nil {
			return qerr
		}
		parent, err = tr.do("analytics."+string(r.q.Op), q, id, func() (int, error) { return 0, rp.analytics(r) })
	}
	if err != nil {
		return fmt.Errorf("replay %s: %w", r.kind.name, err)
	}
	parts := partitionsOf(r)
	scan, err := tr.do("compute.scan", parent, id, func() (int, error) { return rp.computeScan(parts) })
	if err != nil {
		return err
	}
	_, err = tr.do("store.read", scan, id, func() (int, error) { return rp.storeRead(parts) })
	return err
}

// analytics calls the analytics package's scan for r directly.
func (rp *replayer) analytics(r request) error {
	qc := r.q.Context
	from, to := qc.Window()
	typ := model.EventType(qc.EventType)
	cfg := analytics.ScanConfig{}
	bin := time.Duration(r.q.BinSeconds) * time.Second
	var err error
	switch r.q.Op {
	case query.OpHeatmap:
		_, err = analytics.HeatmapScan(rp.comp, rp.db, typ, from, to, cfg)
	case query.OpDistribution:
		if r.q.Level == "app" {
			_, err = analytics.DistributionByAppScan(rp.comp, rp.db, typ, from, to, cfg)
		} else {
			_, err = analytics.DistributionByScan(rp.comp, rp.db, typ, from, to, topology.LevelCabinet, cfg)
		}
	case query.OpHistogram:
		_, err = analytics.HistogramScan(rp.comp, rp.db, typ, from, to, bin, cfg)
	case query.OpTE:
		_, err = analytics.TransferEntropyBetweenScan(rp.comp, rp.db, typ, model.EventType(r.q.SecondType), from, to, bin, cfg)
	case query.OpWordCount:
		_, err = analytics.WordCountScan(rp.comp, rp.db, typ, from, to, cfg)
	case query.OpTFIDF:
		_, err = analytics.TFIDFScan(rp.comp, rp.db, typ, from, to, cfg)
	case query.OpEvents:
		_, err = analytics.EventsByTypeScan(rp.comp, rp.db, typ, from, to, cfg)
	default:
		err = fmt.Errorf("no analytics replay for op %q", r.q.Op)
	}
	return err
}

// computeScan streams the partitions through the compute scan planner,
// counting rows without decoding them.
func (rp *replayer) computeScan(parts []partRead) (int, error) {
	tasks := make([]compute.ScanTask[int], len(parts))
	for i, p := range parts {
		p := p
		tasks[i] = compute.ScanTask[int]{Index: i, Run: func(yield func(int) error) error {
			return rp.drain(p, func() error { return yield(1) })
		}}
	}
	return compute.ScanReduce(rp.comp, compute.ScanOptions{}, tasks,
		func() int { return 0 }, func(a, b int) int { return a + b }, func(a, b int) int { return a + b })
}

// storeRead does computeScan's store work without the compute layer: the
// same partition iterators, drained by as many goroutines as ScanReduce
// runs (GOMAXPROCS), taking partitions in the same order.
func (rp *replayer) storeRead(parts []partRead) (int, error) {
	var (
		mu       sync.Mutex
		next     int
		rows     int
		firstErr error
		wg       sync.WaitGroup
	)
	par := min(runtime.GOMAXPROCS(0), len(parts))
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if firstErr != nil || next >= len(parts) {
					mu.Unlock()
					return
				}
				p := parts[next]
				next++
				mu.Unlock()
				n := 0
				err := rp.drain(p, func() error { n++; return nil })
				mu.Lock()
				rows += n
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return rows, firstErr
}

// drain iterates one partition range, calling row once per row.
func (rp *replayer) drain(p partRead, row func() error) error {
	it, err := rp.db.ScanPartition(model.TableEventByTime, p.pkey, p.rg, store.One)
	if err != nil {
		return err
	}
	defer it.Close()
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		if err := row(); err != nil {
			return err
		}
	}
	return it.Err()
}

// answerRows counts the rows a lookup answer returned.
func answerRows(r request, b []byte) int {
	if r.stmt != "" {
		rows, _ := cqlRows(b)
		return len(rows)
	}
	if r.q.Op == query.OpEvents {
		var recs []json.RawMessage
		json.Unmarshal(b, &recs)
		return len(recs)
	}
	return 0
}

// reparseStats times the second parse and load of the corpus.
type reparseStats struct {
	lines     int
	events    int
	linesPerS float64
	loadS     float64
}

// reparse parses the corpus again line by line with parse.ParseLine and
// loads the result into a fresh store of the same shape through an
// ingest.Loader, timing the two apart.
func reparse(dir string, c *corpus) (reparseStats, error) {
	st := reparseStats{lines: len(c.lines) + len(c.jobLines)}
	started := time.Now()
	events := make([]model.Event, 0, len(c.lines))
	for _, l := range c.lines {
		if e, err := parse.ParseLine(l); err == nil {
			events = append(events, e)
		}
	}
	runs := make([]model.AppRun, 0, len(c.jobLines))
	for _, l := range c.jobLines {
		if r, err := parse.ParseJobLine(l); err == nil {
			runs = append(runs, r)
		}
	}
	st.linesPerS = float64(st.lines) / time.Since(started).Seconds()
	st.events = len(events)
	s, err := openSingle(dir, false)
	if err != nil {
		return st, err
	}
	defer s.close()
	loader := ingest.NewLoader(s.db)
	started = time.Now()
	if err := loader.LoadEvents(events); err != nil {
		return st, err
	}
	if err := loader.LoadRuns(runs); err != nil {
		return st, err
	}
	st.loadS = time.Since(started).Seconds()
	return st, nil
}

// alternating wraps a target for the traced run. Every call is timed and
// kept for replay sampling; calls in odd traceSlice slices since t0 are
// also recorded as root spans. Alternating keeps the traced and untraced
// calls under the same cache and compaction state, so their mean call
// times give the tracing overhead.
func alternating(t target, tr *tracer, ph *phaseStats, t0 time.Time) target {
	return func(ctx context.Context, r *request, keep bool) ([]byte, error) {
		traced := (time.Since(t0)/traceSlice)%2 == 1
		ph.mu.Lock()
		id := fmt.Sprintf("req-%d", len(ph.requests)+1)
		ph.requests = append(ph.requests, *r)
		ph.mu.Unlock()
		var b []byte
		var err error
		call := func() (int, error) {
			b, err = t(ctx, r, keep)
			return 0, err
		}
		start := time.Now()
		if traced {
			tr.do("client."+r.kind.name, 0, id, call)
		} else {
			call()
		}
		took := ms(time.Since(start))
		ph.mu.Lock()
		defer ph.mu.Unlock()
		if err == nil {
			ph.calls[btoi(traced)] = append(ph.calls[btoi(traced)], took)
		}
		return b, err
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func mean(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return ratio(total, float64(len(xs)))
}

// replayAndFinish replays a seeded sample of the traced phase's requests,
// parses and loads the corpus a second time, writes the spans out, and
// builds the per-layer report.
func replayAndFinish(ctx context.Context, cfg runConfig, tr *tracer, rp *replayer, src layerSource, b, a probe, ph *phaseStats, c *corpus, ld loadStats, ring ringReader) (report, error) {
	rootSpans := len(tr.spans)
	var reads []int
	for i, r := range ph.requests {
		if r.kind.class != classWrite {
			reads = append(reads, i)
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x7ace))
	rng.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
	if len(reads) > replaySample {
		reads = reads[:replaySample]
	}
	sort.Ints(reads)
	for _, i := range reads {
		if err := rp.replay(ctx, ph.requests[i], fmt.Sprintf("replay-%d", i+1)); err != nil {
			return report{}, err
		}
	}
	rr, err := reparse(filepath.Join(cfg.work, "reparse"), c)
	if err != nil {
		return report{}, fmt.Errorf("second load: %w", err)
	}
	if err := writeSpans(cfg, tr.spans); err != nil {
		return report{}, err
	}
	return layerReport(src, b, a, ph, tr.spans[rootSpans:], rr, ld, ring)
}

func writeSpans(cfg runConfig, spans []span) error {
	dir := filepath.Join(cfg.root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed)), b, 0o644)
}

// tracedResult is what a traced measured phase hands back.
type tracedResult struct {
	layers  report
	outs    []outcome
	elapsed time.Duration
	step    stepResult
}

// traceSlice is the length of the alternating untraced and traced slices
// of a traced run's measured phase.
const traceSlice = 250 * time.Millisecond

// tracedPhase is dashboard's and archive's traced run: the closed loop
// runs for the measured time with every other slice traced and counters
// read around the whole phase; then the replays and the second load.
func tracedPhase(ctx context.Context, cfg runConfig, run *dashboardRun, targets []target) (*tracedResult, error) {
	src := layerSource{urls: []string{run.dep.url}, coordURL: run.dep.url, dbs: []*store.DB{run.dep.db},
		comps: []*compute.Engine{run.dep.comp}, q: run.dep.q}
	tr := newTracer()
	ph := &phaseStats{}
	before, err := takeProbe(ctx, src)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	traced := make([]target, len(targets))
	for i, t := range targets {
		traced[i] = alternating(t, tr, ph, t0)
	}
	outs, elapsed := closedLoop(ctx, traced, run.mix.next, 0, time.Duration(cfg.seconds)*time.Second)
	after, err := takeProbe(ctx, src)
	if err != nil {
		return nil, err
	}
	rp, err := newReplayer(run.dep.db, run.dep.comp, tr)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	layers, err := replayAndFinish(ctx, cfg, tr, rp, src, before, after, ph, run.corpus, run.load, ringReader{})
	if err != nil {
		return nil, err
	}
	return &tracedResult{layers: layers, outs: outs, elapsed: elapsed}, nil
}

// tracedLive is live's traced run: the base rate for the measured time
// with every other slice traced and counters read around the whole
// phase; then the replays (reads only) and the second load.
func tracedLive(ctx context.Context, cfg runConfig, lr *liveRun, targets []target) (*tracedResult, error) {
	n0 := lr.cl.nodes[0]
	src := layerSource{urls: lr.cl.urls, coordURL: lr.cl.urls[0], q: n0.Query}
	for _, n := range lr.cl.nodes {
		src.dbs = append(src.dbs, n.DB)
		src.comps = append(src.comps, n.Compute)
	}
	tr := newTracer()
	ph := &phaseStats{}
	before, err := takeProbe(ctx, src)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	traced := make([]target, len(targets))
	for i, t := range targets {
		traced[i] = alternating(t, tr, ph, t0)
	}
	step := openLoop(ctx, traced, lr.mix.next, liveBaseRate, time.Duration(cfg.seconds)*time.Second, lr.onDone)
	after, err := takeProbe(ctx, src)
	if err != nil {
		return nil, err
	}
	ph.lag, ph.queueWait = step.lag, step.queueWait
	rp, err := newReplayer(n0.DB, n0.Compute, tr)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	ring := ringReader{replicas: n0.DB.Ring().Replicas, local: n0.Cfg.ID}
	layers, err := replayAndFinish(ctx, cfg, tr, rp, src, before, after, ph, lr.corpus, lr.load, ring)
	if err != nil {
		return nil, err
	}
	return &tracedResult{layers: layers, step: step}, nil
}
