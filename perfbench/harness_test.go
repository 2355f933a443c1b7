package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	ring "hpclog/internal/cluster"
	"hpclog/internal/compute"
	"hpclog/internal/ingest"
	"hpclog/internal/model"
	"hpclog/internal/query"
	"hpclog/internal/server"
	"hpclog/internal/store"
	"hpclog/internal/topology"
)

// stallTarget answers at once except for call number stallAt, which
// blocks for stall.
func stallTarget(stallAt int64, stall time.Duration) target {
	var calls atomic.Int64
	return func(ctx context.Context, r *request, keep bool) ([]byte, error) {
		if calls.Add(1) == stallAt {
			time.Sleep(stall)
		}
		return nil, nil
	}
}

func fixedRequest(time.Time) request { return request{kind: kPoint} }

// A one-off stall at the target must delay the requests due after it —
// their latency runs from when they were due — and show up as the
// generator running late.
func TestOpenLoopStallShowsInLatencyAndLag(t *testing.T) {
	const rate, stall = 500.0, 200 * time.Millisecond
	calm := openLoop(context.Background(), []target{stallTarget(-1, 0)}, fixedRequest, rate, 2*time.Second, nil)
	stalled := openLoop(context.Background(), []target{stallTarget(100, stall)}, fixedRequest, rate, 2*time.Second, nil)

	calmLag, ok := percentile(calm.lag, 0.99)
	if !ok {
		t.Fatalf("calm run: %d lag samples do not support a p99", len(calm.lag))
	}
	stallLag, ok := percentile(stalled.lag, 0.99)
	if !ok {
		t.Fatalf("stalled run: %d lag samples do not support a p99", len(stalled.lag))
	}
	if stallLag < ms(stall)/2 || stallLag < 5*calmLag {
		t.Fatalf("sched lag p99 %.2f ms with a %v stall, %.2f ms without: stall not visible", stallLag, stall, calmLag)
	}
	// Requests due during the stall wait behind it: count the ones whose
	// latency exceeds a quarter of the stall.
	late := 0
	for _, o := range stalled.outcomes {
		if o.lat > stall/4 {
			late++
		}
	}
	// 500/s over the first 3/4 of a 200ms stall is about 75 requests.
	if late < 50 {
		t.Fatalf("only %d requests were delayed by the stall", late)
	}
	if stalled.shed != 0 {
		t.Fatalf("a single stall well inside the step shed %d arrivals", stalled.shed)
	}
}

// Arrivals the generator could not issue by the end of the step's drain
// grace are shed and counted.
func TestOpenLoopShedsUnissuedArrivals(t *testing.T) {
	slow := func(ctx context.Context, r *request, keep bool) ([]byte, error) {
		time.Sleep(10 * time.Millisecond)
		return nil, nil
	}
	st := openLoop(context.Background(), []target{slow}, fixedRequest, 1000, 500*time.Millisecond, nil)
	if st.offered != 500 {
		t.Fatalf("offered %d arrivals at 1000/s over 500ms, want 500", st.offered)
	}
	// 10ms a request serves about 150 of them in the step and its grace.
	if st.shed < 300 || int64(len(st.outcomes))+st.shed != st.offered {
		t.Fatalf("offered %d, completed %d, shed %d: want most shed and every arrival accounted for",
			st.offered, len(st.outcomes), st.shed)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{999, 0.99, false}, {1000, 0.99, true},
		{19, 0.50, false}, {20, 0.50, true},
		{99, 0.90, false}, {100, 0.90, true},
		{0, 0.50, false},
	} {
		v, ok := percentile(seq(c.n), c.q)
		if ok != c.ok {
			t.Errorf("percentile(n=%d, q=%g) ok=%v, want %v", c.n, c.q, ok, c.ok)
		}
		if ok {
			// Exactly ten of 1..n lie above the reported value.
			if beyond := c.n - int(v); beyond < minTail {
				t.Errorf("percentile(n=%d, q=%g) = %v leaves %d samples beyond it", c.n, c.q, v, beyond)
			}
		}
	}

	var r report
	r.addLatency("lookup", seq(999))
	p99, _ := r.get("lookup_p99_ms")
	if !p99.Missing {
		t.Fatal("a p99 over 999 samples was reported")
	}
	res := &result{metrics: r, checks: []string{"ok"}}
	if _, err := finalLine(res, []specMetric{{"lookup_p99_ms", "ms"}}); err == nil ||
		!strings.Contains(err.Error(), "too few samples") {
		t.Fatalf("final line with a withheld percentile: err = %v", err)
	}
	line, err := finalLine(res, []specMetric{{"lookup_p50_ms", "ms"}})
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]map[string]any
	}
	if err := json.Unmarshal([]byte(line), &out); err != nil || len(out.Metrics) != 1 || !out.Correct {
		t.Fatalf("final line %s: %+v, %v", line, out, err)
	}
}

// The same seed gives the same corpus and request stream; another seed
// gives different ones.
func TestSeedFixesCorpusAndRequests(t *testing.T) {
	digest := func(seed int64) string {
		return newCorpus(corpusConfig(seed, dashboardStart, corpusHours)).digest()
	}
	dashboard := func(seed int64) []string {
		c := newCorpus(corpusConfig(seed, dashboardStart, corpusHours))
		m := newDashboardMix(seed, dashboardStart, corpusSources(c))
		return render(200, func() request { return m.next(time.Time{}) })
	}
	live := func(seed int64) []string {
		c := newCorpus(corpusConfig(seed, dashboardStart, liveHistoryHours))
		w := &watcher{due: map[string]time.Time{}}
		m := newLiveMix(seed, c, model.MCE, w)
		due := dashboardStart.Add(3 * time.Hour)
		return render(200, func() request { due = due.Add(5 * time.Millisecond); return m.next(due) })
	}
	if a, b := digest(1), digest(1); a != b {
		t.Fatalf("seed 1 gave corpus digests %s and %s", a, b)
	}
	if digest(1) == digest(2) {
		t.Fatal("seeds 1 and 2 gave the same corpus")
	}
	for name, gen := range map[string]func(int64) []string{"dashboard": dashboard, "live": live} {
		if !reflect.DeepEqual(gen(1), gen(1)) {
			t.Errorf("%s: seed 1 gave two different request sequences", name)
		}
		if reflect.DeepEqual(gen(1), gen(2)) {
			t.Errorf("%s: seeds 1 and 2 gave the same request sequence", name)
		}
	}
}

func render(n int, next func() request) []string {
	out := make([]string, n)
	for i := range out {
		r := next()
		b, _ := json.Marshal(r.q)
		out[i] = r.kind.name + " " + r.stmt + " " + string(b)
	}
	return out
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Name: "client.x", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "query.exec", Start: 10 * ms, End: 16 * ms},
		{ID: 3, Parent: 2, Name: "store.read", Start: 16 * ms, End: 20 * ms},
	}
	self, clamped := selfTimes(spans)
	for name, want := range map[string]float64{"client.x": 4, "query.exec": 2, "store.read": 4} {
		if got := self[name][0]; got != want {
			t.Errorf("self time of %s = %v ms, want %v", name, got, want)
		}
	}
	if clamped != 0 {
		t.Errorf("%d spans clamped, want none", clamped)
	}
	// A child that outlasts its parent leaves a negative self time: it is
	// clamped to 0 and counted.
	spans = append(spans, span{ID: 4, Parent: 3, Name: "x", Start: 20 * ms, End: 25 * ms})
	self, clamped = selfTimes(spans)
	if got := self["store.read"][0]; got != 0 || clamped != 1 {
		t.Errorf("store.read self time %v ms with %d clamped, want 0 with 1", got, clamped)
	}
}

// The server's own time on the mixes' routes must be read from a real
// /v1/metrics scrape, in the label format the server exposes.
func TestWireServerSecondsFromServerScrape(t *testing.T) {
	db := store.Open(store.Config{Nodes: 2, RF: 1})
	defer db.Close()
	if err := ingest.Bootstrap(db, topology.NodesPerCabinet); err != nil {
		t.Fatal(err)
	}
	comp := compute.NewEngine(compute.Config{Workers: db.NodeIDs(), Threads: 1})
	srv := server.NewWithConfig(query.NewWithOptions(db, comp, query.Options{}), db, comp, server.Config{})
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()
	ctx := context.Background()

	before, err := scrape(ctx, hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	cli := newClient(hs.URL)
	qc := query.Context{EventType: string(model.MCE), From: dashboardStart.Unix(), To: dashboardStart.Unix() + 3600}
	part := model.EventByTimeKey(dashboardStart.Unix()/3600, model.MCE)
	for _, r := range []request{
		{kind: kHeatmap, q: query.Request{Op: query.OpHeatmap, Context: qc}},
		{kind: kEventsStream, q: query.Request{Op: query.OpEvents, Context: qc}},
		{kind: kCQLSelect, cl: "ONE", stmt: "SELECT key FROM event_by_time WHERE partition = '" + part + "'"},
	} {
		if _, err := r.exec(ctx, cli, false); err != nil {
			t.Fatalf("%s: %v", r.kind.name, err)
		}
	}
	after, err := scrape(ctx, hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	for _, route := range wireRoutes {
		if n := delta(before, after, "hpclog_http_request_seconds_count", route); n != 1 {
			t.Errorf("%s: %v requests in the scrape, want 1", route, n)
		}
	}
	if s := wireServerSeconds(before, after); s <= 0 {
		t.Fatalf("server seconds on %v = %v after three requests", wireRoutes, s)
	}
}

func TestHistQuantileFromScrapes(t *testing.T) {
	before, err := parseMetrics(`h_bucket{le="0.001"} 0
h_bucket{le="0.01"} 0
h_bucket{le="+Inf"} 0
`)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseMetrics(`# TYPE h histogram
h_bucket{le="0.001"} 500
h_bucket{le="0.01"} 1000
h_bucket{le="+Inf"} 1000
`)
	if err != nil {
		t.Fatal(err)
	}
	v, n, ok := histQuantile(before, after, "h", 0.5)
	if !ok || n != 1000 || v != 1 {
		t.Fatalf("p50 = %v ms over %d samples (ok %v), want 1 ms over 1000", v, n, ok)
	}
	v, _, _ = histQuantile(before, after, "h", 0.75)
	if v < 5 || v > 6 {
		t.Fatalf("p75 = %v ms, want interpolated 5.5", v)
	}
}

// The live workload writes a type whose partition for the hour is
// replicated on the coordinator whenever one is, so the write path is the
// same whatever the time of day; almost always the next hour's partition
// is too, so a run that crosses the hour keeps it.
func TestWriteTypeIsLocalEveryHour(t *testing.T) {
	r := ring.NewRing(clusterRF, 32)
	for i := 0; i < clusterMembers; i++ {
		r.AddNode(fmt.Sprintf("n%d", i))
	}
	local := func(pkey string) bool {
		for _, id := range r.Replicas(pkey) {
			if id == "n0" {
				return true
			}
		}
		return false
	}
	const hours = 24 * 365
	remoteNow, remoteNext := 0, 0
	for h := 0; h < hours; h++ {
		now := dashboardStart.Add(time.Duration(h) * time.Hour)
		typ := writeType(r.Replicas, "n0", now)
		hour := now.Unix() / 3600
		if !local(model.EventByTimeKey(hour, typ)) {
			for _, other := range model.EventTypes {
				if local(model.EventByTimeKey(hour, other)) {
					t.Fatalf("hour %d: wrote %s, remote, while %s is local", hour, typ, other)
				}
			}
			remoteNow++
		}
		if !local(model.EventByTimeKey(hour+1, typ)) {
			remoteNext++
		}
	}
	if remoteNow > hours/1000 || remoteNext > hours/25 {
		t.Fatalf("of %d hours, %d write remotely and %d have a remote next hour", hours, remoteNow, remoteNext)
	}
	t.Logf("of %d hours, %d write remotely and %d have a remote next hour", hours, remoteNow, remoteNext)
}
