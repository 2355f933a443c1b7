package analytics

import (
	"math/rand"
	"regexp"
	"testing"
	"time"

	"hpclog/internal/compute"
	"hpclog/internal/ingest"
	"hpclog/internal/logs"
	"hpclog/internal/model"
	"hpclog/internal/store"
	"hpclog/internal/topology"
)

// fixture loads one deterministic corpus into a small cluster, shared by
// all tests in the package.
type fixture struct {
	cfg    logs.Config
	corpus *logs.Corpus
	db     *store.DB
	eng    *compute.Engine
}

var shared *fixture

func getFixture(t testing.TB) *fixture {
	t.Helper()
	if shared != nil {
		return shared
	}
	cfg := logs.DefaultConfig()
	cfg.Nodes = 4 * topology.NodesPerCabinet // cabinets c0-0, c1-0, c2-0, c3-0
	cfg.Duration = 3 * time.Hour
	// Enough background Lustre activity for isolated cause→effect pairs,
	// so the injected causality is visible outside the storm burst too.
	cfg.BaseRates[model.Lustre] = 0.5
	cfg.Causal = []logs.CausalRule{{
		Cause:  model.Lustre,
		Effect: model.AppAbort,
		Prob:   0.3,
		Lag:    30 * time.Second,
		Jitter: 20 * time.Second,
	}}
	cfg.Hotspots = []logs.Hotspot{{Component: topology.CabinetAt(0, 2), Type: model.MCE, Multiplier: 50}}
	cfg.Storms = []logs.Storm{{
		Type:         model.Lustre,
		Start:        cfg.Start.Add(90 * time.Minute),
		Duration:     4 * time.Minute,
		NodeFraction: 0.6,
		EventsPerSec: 40,
		// One unresponsive OST: every client reports the same target,
		// server peer, operation, and errno.
		Attrs: map[string]string{
			"ost": "OST0012", "op": "ost_read", "errno": "-110",
			"peer": "10.36.226.77@o2ib",
		},
	}}
	cfg.Jobs.MaxNodes = 64
	corpus := logs.Generate(cfg)

	db := store.Open(store.Config{Nodes: 8, RF: 2, VNodes: 32, FlushThreshold: 2048})
	if err := ingest.Bootstrap(db, cfg.Nodes); err != nil {
		t.Fatal(err)
	}
	loader := ingest.NewLoader(db)
	if err := loader.LoadEvents(corpus.Events); err != nil {
		t.Fatal(err)
	}
	if err := loader.LoadRuns(corpus.Runs); err != nil {
		t.Fatal(err)
	}
	eng := compute.NewEngine(compute.Config{Workers: db.NodeIDs(), Threads: 2})
	shared = &fixture{cfg: cfg, corpus: corpus, db: db, eng: eng}
	return shared
}

func (f *fixture) window() (time.Time, time.Time) {
	return f.cfg.Start, f.cfg.Start.Add(f.cfg.Duration)
}

func TestHeatmapFindsHotspot(t *testing.T) {
	// E5: the MCE heat map must be dominated by the injected hot cabinet.
	f := getFixture(t)
	from, to := f.window()
	hm, err := Heatmap(f.eng, f.db, model.MCE, from, to)
	if err != nil {
		t.Fatal(err)
	}
	if hm.Total == 0 {
		t.Fatal("heat map empty")
	}
	hotRow, hotCol := 0, 2
	if hm.Counts[hotRow][hotCol] != hm.Max {
		t.Fatalf("hot cabinet count %d is not the max %d", hm.Counts[hotRow][hotCol], hm.Max)
	}
	hot := hm.HotCabinets(3)
	if len(hot) == 0 {
		t.Fatal("HotCabinets found nothing")
	}
	found := false
	for _, c := range hot {
		if c.Loc.Row == hotRow && c.Loc.Col == hotCol {
			found = true
		}
	}
	if !found {
		t.Fatalf("hot cabinets %v missing injected c%d-%d", hot, hotCol, hotRow)
	}
}

func TestHeatmapMatchesGroundTruth(t *testing.T) {
	f := getFixture(t)
	from, to := f.window()
	hm, err := Heatmap(f.eng, f.db, model.MemECC, from, to)
	if err != nil {
		t.Fatal(err)
	}
	truth := map[int]int{}
	seen := map[string]bool{}
	for _, e := range f.corpus.Events {
		if e.Type != model.MemECC {
			continue
		}
		// Collapse duplicates exactly like the store's LWW does.
		key := e.Time.String() + e.Source
		if seen[key] {
			continue
		}
		seen[key] = true
		loc, _ := topology.ParseCName(e.Source)
		truth[loc.Cabinet()] += e.Count
	}
	for cab, want := range truth {
		r, c := cab/topology.Cols, cab%topology.Cols
		if hm.Counts[r][c] != want {
			t.Fatalf("cabinet %d count = %d, ground truth %d", cab, hm.Counts[r][c], want)
		}
	}
}

func TestDistributionLevels(t *testing.T) {
	f := getFixture(t)
	from, to := f.window()
	cabs, err := DistributionBy(f.eng, f.db, model.MCE, from, to, topology.LevelCabinet)
	if err != nil {
		t.Fatal(err)
	}
	if len(cabs) == 0 {
		t.Fatal("no cabinet distribution")
	}
	if cabs[0].Label != "c2-0" {
		t.Fatalf("top cabinet = %s, want hotspot c2-0", cabs[0].Label)
	}
	for i := 1; i < len(cabs); i++ {
		if cabs[i].Count > cabs[i-1].Count {
			t.Fatal("distribution not sorted descending")
		}
	}
	nodes, err := DistributionBy(f.eng, f.db, model.MCE, from, to, topology.LevelNode)
	if err != nil {
		t.Fatal(err)
	}
	blades, err := DistributionBy(f.eng, f.db, model.MCE, from, to, topology.LevelBlade)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) < len(blades) || len(blades) < len(cabs) {
		t.Fatalf("granularity ordering violated: %d nodes, %d blades, %d cabinets",
			len(nodes), len(blades), len(cabs))
	}
	// Totals agree across granularities.
	sum := func(bs []Bucket) int {
		s := 0
		for _, b := range bs {
			s += b.Count
		}
		return s
	}
	if sum(nodes) != sum(cabs) || sum(blades) != sum(cabs) {
		t.Fatalf("totals differ: nodes %d, blades %d, cabinets %d", sum(nodes), sum(blades), sum(cabs))
	}
}

func TestDistributionByApp(t *testing.T) {
	f := getFixture(t)
	from, to := f.window()
	buckets, err := DistributionByApp(f.eng, f.db, model.Lustre, from, to)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) == 0 {
		t.Fatal("no app distribution")
	}
	apps := map[string]bool{}
	for _, b := range buckets {
		apps[b.Label] = true
	}
	// With a system-wide storm and jobs covering much of the machine, at
	// least one real application must be afflicted.
	realApp := false
	for a := range apps {
		if a != "(idle)" {
			realApp = true
		}
	}
	if !realApp {
		t.Fatalf("storm hit no applications: %v", buckets)
	}
}

func TestPlacementAndEventSites(t *testing.T) {
	f := getFixture(t)
	// Pick an instant with at least one running job.
	at := f.corpus.Runs[0].Start.Add(time.Second)
	placement, err := Placement(f.db, at)
	if err != nil {
		t.Fatal(err)
	}
	if len(placement) == 0 {
		t.Fatal("no placements at a time with a running job")
	}
	for n, app := range placement {
		if _, err := topology.ParseCName(n); err != nil {
			t.Fatalf("placement key %q: %v", n, err)
		}
		if app == "" {
			t.Fatal("empty app name in placement")
		}
	}
	// Event sites at the storm peak.
	stormAt := f.cfg.Storms[0].Start.Add(f.cfg.Storms[0].Duration / 2).Truncate(time.Second)
	// Find a second that actually has a Lustre event.
	var found time.Time
	for _, e := range f.corpus.Events {
		if e.Type == model.Lustre && !e.Time.Before(stormAt) {
			found = e.Time
			break
		}
	}
	if found.IsZero() {
		t.Fatal("no lustre event after storm midpoint")
	}
	sites, err := EventSites(f.eng, f.db, model.Lustre, found)
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) == 0 {
		t.Fatalf("no event sites at %v", found)
	}
}

func TestHistogramShowsStorm(t *testing.T) {
	f := getFixture(t)
	from, to := f.window()
	hist, err := Histogram(f.eng, f.db, model.Lustre, from, to, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 180 {
		t.Fatalf("histogram has %d bins, want 180", len(hist))
	}
	stormBin := int(f.cfg.Storms[0].Start.Sub(from) / time.Minute)
	peak, peakBin := 0, -1
	for i, c := range hist {
		if c > peak {
			peak, peakBin = c, i
		}
	}
	if peakBin < stormBin || peakBin >= stormBin+4 {
		t.Fatalf("histogram peak at bin %d, storm at bins [%d,%d)", peakBin, stormBin, stormBin+4)
	}
	if _, err := Histogram(f.eng, f.db, model.Lustre, from, to, 0); err == nil {
		t.Fatal("zero bin accepted")
	}
	if _, err := Histogram(f.eng, f.db, model.Lustre, from, from, time.Minute); err == nil {
		t.Fatal("empty window accepted")
	}
}

func TestTransferEntropyDetectsInjectedCausality(t *testing.T) {
	// E7: the generator injects Lustre → AppAbort with a 30-50 s lag;
	// transfer entropy must be asymmetric in that direction.
	f := getFixture(t)
	from, to := f.window()
	res, err := TransferEntropyBetween(f.eng, f.db, model.Lustre, model.AppAbort, from, to, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.XToY <= 0 {
		t.Fatalf("TE(Lustre→Abort) = %v, want > 0", res.XToY)
	}
	if res.Direction(0) != "x->y" {
		t.Fatalf("TE direction = %q (x->y=%v, y->x=%v), want x->y",
			res.Direction(0), res.XToY, res.YToX)
	}
}

func TestTransferEntropyIndependentSeriesNearZero(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 5000
	x, y := make([]int, n), make([]int, n)
	for i := range x {
		x[i] = rng.Intn(2)
		y[i] = rng.Intn(2)
	}
	te, err := TransferEntropy(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if te > 0.01 {
		t.Fatalf("TE of independent series = %v, want ≈0", te)
	}
}

func TestTransferEntropyDetectsSyntheticCoupling(t *testing.T) {
	// y copies x with one step of delay: TE(x→y) should approach H(x)=1
	// bit and dominate the reverse direction.
	rng := rand.New(rand.NewSource(4))
	n := 5000
	x, y := make([]int, n), make([]int, n)
	for i := range x {
		x[i] = rng.Intn(2)
		if i > 0 {
			y[i] = x[i-1]
		}
	}
	xy, err := TransferEntropy(x, y)
	if err != nil {
		t.Fatal(err)
	}
	yx, err := TransferEntropy(y, x)
	if err != nil {
		t.Fatal(err)
	}
	if xy < 0.9 {
		t.Fatalf("TE(x→y) = %v, want ≈1 bit", xy)
	}
	if yx > 0.1 {
		t.Fatalf("TE(y→x) = %v, want ≈0", yx)
	}
	if (TEResult{XToY: xy, YToX: yx}).Direction(0.1) != "x->y" {
		t.Fatal("direction not detected")
	}
}

func TestTransferEntropyErrors(t *testing.T) {
	if _, err := TransferEntropy([]int{1}, []int{1, 0}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := TransferEntropy([]int{1}, []int{0}); err == nil {
		t.Error("too-short series accepted")
	}
}

func TestCrossCorrelationLagPeak(t *testing.T) {
	n := 1000
	rng := rand.New(rand.NewSource(5))
	x, y := make([]int, n), make([]int, n)
	for i := range x {
		x[i] = rng.Intn(2)
		if i >= 3 {
			y[i] = x[i-3] // y lags x by 3
		}
	}
	cc, err := CrossCorrelation(x, y, 10)
	if err != nil {
		t.Fatal(err)
	}
	best, bestLag := -2.0, 0
	for lag := -10; lag <= 10; lag++ {
		if v := cc[lag+10]; v > best {
			best, bestLag = v, lag
		}
	}
	if bestLag != 3 {
		t.Fatalf("peak at lag %d, want 3", bestLag)
	}
	if _, err := CrossCorrelation([]int{1}, []int{1, 2}, 1); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := CrossCorrelation(nil, nil, 1); err == nil {
		t.Error("empty series accepted")
	}
	flat, err := CrossCorrelation([]int{1, 1}, []int{0, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range flat {
		if v != 0 {
			t.Fatal("constant series should yield zero correlation")
		}
	}
}

func TestWordCountLocatesOST(t *testing.T) {
	// E8: word count over the Lustre storm window surfaces the culprit
	// OST as a dominant token.
	f := getFixture(t)
	storm := f.cfg.Storms[0]
	counts, err := WordCountScan(f.eng, f.db, model.Lustre, storm.Start, storm.Start.Add(storm.Duration), ScanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if counts["ost0012"] == 0 {
		t.Fatal("culprit OST token absent from word counts")
	}
	// ost0012 must dominate every other OST id (the word-bubble signal:
	// "an object storage target is not responding").
	ostID := regexp.MustCompile(`^ost[0-9a-f]{4}$`)
	for w, c := range counts {
		if ostID.MatchString(w) && w != "ost0012" && c >= counts["ost0012"]/10 {
			t.Fatalf("token %s (%d) rivals culprit ost0012 (%d)", w, c, counts["ost0012"])
		}
	}
}

func TestTFIDFRanksCulpritHigh(t *testing.T) {
	f := getFixture(t)
	storm := f.cfg.Storms[0]
	scores, err := TFIDFScan(f.eng, f.db, model.Lustre, storm.Start, storm.Start.Add(storm.Duration), ScanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) == 0 {
		t.Fatal("no TF-IDF scores")
	}
	top := TopTerms(scores, 10)
	found := false
	for _, ts := range top {
		if ts.Term == "ost0012" {
			found = true
		}
	}
	if !found {
		t.Fatalf("ost0012 not in top-10 TF-IDF terms: %v", top)
	}
}

func TestTokenize(t *testing.T) {
	tokenize := func(text string) []string {
		var toks []string
		EachToken(text, func(tok string) { toks = append(toks, tok) })
		return toks
	}
	toks := tokenize("LustreError: 11-0: atlas2-OST0012-osc failed with -110")
	want := map[string]bool{"lustreerror": true, "ost0012": true, "110": true, "atlas2": true}
	got := map[string]bool{}
	for _, tk := range toks {
		got[tk] = true
	}
	for w := range want {
		if !got[w] {
			t.Errorf("token %q missing from %v", w, toks)
		}
	}
	if got["failed"] || got["with"] || got["a"] {
		t.Errorf("stopwords not removed: %v", toks)
	}
	if len(tokenize("")) != 0 {
		t.Error("empty text should yield no tokens")
	}
}

func TestTFIDFEmptyCorpus(t *testing.T) {
	f := getFixture(t)
	_, to := f.window()
	scores, err := TFIDFScan(f.eng, f.db, model.Lustre, to.Add(48*time.Hour), to.Add(49*time.Hour), ScanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 0 {
		t.Fatalf("scores on empty corpus: %v", scores)
	}
}

func TestRunsInWindowFiltering(t *testing.T) {
	f := getFixture(t)
	from, to := f.window()
	runs, err := RunsIn(f.db, from, to, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) == 0 {
		t.Fatal("no runs found")
	}
	for _, r := range runs {
		if !r.Start.Before(to) || !r.End.After(from) {
			t.Fatalf("run %s [%v,%v) outside window", r.JobID, r.Start, r.End)
		}
	}
	// A window after the corpus has no runs.
	later, err := RunsIn(f.db, to.Add(48*time.Hour), to.Add(49*time.Hour), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(later) != 0 {
		t.Fatalf("found %d runs in empty window", len(later))
	}
}

func TestEventsBySourceMatchesByType(t *testing.T) {
	// The dual tables must agree: for one source, the union over types of
	// by-type events filtered to the source equals the by-source query.
	f := getFixture(t)
	from, to := f.window()
	source := ""
	for _, e := range f.corpus.Events {
		if e.Type == model.MCE {
			source = e.Source
			break
		}
	}
	if source == "" {
		t.Skip("no MCE events")
	}
	bySource, err := CollectEvents(f.eng, f.db, EventQuery{Source: source, From: from, To: to}, ScanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	byType, err := CollectEvents(f.eng, f.db, EventQuery{From: from, To: to}, ScanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	nFiltered := 0
	for _, e := range byType {
		if e.Source == source {
			nFiltered++
		}
	}
	if len(bySource) != nFiltered {
		t.Fatalf("event_by_location gives %d events, event_by_time filter gives %d",
			len(bySource), nFiltered)
	}
	for _, e := range bySource {
		if e.Source != source {
			t.Fatalf("by-source query returned foreign source %s", e.Source)
		}
		if e.Type == "" {
			t.Fatal("by-source event lost its type")
		}
	}
}
