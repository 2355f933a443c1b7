package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hpclog/client"
	"hpclog/internal/analytics"
	"hpclog/internal/cql"
	"hpclog/internal/model"
	"hpclog/internal/query"
	"hpclog/internal/store"
)

// class groups request kinds into the end-to-end latency metrics.
type class int

const (
	classAnalytics class = iota // scan-analytics ops: analytics_*_ms
	classLookup                 // events and CQL SELECTs: lookup_*_ms
	classWrite                  // CQL INSERTs: write_*_ms
	numClasses
)

func (c class) String() string {
	return [...]string{"analytics", "lookup", "write"}[c]
}

// kind is one request shape. Its name appears in the report and in the
// traced run's span names.
type kind struct {
	name  string
	class class
}

var (
	kHeatmap      = kind{"heatmap", classAnalytics}
	kDistCabinet  = kind{"distribution_cabinet", classAnalytics}
	kDistApp      = kind{"distribution_app", classAnalytics}
	kHistogram    = kind{"histogram", classAnalytics}
	kTE           = kind{"transfer_entropy", classAnalytics}
	kWordCount    = kind{"wordcount", classAnalytics}
	kTFIDF        = kind{"tfidf", classAnalytics}
	kEvents       = kind{"events", classLookup}
	kEventsStream = kind{"events_stream", classLookup}
	kEventsPage   = kind{"events_page", classLookup}
	kCQLAgg       = kind{"cql_aggregate", classLookup}
	kCQLSelect    = kind{"cql_select", classLookup}
	kPoint        = kind{"point_lookup", classLookup}
	kInsert       = kind{"insert", classWrite}
)

// request is one generated request. Query ops carry q; CQL statements
// carry stmt and the consistency level they run at.
type request struct {
	kind kind
	q    query.Request
	stmt string
	cl   string
	// part, and key for a point lookup, name the event_by_time rows a CQL
	// statement reads (the traced run replays those reads).
	part string
	key  string
	// source and at identify an INSERT's row for the live checks.
	source string
	at     int64
}

// pageSize is the events_page page size.
const pageSize = 500

// exec issues r through the SDK and decodes the answer. With keep it also
// returns the answer's canonical bytes for the answer checks.
func (r *request) exec(ctx context.Context, cli *client.Client, keep bool) ([]byte, error) {
	switch r.kind {
	case kEvents:
		recs, err := cli.Events(ctx, r.q.Context)
		return marshalIf(keep, recs, err)
	case kEventsStream:
		var recs []query.EventRecord
		err := cli.StreamEvents(ctx, r.q.Context, func(rec query.EventRecord) error {
			recs = append(recs, rec)
			return nil
		})
		return marshalIf(keep, recs, err)
	case kEventsPage:
		var recs []query.EventRecord
		cursor := ""
		for {
			page, next, err := cli.EventsPage(ctx, r.q.Context, pageSize, cursor)
			if err != nil {
				return nil, err
			}
			recs = append(recs, page...)
			if next == "" {
				break
			}
			cursor = next
		}
		return marshalIf(keep, recs, nil)
	case kCQLAgg, kCQLSelect, kPoint, kInsert:
		res, err := cli.Session(r.cl).Execute(ctx, r.stmt)
		return marshalIf(keep, res, err)
	}
	raw, err := cli.Do(ctx, r.q)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, decodeTarget(r.kind)); err != nil {
		return nil, fmt.Errorf("decode %s: %w", r.kind.name, err)
	}
	if keep {
		return raw, nil
	}
	return nil, nil
}

// decodeTarget returns a value of the Go type the SDK user decodes an
// analytics answer into.
func decodeTarget(k kind) any {
	switch k {
	case kHeatmap:
		return &analytics.HeatMap{}
	case kDistCabinet, kDistApp:
		return &[]analytics.Bucket{}
	case kHistogram:
		return &[]int{}
	case kTE:
		return &query.TEResponse{}
	case kWordCount:
		return &[]query.WordCountEntry{}
	case kTFIDF:
		return &[]analytics.TermScore{}
	}
	return &json.RawMessage{}
}

func marshalIf[T any](keep bool, v T, err error) ([]byte, error) {
	if err != nil || !keep {
		return nil, err
	}
	return json.Marshal(v)
}

// weighted draws an index with probability proportional to its weight.
func weighted(rng *rand.Rand, weights []int) int {
	total := 0
	for _, w := range weights {
		total += w
	}
	v := rng.Intn(total)
	for i, w := range weights {
		if v < w {
			return i
		}
		v -= w
	}
	return len(weights) - 1
}

// Event types the mixes query, with draw weights. The weights are an
// assumption, not measured traffic (see README.md, "Traffic mix"): the
// hotspot and storm types get the most weight, so the heaviest partitions
// are read often.
var (
	mixTypes        = []model.EventType{model.MCE, model.MemECC, model.Lustre, model.Network, model.AppAbort, model.DVS}
	mixTypeW        = []int{3, 2, 3, 1, 1, 1}
	tePairs         = [][2]model.EventType{{model.Lustre, model.AppAbort}, {model.MCE, model.MemECC}, {model.Network, model.Lustre}}
	widthsHalfHours = []int{2, 3, 4, 5, 6, 7, 8}
	// drillDownShare of lookups read a storm minute. Heavy lookups are
	// then common enough that the lookup p99 falls among them rather
	// than on the edge between rare heavy and common light requests.
	drillDownShare = 0.1
)

// dashboardKinds and their weights form the dashboard mix: half
// analytics, half lookups. The weights are an assumption (README.md,
// "Traffic mix").
var (
	dashboardKinds = []kind{
		kHeatmap, kDistCabinet, kDistApp, kHistogram, kTE, kWordCount, kTFIDF,
		kEvents, kEventsStream, kEventsPage, kCQLAgg, kCQLSelect,
	}
	dashboardW = []int{10, 7, 5, 8, 5, 8, 7, 15, 10, 10, 7, 8}
)

// dashboardMix generates the seeded request stream of dashboard and
// archive over a corpus of corpusHours hours from start. Analytics
// windows span 1 to 4 hours from a half-hour boundary; lookup windows are
// one minute.
type dashboardMix struct {
	mu      sync.Mutex
	rng     *rand.Rand
	start   int64
	sources []string // cnames that appear in the corpus, for CQL SELECTs
}

func newDashboardMix(seed int64, start time.Time, sources []string) *dashboardMix {
	return &dashboardMix{rng: rand.New(rand.NewSource(seed)), start: start.Unix(), sources: sources}
}

// next returns the stream's next request. It is safe for concurrent use;
// the sequence is fixed by the seed whatever the interleaving.
func (m *dashboardMix) next(time.Time) request {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draw(dashboardKinds[weighted(m.rng, dashboardW)])
}

func (m *dashboardMix) draw(k kind) request {
	rng := m.rng
	typ := mixTypes[weighted(rng, mixTypeW)]
	if k.class == classAnalytics {
		h := rng.Intn(corpusHours * 2)
		w := widthsHalfHours[rng.Intn(len(widthsHalfHours))]
		if h+w > corpusHours*2 {
			w = corpusHours*2 - h
		}
		qc := query.Context{EventType: string(typ), From: m.start + int64(h)*1800, To: m.start + int64(h+w)*1800}
		return analyticsRequest(k, qc, rng)
	}
	// Lookups read one minute. A fixed share are incident drill-downs:
	// Lustre rows in a storm minute, the heaviest lookups of the corpus.
	minute := int64(rng.Intn(corpusHours * 60))
	if rng.Float64() < drillDownShare {
		typ = model.Lustre
		minute = int64(stormOffset/time.Minute) + int64(rng.Intn(int(stormLength/time.Minute)))
	}
	from := m.start + minute*60
	qc := query.Context{EventType: string(typ), From: from, To: from + 60}
	part := model.EventByTimeKey(from/3600, typ)
	switch k {
	case kCQLAgg:
		return request{kind: k, cl: "ONE", part: part, stmt: fmt.Sprintf(
			"SELECT source, COUNT(*), SUM(amount) FROM event_by_time WHERE partition = '%s' GROUP BY source", part)}
	case kCQLSelect:
		src := m.sources[rng.Intn(len(m.sources))]
		return request{kind: k, cl: "ONE", part: part, stmt: fmt.Sprintf(
			"SELECT key, source, raw FROM event_by_time WHERE partition = '%s' AND source = '%s'", part, src)}
	}
	return request{kind: k, q: query.Request{Op: query.OpEvents, Context: qc}}
}

// analyticsRequest builds a scan-analytics request of kind k over qc.
func analyticsRequest(k kind, qc query.Context, rng *rand.Rand) request {
	q := query.Request{Context: qc}
	switch k {
	case kHeatmap:
		q.Op = query.OpHeatmap
	case kDistCabinet:
		q.Op, q.Level = query.OpDistribution, "cabinet"
	case kDistApp:
		q.Op, q.Level = query.OpDistribution, "app"
	case kHistogram:
		q.Op, q.BinSeconds = query.OpHistogram, 60
	case kTE:
		p := tePairs[rng.Intn(len(tePairs))]
		q.Op, q.BinSeconds = query.OpTE, 60
		q.Context.EventType, q.SecondType = string(p[0]), string(p[1])
	case kWordCount:
		q.Op, q.TopK = query.OpWordCount, 20
	case kTFIDF:
		q.Op, q.TopK = query.OpTFIDF, 20
	}
	return request{kind: k, q: q}
}

// insertStmt renders the live workload's write: one event row keyed by
// its wall-clock second and a unique source, in the clustering-key shape
// the ingest loader writes, so watch scans and queries see it as data.
func insertStmt(typ model.EventType, at int64, source string) string {
	return fmt.Sprintf(
		"INSERT INTO event_by_time (partition, key, source, amount, raw) VALUES ('%s', '%s:%s', '%s', '1', 'perfbench %s')",
		model.EventByTimeKey(at/3600, typ), store.EncodeTS(at), source, source, source)
}

// cqlRows returns the rows of a CQL answer.
func cqlRows(b []byte) ([]cql.ResultRow, error) {
	var res cql.Result
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, err
	}
	return res.Rows, nil
}
