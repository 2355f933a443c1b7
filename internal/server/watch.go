// Push-based event watching. The hub replaces the pre-v1 50ms poll tick:
// every acked store write publishes a typed digest (table, partition key,
// acked rows) through store.RegisterWriteNotify, which the hub routes to
// the one shard responsible for the write's event type. The shard appends
// the decoded rows to a bounded in-memory tail ring and signals its
// dispatcher, which wakes exactly the parked subscribers of that type —
// no fixed interval anywhere, and a woken subscriber reads the delta
// since its cursor straight from the ring instead of re-scanning the
// store, so a write burst costs each subscriber one coalesced wakeup and
// one O(delta) memory read rather than O(scan).
//
// Subscribers that lag past the ring, and digest-free notifications (a
// peer's heartbeat advancing remote progress, anti-entropy repair), fall
// back to the stability-window scan — the ring is a cache over the scan
// path, never a substitute for its correctness: the per-subscription
// delivered-key window keeps delivery exactly-once across both paths.
//
// GET /v1/watch streams matching events as NDJSON as they arrive; the
// legacy GET /api/poll parks on the same shards and answers once with
// the pre-v1 envelope.
package server

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpclog/internal/analytics"
	"hpclog/internal/api"
	"hpclog/internal/compute"
	"hpclog/internal/model"
	"hpclog/internal/obs"
	"hpclog/internal/query"
	"hpclog/internal/store"
)

// defaultTailRing is the per-shard tail-ring capacity in rows when
// Config.WatchTailRing is unset: large enough that a subscriber only
// overflows when it has lagged a full burst of writes behind the head.
const defaultTailRing = 4096

// hub fans write digests out to parked watch/poll subscribers, sharded
// by event type.
type hub struct {
	ringSize int

	mu     sync.RWMutex
	shards map[model.EventType]*watchShard
	closed chan struct{}
	done   bool

	// scanEpoch advances on every digest-free notification: rows may have
	// become readable without row-level detail, so each subscriber's next
	// wake must fall back to a scan. Subscribers track the epoch they last
	// scanned at.
	scanEpoch atomic.Uint64

	subscribers atomic.Int64
	delivered   atomic.Int64
	// wakeups counts successful latch sends only — a subscriber whose
	// latch was already set is not woken again, and not counted again.
	wakeups atomic.Int64
	// coalesced counts digest appends that found a dispatch already
	// pending: N back-to-back writes collapse into ~1 wakeup per parked
	// subscriber, and this counter is the proof.
	coalesced atomic.Int64
	// tailHits counts subscriber wakes served entirely from the shard's
	// tail ring; tailMisses counts wakes that had to fall back to the
	// stability-window scan (ring overflow or a scan-epoch advance).
	tailHits   atomic.Int64
	tailMisses atomic.Int64
}

// watchShard is the hub's per-event-type slice: the subscribers watching
// one type, the shared tail ring of recently acked rows of that type,
// and the dispatcher state that batches their wakeups.
type watchShard struct {
	typ model.EventType

	mu   sync.Mutex
	subs map[*subscriber]struct{}
	// ring is a circular buffer of the last len(ring) appended entries.
	// head is the sequence number of the next append; the valid entries
	// cover sequences [head-count, head). A subscriber whose cursor has
	// fallen out of that window has lagged past the ring and must scan.
	ring  []tailEntry
	head  uint64
	count int
	// dirty marks a dispatch pending: appends while dirty are coalesced
	// into the pending pass instead of signaling again.
	dirty bool

	// subCount mirrors len(subs) for the write path's lock-free "anyone
	// listening?" check.
	subCount atomic.Int64

	// wake signals the shard's dispatcher (capacity 1: a latch).
	wake chan struct{}
}

// tailEntry is one acked row in a shard's tail ring, pre-decoded so a
// thousand subscribers share one decode.
type tailEntry struct {
	key string
	ts  int64 // event unix seconds, decoded once from the clustering key
	rec query.EventRecord
}

// subscriber is one parked watch/poll request. Its channel has capacity
// one: a notification arriving while the subscriber is draining latches,
// so the wake-drain loop can never miss a write (check, then park).
// cursor and epoch are owned by the subscriber's handler goroutine.
type subscriber struct {
	ch      chan struct{}
	shard   *watchShard
	cursor  uint64 // next ring sequence to consume
	epoch   uint64 // hub.scanEpoch as of the last scan
	scratch []tailEntry
}

func newHub(ringSize int) *hub {
	if ringSize <= 0 {
		ringSize = defaultTailRing
	}
	return &hub{
		ringSize: ringSize,
		shards:   make(map[model.EventType]*watchShard),
		closed:   make(chan struct{}),
	}
}

// notify routes one write digest to its event type's shard. It runs
// synchronously on the store's write path, so it must stay cheap: a
// type lookup, one bounded ring append under the shard lock, and a
// non-blocking dispatcher signal. Writes to types nobody watches — and
// to tables that are not the event-by-time table — cost one map lookup.
// A nil digest (remote progress, repair) advances the scan epoch and
// wakes every shard: the rows are only discoverable by scanning.
func (h *hub) notify(d *store.WriteDigest) {
	if d == nil {
		h.scanFallback()
		return
	}
	if d.Table != model.TableEventByTime {
		return
	}
	typ, err := model.TypeFromKey(d.PKey)
	if err != nil {
		// An event-table write whose partition key does not parse cannot
		// be routed; deliver it the conservative way.
		h.scanFallback()
		return
	}
	h.mu.RLock()
	sh := h.shards[typ]
	h.mu.RUnlock()
	if sh == nil || sh.subCount.Load() == 0 {
		return
	}
	// Decode outside the shard lock: one decode per row, shared by every
	// subscriber of the type.
	entries := make([]tailEntry, 0, len(d.Rows))
	for _, row := range d.Rows {
		e, derr := model.EventFromTimeRow(d.PKey, row)
		if derr != nil {
			// Undecodable rows can only be delivered by the scan path.
			h.scanFallback()
			return
		}
		ts, terr := store.DecodeTS(row.Key)
		if terr != nil {
			h.scanFallback()
			return
		}
		entries = append(entries, tailEntry{key: row.Key, ts: ts, rec: query.RecordOf(e)})
	}
	sh.append(entries, h)
}

// scanFallback wakes every shard with the scan-epoch advanced, forcing
// each subscriber's next wake through the stability-window scan.
func (h *hub) scanFallback() {
	h.scanEpoch.Add(1)
	h.mu.RLock()
	for _, sh := range h.shards {
		sh.signal(h)
	}
	h.mu.RUnlock()
}

// append adds entries to the shard's tail ring and signals the
// dispatcher. With no subscribers the append is skipped entirely (the
// subscribe path initializes each new cursor to the current head and
// catches up by scanning, so unobserved history need not be buffered).
func (sh *watchShard) append(entries []tailEntry, h *hub) {
	sh.mu.Lock()
	if len(sh.subs) == 0 {
		sh.mu.Unlock()
		return
	}
	n := uint64(len(sh.ring))
	for _, e := range entries {
		sh.ring[sh.head%n] = e
		sh.head++
	}
	if sh.count += len(entries); sh.count > len(sh.ring) {
		sh.count = len(sh.ring)
	}
	pending := sh.dirty
	sh.dirty = true
	sh.mu.Unlock()
	if pending {
		// A dispatch pass is already pending and will observe this append:
		// the wakeup is coalesced.
		h.coalesced.Add(1)
		return
	}
	select {
	case sh.wake <- struct{}{}:
	default:
	}
}

// signal marks the shard dirty and pokes its dispatcher (the digest-free
// path: nothing to append, everyone must scan).
func (sh *watchShard) signal(h *hub) {
	sh.mu.Lock()
	if len(sh.subs) == 0 {
		sh.mu.Unlock()
		return
	}
	pending := sh.dirty
	sh.dirty = true
	sh.mu.Unlock()
	if pending {
		h.coalesced.Add(1)
		return
	}
	select {
	case sh.wake <- struct{}{}:
	default:
	}
}

// dispatch is the shard's wakeup batcher, one goroutine per shard: each
// pass latches every parked subscriber of the type once, so N writes
// arriving while a pass runs produce one more pass, not N more. Exits
// when the hub closes.
func (sh *watchShard) dispatch(h *hub) {
	var subs []*subscriber
	for {
		select {
		case <-h.closed:
			return
		case <-sh.wake:
		}
		sh.mu.Lock()
		sh.dirty = false
		subs = subs[:0]
		for s := range sh.subs {
			subs = append(subs, s)
		}
		sh.mu.Unlock()
		for _, s := range subs {
			select {
			case s.ch <- struct{}{}:
				h.wakeups.Add(1)
			default:
				// Latch already set: the subscriber will drain this write in
				// the pass it is already due for.
			}
		}
	}
}

// subscribe parks a new subscriber on the event type's shard, creating
// the shard (and its dispatcher) on first use. The cursor starts at the
// ring head: history before the subscription is the initial scan's job.
func (h *hub) subscribe(typ model.EventType) *subscriber {
	sub := &subscriber{ch: make(chan struct{}, 1)}
	h.mu.Lock()
	sh := h.shards[typ]
	if sh == nil {
		sh = &watchShard{
			typ:  typ,
			subs: make(map[*subscriber]struct{}),
			ring: make([]tailEntry, h.ringSize),
			wake: make(chan struct{}, 1),
		}
		h.shards[typ] = sh
		if !h.done {
			go sh.dispatch(h)
		}
	}
	h.mu.Unlock()
	sh.mu.Lock()
	sh.subs[sub] = struct{}{}
	sub.shard = sh
	sub.cursor = sh.head
	sh.subCount.Store(int64(len(sh.subs)))
	sh.mu.Unlock()
	h.subscribers.Add(1)
	return sub
}

func (h *hub) unsubscribe(sub *subscriber) {
	sh := sub.shard
	sh.mu.Lock()
	delete(sh.subs, sub)
	sh.subCount.Store(int64(len(sh.subs)))
	if len(sh.subs) == 0 {
		// Release the buffered rows; the next subscriber starts at the
		// head and scans for history anyway.
		for i := range sh.ring {
			sh.ring[i] = tailEntry{}
		}
		sh.count = 0
	}
	sh.mu.Unlock()
	h.subscribers.Add(-1)
}

// shardCounts snapshots live subscriber counts per event type.
func (h *hub) shardCounts() map[string]int64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if len(h.shards) == 0 {
		return nil
	}
	out := make(map[string]int64, len(h.shards))
	for typ, sh := range h.shards {
		if n := sh.subCount.Load(); n > 0 {
			out[string(typ)] = n
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// close wakes every subscriber permanently; parked requests complete
// their response (graceful shutdown drains the hub before the HTTP
// listener) and every shard dispatcher exits.
func (h *hub) close() {
	h.mu.Lock()
	if !h.done {
		h.done = true
		close(h.closed)
	}
	h.mu.Unlock()
}

// collect gathers the newly arrived events for one watch subscription:
// the delta since the subscriber's ring cursor when the ring still holds
// it, or a stability-window scan when forced (initial catch-up, skew
// re-check), lagged past the ring, or behind the scan epoch. Ring
// entries drained alongside a scan cover rows the scan's clock-bounded
// window cannot see yet (writer clocks ahead); the delivered-key window
// dedups across both sources.
func (h *hub) collect(sub *subscriber, tail *eventTail, eng *compute.Engine, db *store.DB, now time.Time, forceScan bool) ([]query.EventRecord, error) {
	sh := sub.shard
	epoch := h.scanEpoch.Load()
	sh.mu.Lock()
	head := sh.head
	lagged := head-sub.cursor > uint64(sh.count)
	from := sub.cursor
	if lagged {
		from = head - uint64(sh.count)
	}
	pending := sub.scratch[:0]
	n := uint64(len(sh.ring))
	for seq := from; seq < head; seq++ {
		pending = append(pending, sh.ring[seq%n])
	}
	sh.mu.Unlock()
	sub.scratch = pending

	mustScan := forceScan || lagged || epoch != sub.epoch
	var out []query.EventRecord
	if mustScan {
		err := analytics.ScanEvents(eng, db, sinceQuery(tail.typ, tail.from, now), nil, analytics.ScanConfig{},
			func(pos analytics.EventPos, e model.Event) error {
				if !tail.delivered[pos.Key] {
					// The key may alias a decoded segment block; the window
					// outlives the scan.
					tail.delivered[strings.Clone(pos.Key)] = true
					out = append(out, query.RecordOf(e))
				}
				return nil
			})
		if err != nil {
			return nil, err
		}
		if !forceScan {
			// Overflow/epoch fallback (the initial catch-up and skew
			// re-checks are scans by design, not ring misses).
			h.tailMisses.Add(1)
		}
	} else {
		h.tailHits.Add(1)
	}
	for i := range pending {
		e := &pending[i]
		if e.ts < tail.from || tail.delivered[e.key] {
			continue
		}
		tail.delivered[e.key] = true
		out = append(out, e.rec)
	}
	tail.prune(now)
	sub.cursor = head
	sub.epoch = epoch
	return out, nil
}

// eventTail tracks a watch subscription's position in the event stream
// as data keys, with a one-hour stability window: rows are delivered
// only once by clustering key, so concurrent writers landing out of key
// order within the window are never missed and never duplicated,
// whether a row arrives through the tail ring or a fallback scan. Once
// the window slides past an hour boundary, delivered-key state older
// than the previous hour is pruned — an event arriving with a timestamp
// more than an hour in the past is beyond the tail and is not delivered.
type eventTail struct {
	typ       model.EventType
	from      int64 // rescan/ring lower bound, unix seconds
	delivered map[string]bool
}

func newEventTail(typ model.EventType, since int64) *eventTail {
	return &eventTail{typ: typ, from: since, delivered: make(map[string]bool)}
}

// prune slides the stability window: state older than the previous full
// hour is dropped so a long-lived watch holds hours of keys, not days.
func (t *eventTail) prune(now time.Time) {
	cut := now.Unix()/3600*3600 - 3600
	if cut <= t.from {
		return
	}
	for k := range t.delivered {
		if ts, err := store.DecodeTS(k); err == nil && ts < cut {
			delete(t.delivered, k)
		}
	}
	t.from = cut
}

// sinceQuery selects one event type from since through now — one second
// past now, so an event stamped in the current second is visible: the
// window the watch fallback and the legacy poll scan.
func sinceQuery(typ model.EventType, since int64, now time.Time) analytics.EventQuery {
	return analytics.EventQuery{Type: typ, From: time.Unix(since, 0).UTC(), To: now.UTC().Add(time.Second)}
}

// skewRecheck bounds how long a committed-but-future-timestamped event
// that is only reachable by scanning (it fell out of the ring, or
// arrived digest-free) can wait for delivery: a wake that delivers
// nothing arms one bounded re-scan, because the write that woke us may
// sit just past the scan window's clock-bounded upper edge. Ring
// deliveries carry no such edge — a future-stamped row in the ring is
// pushed immediately. Idle subscriptions (no writes) never tick.
const skewRecheck = time.Second

// watchTimeout parses and caps a timeout_ms query parameter.
func (s *Server) watchTimeout(raw string, def time.Duration) (time.Duration, error) {
	timeout := def
	if raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			return 0, fmt.Errorf("bad timeout_ms %q", raw)
		}
		timeout = time.Duration(v) * time.Millisecond
	}
	if timeout > s.cfg.MaxWatchTimeout {
		timeout = s.cfg.MaxWatchTimeout
	}
	return timeout, nil
}

// handleWatch answers GET /v1/watch?type=T&since=unix&timeout_ms=N with
// an NDJSON stream of events: everything of the type with timestamp >=
// since immediately, then new arrivals pushed as the ingest path commits
// them, until the (capped) timeout elapses, the client disconnects, or
// the server shuts down. The stream ends with an api.StreamTrailer.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	started := s.now()
	reqID := s.requestID(r)
	if perr := negotiate(r); perr != nil {
		s.writeV1(w, started, reqID, nil, perr)
		return
	}
	qp := r.URL.Query()
	typ := qp.Get("type")
	if typ == "" {
		s.writeV1(w, started, reqID, nil, api.Errorf(api.CodeBadRequest, "watch requires type"))
		return
	}
	since := started.Unix()
	if raw := qp.Get("since"); raw != "" {
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			s.writeV1(w, started, reqID, nil, api.Errorf(api.CodeBadRequest, "bad since: %v", err))
			return
		}
		since = v
	}
	timeout, err := s.watchTimeout(qp.Get("timeout_ms"), s.cfg.MaxWatchTimeout)
	if err != nil {
		s.writeV1(w, started, reqID, nil, api.Errorf(api.CodeBadRequest, "%v", err))
		return
	}

	sub := s.hub.subscribe(model.EventType(typ))
	defer s.hub.unsubscribe(sub)
	tail := newEventTail(model.EventType(typ), since)
	nd := newNDJSON(w, reqID)
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	woken := false
	// The first collect always scans: the subscription's history ([since,
	// now)) predates its ring cursor.
	forceScan := true
	for {
		// Stage spans per wake: a slow watch trace shows whether time went
		// to collecting the delta (ring drain or fallback scan) or to
		// pushing it down the wire. The span's stage list is bounded, so a
		// long-lived watch records its first wakes and counts the rest.
		cg := obs.StartSpan(r.Context(), "watch.collect")
		events, err := s.hub.collect(sub, tail, s.eng, s.db, s.now(), forceScan)
		cg.End()
		if err != nil {
			if !nd.started {
				s.writeV1(w, started, reqID, nil, api.Errorf(api.CodeInternal, "%v", err))
				return
			}
			nd.finish(err)
			return
		}
		forceScan = false
		// Commit to the stream (headers + flush) before parking so the
		// client observes an established subscription even when no
		// historical events match.
		eg := obs.StartSpan(r.Context(), "watch.emit")
		nd.begin()
		for _, e := range events {
			if err := nd.emit(e); err != nil {
				eg.End()
				return // client gone
			}
		}
		s.hub.delivered.Add(int64(len(events)))
		nd.flush()
		eg.End()
		// A wake that found nothing may have been a scan-only write sitting
		// past the clock-bounded scan edge (skewed timestamp): arm one
		// bounded re-scan. A nil channel never fires, so idle parks stay
		// pure push.
		var recheck <-chan time.Time
		if woken && len(events) == 0 {
			recheck = time.After(skewRecheck)
		}
		woken = false
		select {
		case <-sub.ch:
			woken = true
		case <-recheck:
			woken = true
			forceScan = true
		case <-deadline.C:
			nd.finish(nil)
			return
		case <-s.hub.closed:
			nd.finish(nil)
			return
		case <-r.Context().Done():
			return
		}
	}
}

// handlePoll implements the legacy long-poll endpoint:
//
//	GET /api/poll?type=MCE&since=<unix>&timeout_ms=30000
//
// It answers as soon as events of the type with timestamp >= since
// exist, or with an empty result after the (capped) timeout. The park is
// shard-driven — the handler wakes only when a write of its event type
// (or a digest-free notification) commits — so the pre-v1 50ms re-scan
// tick is gone while the wire behavior is unchanged.
func (s *Server) handlePoll(w http.ResponseWriter, r *http.Request) {
	started := s.now()
	typ := r.URL.Query().Get("type")
	if typ == "" {
		writeLegacy(w, started, nil, api.Errorf(api.CodeBadRequest, "server: poll requires type"))
		return
	}
	since, err := strconv.ParseInt(r.URL.Query().Get("since"), 10, 64)
	if err != nil {
		writeLegacy(w, started, nil, api.Errorf(api.CodeBadRequest, "server: bad since: %v", err))
		return
	}
	timeout, terr := s.watchTimeout(r.URL.Query().Get("timeout_ms"), 30*time.Second)
	if terr != nil {
		writeLegacy(w, started, nil, api.Errorf(api.CodeBadRequest, "server: %v", terr))
		return
	}
	sub := s.hub.subscribe(model.EventType(typ))
	defer s.hub.unsubscribe(sub)
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	woken := false
	for {
		events, err := s.eventsSince(model.EventType(typ), since)
		if err != nil {
			writeLegacy(w, started, nil, api.Errorf(api.CodeInternal, "%v", err))
			return
		}
		if len(events) > 0 {
			writeLegacy(w, started, events, nil)
			return
		}
		var recheck <-chan time.Time
		if woken {
			recheck = time.After(skewRecheck)
		}
		woken = false
		select {
		case <-sub.ch:
			woken = true
		case <-recheck:
			woken = true
		case <-deadline.C:
			writeLegacy(w, started, events, nil)
			return
		case <-s.hub.closed:
			writeLegacy(w, started, events, nil)
			return
		case <-r.Context().Done():
			return
		}
	}
}

// eventsSince reads events of one type with Time >= since directly from
// the store (hour partitions from since to now).
func (s *Server) eventsSince(typ model.EventType, since int64) ([]query.EventRecord, error) {
	var out []query.EventRecord
	err := analytics.ScanEvents(s.eng, s.db, sinceQuery(typ, since, s.now()), nil, analytics.ScanConfig{},
		func(_ analytics.EventPos, e model.Event) error {
			out = append(out, query.RecordOf(e))
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}
