package store

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hpclog/internal/cluster"
	"hpclog/internal/objstore"
	"hpclog/internal/obs"
	"hpclog/internal/store/persist"
)

// Consistency is the number-of-replicas contract for an operation,
// mirroring Cassandra's tunable consistency levels.
type Consistency int

// Consistency levels.
const (
	// One requires a single replica acknowledgment.
	One Consistency = iota
	// Quorum requires floor(RF/2)+1 replica acknowledgments.
	Quorum
	// All requires every replica to acknowledge.
	All
)

// String implements fmt.Stringer.
func (c Consistency) String() string {
	switch c {
	case One:
		return "ONE"
	case Quorum:
		return "QUORUM"
	case All:
		return "ALL"
	}
	return fmt.Sprintf("Consistency(%d)", int(c))
}

func (c Consistency) required(rf int) int {
	switch c {
	case One:
		return 1
	case Quorum:
		return rf/2 + 1
	default:
		return rf
	}
}

// ErrUnavailable is returned when fewer live replicas exist than the
// requested consistency level requires.
var ErrUnavailable = errors.New("store: not enough live replicas for consistency level")

// Config parameterizes a store cluster.
type Config struct {
	// Nodes is the number of storage nodes. The paper's CADES deployment
	// uses 32 VMs, each pairing a store node with a compute worker.
	Nodes int
	// RF is the replication factor (default 3, capped at Nodes).
	RF int
	// Members, when non-empty, names every ring member explicitly and
	// overrides Nodes. A multi-process cluster lists the same Members on
	// every process so all of them compute identical replica placement.
	Members []string
	// LocalMembers is the subset of Members hosted by this process (each
	// gets its own storage node — WAL + segment files under Dir). Empty
	// means all members are local (the single-process default). Remote
	// members join the ring marked down until a Remote transport is
	// attached and the liveness detector hears from them.
	LocalMembers []string
	// VNodes is the number of virtual nodes per storage node (default 64).
	VNodes int
	// FlushThreshold is the memtable row count that triggers a segment
	// flush (default 4096).
	FlushThreshold int
	// MaxSegments bounds the per-partition segment count before
	// compaction (default 4).
	MaxSegments int

	// Dir, when non-empty, turns on the durable storage engine rooted at
	// this directory: every write is appended to a per-node commitlog
	// before it is acknowledged, memtable flushes produce immutable
	// on-disk segment files, a background compactor merges segments and
	// truncates obsolete commitlog segments, and OpenDurable replays the
	// commitlog on startup. Empty (the default) keeps the store purely in
	// memory.
	Dir string
	// WALSegmentBytes rotates commitlog segment files past this size
	// (default 8 MiB).
	WALSegmentBytes int64
	// WALSyncPeriod selects the commitlog sync mode: 0 (default) is batch
	// group-commit — every PutBatch ack implies an fsync; > 0 is periodic
	// — appends return immediately and a background ticker fsyncs,
	// bounding possible loss to the period.
	WALSyncPeriod time.Duration
	// WALNoSync disables commitlog fsync entirely (benchmarks and bulk
	// loads only).
	WALNoSync bool
	// WALTolerateCorruptTail downgrades mid-segment commitlog corruption
	// from a refuse-to-open error to truncation at the damage (see
	// wal.Options.TolerateCorruptTail). An operator escape hatch for
	// restarting a node whose newest commitlog segment fails its CRC scan
	// — records after the damage are lost.
	WALTolerateCorruptTail bool
	// CompactInterval is the tick of the background compactor that merges
	// overflowing disk segments and truncates the commitlog (default
	// 500ms; negative disables the background goroutine — Flush/Compact
	// remain available).
	CompactInterval time.Duration
	// Logger, when set, receives structured records from the storage
	// engine's background machinery: WAL recovery warnings and compaction
	// maintenance failures. Nil keeps the engine silent (counters in
	// StorageStats record the same facts).
	Logger *slog.Logger
	// ZoneMapColumns is the hot set of columns that receive per-block
	// min/max zone maps in newly written segment files (block pruning for
	// predicate pushdown). Empty selects persist.DefaultZoneColumns.
	// Deployments whose queries filter on bespoke attribute columns list
	// them here.
	ZoneMapColumns []string

	// Tier, when Backend is non-empty, attaches an object-storage tier to
	// the durable engine: background maintenance uploads cold sealed
	// segments (verified by read-back), evicts their local data files —
	// keeping the footer resident so block pruning needs no fetch — and
	// reads of evicted segments go through a bounded block cache with
	// per-block Merkle verification. Requires Dir.
	Tier objstore.Config
}

func (c Config) withDefaults() Config {
	if len(c.Members) > 0 {
		c.Nodes = len(c.Members)
	}
	if c.Nodes <= 0 {
		c.Nodes = 32
	}
	if c.RF <= 0 {
		c.RF = 3
	}
	if c.RF > c.Nodes {
		c.RF = c.Nodes
	}
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.FlushThreshold <= 0 {
		c.FlushThreshold = 4096
	}
	if c.MaxSegments <= 0 {
		c.MaxSegments = 4
	}
	if c.WALSegmentBytes <= 0 {
		c.WALSegmentBytes = 8 << 20
	}
	if c.CompactInterval == 0 {
		c.CompactInterval = 500 * time.Millisecond
	}
	return c
}

// DB is a store cluster: a ring of storage nodes plus coordinator logic.
// Any method may be called from any goroutine; every call acts as its own
// coordinator, matching the masterless design.
type DB struct {
	cfg     Config
	ring    *cluster.Ring
	mu      sync.RWMutex
	nodes   map[string]*Node
	remotes map[string]Remote // transports for members hosted elsewhere
	tables  map[string]bool
	writeTS atomic.Int64
	hintLog *hintLog

	// hasRemotes flips once any Remote is attached; the write path uses it
	// to choose between the fully-synchronous single-process replication
	// and the W-of-RF early-ack distributed one.
	hasRemotes atomic.Bool

	readRepairs atomic.Int64
	generation  atomic.Uint64

	// Write notification fan-out (see RegisterWriteNotify): an immutable
	// snapshot of callbacks, swapped copy-on-write so the write path reads
	// it with one atomic load and no lock.
	notifyMu  sync.Mutex
	notifiers atomic.Pointer[[]*writeNotifier]

	// Durable state.
	compactMu   sync.Mutex // serializes compaction passes
	compactStop chan struct{}
	compactDone chan struct{}
	closed      atomic.Bool
	replayStats ReplayStats
	maintErrors atomic.Int64
	// tier is the process-wide object-storage tier shared by every local
	// node (one object store, one block cache); nil when tiering is off.
	tier *objstore.Tier
}

// ReplayStats summarizes commitlog recovery across all nodes of a durable
// cluster.
type ReplayStats struct {
	Records int64 `json:"records"`
	Rows    int64 `json:"rows"`
}

// Generation returns a counter that advances whenever the database's
// logical contents may have changed (writes, table creation, repair).
// Caches key validity on it: a result computed at generation g is safe to
// reuse while Generation() still returns g.
func (db *DB) Generation() uint64 { return db.generation.Load() }

// WriteDigest describes one acked batch of rows: which table and
// partition they landed in and the rows themselves (stamped, in the
// compact interned-column form). It is the typed payload of a write
// notification, letting a push consumer (the watch hub) route the
// notification by partition key and deliver the rows from memory
// instead of re-scanning the store per subscriber.
//
// Rows is shared with the write path and with every other notifier —
// receivers must treat the slice and its rows as immutable.
type WriteDigest struct {
	Table string
	PKey  string
	Rows  []Row
}

// bumpGeneration records a metadata-only mutation (table creation,
// compaction): caches must revalidate, but no new rows became readable,
// so write notifiers are not called.
func (db *DB) bumpGeneration() {
	db.generation.Add(1)
}

// notifyWrite records an acked batch of rows and publishes its digest to
// every write notifier.
func (db *DB) notifyWrite(table, pkey string, rows []Row) {
	db.generation.Add(1)
	if subs := db.notifiers.Load(); subs != nil && len(*subs) > 0 {
		d := &WriteDigest{Table: table, PKey: pkey, Rows: rows}
		for _, n := range *subs {
			n.fn(d)
		}
	}
}

// notifyScan records a mutation that may have made new rows readable
// without a row-level digest (remote progress via heartbeat, repair
// convergence): notifiers receive nil and must fall back to scanning.
func (db *DB) notifyScan() {
	db.generation.Add(1)
	if subs := db.notifiers.Load(); subs != nil {
		for _, n := range *subs {
			n.fn(nil)
		}
	}
}

// writeNotifier is one registered write callback.
type writeNotifier struct{ fn func(*WriteDigest) }

// RegisterWriteNotify registers fn to run after acked writes — the push
// signal behind the analytic server's /v1/watch hub, replacing fixed
// poll intervals. fn receives the write's digest (table, partition key,
// acked rows) when the mutating path knows it, or nil when rows may have
// become readable without row-level detail (a peer's heartbeat advancing
// remote progress, anti-entropy repair) — a nil digest means "scan to
// find out". Metadata-only mutations (table creation, compaction) advance
// the generation without notifying. fn runs synchronously on the mutating
// goroutine and therefore must be fast and non-blocking (typically a
// bounded in-memory append plus a non-blocking channel send). The
// returned cancel function unregisters fn; it is safe to call more than
// once.
func (db *DB) RegisterWriteNotify(fn func(*WriteDigest)) (cancel func()) {
	n := &writeNotifier{fn: fn}
	db.notifyMu.Lock()
	var cur []*writeNotifier
	if p := db.notifiers.Load(); p != nil {
		cur = *p
	}
	next := make([]*writeNotifier, 0, len(cur)+1)
	next = append(next, cur...)
	next = append(next, n)
	db.notifiers.Store(&next)
	db.notifyMu.Unlock()
	return func() {
		db.notifyMu.Lock()
		defer db.notifyMu.Unlock()
		var cur []*writeNotifier
		if p := db.notifiers.Load(); p != nil {
			cur = *p
		}
		next := make([]*writeNotifier, 0, len(cur))
		for _, o := range cur {
			if o != n {
				next = append(next, o)
			}
		}
		db.notifiers.Store(&next)
	}
}

// Open creates an in-process store cluster with cfg. cfg.Dir must be empty
// — durable clusters are opened with OpenDurable, whose recovery can fail;
// Open panics on a non-empty Dir so the error cannot be silently dropped.
func Open(cfg Config) *DB {
	if cfg.Dir != "" {
		panic("store: Open with Config.Dir set; use OpenDurable")
	}
	db, err := OpenDurable(cfg)
	if err != nil {
		// Unreachable: the in-memory path has no error sources.
		panic(err)
	}
	return db
}

// OpenDurable creates a store cluster with cfg. With cfg.Dir set, each
// node opens (creating as needed) its commitlog and segment store under
// <Dir>/node-<id>/, replays the commitlog into memtables — recovering
// every acknowledged write of a previous incarnation, while a torn tail
// left by a crash mid-append is detected by CRC and cleanly ignored — and
// the background compactor starts. With cfg.Dir empty it is equivalent to
// Open.
func OpenDurable(cfg Config) (*DB, error) {
	cfg = cfg.withDefaults()
	db := &DB{
		cfg:     cfg,
		ring:    cluster.NewRing(cfg.RF, cfg.VNodes),
		nodes:   make(map[string]*Node, cfg.Nodes),
		remotes: make(map[string]Remote),
		tables:  make(map[string]bool),
		hintLog: newHintLog(),
	}
	if cfg.Tier.Backend != "" {
		if cfg.Dir == "" {
			return nil, fmt.Errorf("store: tiered storage requires a durable Dir")
		}
		tier, err := objstore.Open(cfg.Tier)
		if err != nil {
			return nil, fmt.Errorf("store: open tier: %w", err)
		}
		db.tier = tier
	}
	members := cfg.Members
	if len(members) == 0 {
		members = make([]string, cfg.Nodes)
		for i := range members {
			members[i] = fmt.Sprintf("store%02d", i)
		}
	} else {
		seen := make(map[string]bool, len(members))
		for _, id := range members {
			if id == "" || seen[id] {
				return nil, fmt.Errorf("store: empty or duplicate member id %q", id)
			}
			seen[id] = true
		}
	}
	local := make(map[string]bool, len(members))
	if len(cfg.LocalMembers) == 0 {
		for _, id := range members {
			local[id] = true
		}
	} else {
		member := make(map[string]bool, len(members))
		for _, id := range members {
			member[id] = true
		}
		for _, id := range cfg.LocalMembers {
			if !member[id] {
				return nil, fmt.Errorf("store: local member %q is not in Members", id)
			}
			local[id] = true
		}
	}
	for _, id := range members {
		db.ring.AddNode(id)
		if !local[id] {
			// Remote members start down; the cluster runtime marks them up
			// once a heartbeat succeeds over their attached transport.
			db.ring.SetUp(id, false)
			continue
		}
		n := newNode(id, cfg.FlushThreshold, cfg.MaxSegments)
		if cfg.Dir != "" {
			if err := n.openDurable(filepath.Join(cfg.Dir, "node-"+id), cfg, db.tier); err != nil {
				db.closeNodes()
				return nil, err
			}
		}
		db.nodes[id] = n
	}
	if cfg.Dir != "" {
		if err := db.recover(); err != nil {
			db.closeNodes()
			return nil, err
		}
		if cfg.CompactInterval > 0 {
			db.compactStop = make(chan struct{})
			db.compactDone = make(chan struct{})
			go db.compactorLoop()
		}
	}
	return db, nil
}

// recover replays every node's commitlog, reconciles the table catalog,
// and restores the logical write-timestamp counter.
func (db *DB) recover() error {
	var maxTS int64
	for _, id := range db.NodeIDs() {
		n := db.Node(id)
		ts, records, rows, err := n.recover()
		if err != nil {
			return fmt.Errorf("store: recover node %s: %w", id, err)
		}
		if ts > maxTS {
			maxTS = ts
		}
		db.replayStats.Records += records
		db.replayStats.Rows += rows
	}
	// Tables known to any node become cluster-wide (a put record implies
	// its table, so recovery never loses a table that holds data).
	names := make(map[string]bool)
	for _, id := range db.NodeIDs() {
		n := db.Node(id)
		n.mu.RLock()
		for name := range n.tables {
			names[name] = true
		}
		n.mu.RUnlock()
	}
	db.mu.Lock()
	for name := range names {
		db.tables[name] = true
	}
	db.mu.Unlock()
	for name := range names {
		for _, id := range db.NodeIDs() {
			db.Node(id).createTableLocal(name)
		}
	}
	if maxTS > db.writeTS.Load() {
		db.writeTS.Store(maxTS)
	}
	if len(names) > 0 {
		db.bumpGeneration()
	}
	return nil
}

func (db *DB) closeNodes() {
	for _, n := range db.nodes {
		n.closeDurable()
	}
}

// compactorLoop is the background maintenance goroutine of a durable
// cluster: on every tick it merges overflowing on-disk segments and
// truncates commitlog segments made obsolete by flushes.
func (db *DB) compactorLoop() {
	defer close(db.compactDone)
	t := time.NewTicker(db.cfg.CompactInterval)
	defer t.Stop()
	for {
		select {
		case <-db.compactStop:
			return
		case <-t.C:
			if _, err := db.maintain(db.cfg.MaxSegments); err != nil {
				// maintain already counted the failure (surfaced through
				// StorageStats / /v1/metrics); the log line adds the error
				// text monitoring counters cannot carry.
				if db.cfg.Logger != nil {
					db.cfg.Logger.Error("store: compaction maintenance failed", "err", err)
				}
			}
		}
	}
}

// eachDurableNode runs fn on every local durable node concurrently, one
// goroutine per node, and joins their errors in node-id order. Nodes
// share nothing on this path but the objstore.Tier, which is safe for
// concurrent use; each goroutine owns its node's store, so per-store
// serialization (one CompactPartition at a time) still holds.
func (db *DB) eachDurableNode(fn func(n *Node) error) error {
	ids := db.NodeIDs()
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		n := db.Node(id)
		if n.persist == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(n); err != nil {
				errs[i] = fmt.Errorf("store: node %s: %w", id, err)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// maintain runs one compaction + commitlog-truncation + tiering pass over
// every local node concurrently. Per-node failures are joined rather than
// aborting the pass — a broken object-store endpoint must not stop other
// nodes from compacting — and every failed pass increments
// MaintenanceErrors, whether it came from the background compactor or an
// explicit Compact call.
func (db *DB) maintain(threshold int) (int, error) {
	db.compactMu.Lock()
	defer db.compactMu.Unlock()
	var total atomic.Int64
	err := db.eachDurableNode(func(n *Node) error {
		var errs []error
		c, err := n.persist.CompactOverflow(threshold)
		total.Add(int64(c))
		if err != nil {
			errs = append(errs, err)
		}
		if _, err := n.truncateWAL(); err != nil {
			errs = append(errs, err)
		}
		if db.tier != nil {
			if _, _, err := n.persist.TierSweep(context.Background(), false); err != nil {
				errs = append(errs, err)
			}
		}
		return errors.Join(errs...)
	})
	if total.Load() > 0 {
		db.bumpGeneration()
	}
	if err != nil {
		db.maintErrors.Add(1)
	}
	return int(total.Load()), err
}

// TierSweep flushes memtables and uploads+evicts segments to the object
// tier across every local node, one goroutine per node. force widens the
// sweep from the cold set (everything but each partition's newest
// segment) to every eligible segment — the operator trigger behind
// POST /v1/storage/tier. Failures count as maintenance errors. A no-op
// without a configured tier.
func (db *DB) TierSweep(force bool) (uploaded, evicted int, err error) {
	if db.cfg.Dir == "" || db.tier == nil {
		return 0, 0, nil
	}
	if err := db.Flush(); err != nil {
		db.maintErrors.Add(1)
		return 0, 0, err
	}
	db.compactMu.Lock()
	defer db.compactMu.Unlock()
	var up, ev atomic.Int64
	err = db.eachDurableNode(func(n *Node) error {
		u, e, err := n.persist.TierSweep(context.Background(), force)
		up.Add(int64(u))
		ev.Add(int64(e))
		return err
	})
	if err != nil {
		db.maintErrors.Add(1)
	}
	return int(up.Load()), int(ev.Load()), err
}

// Tier returns the object-storage tier, or nil when tiering is off. The
// metrics handler reads its counters and fetch-latency histogram.
func (db *DB) Tier() *objstore.Tier { return db.tier }

// SegmentListing is one node's segment inventory for the wire surface.
type SegmentListing struct {
	Node     string                `json:"node"`
	Segments []persist.SegmentInfo `json:"segments"`
}

// SegmentInfos lists every local node's on-disk segments — sequence, key
// range, Merkle root, and tier placement — ordered by node id.
func (db *DB) SegmentInfos() []SegmentListing {
	var out []SegmentListing
	for _, id := range db.NodeIDs() {
		n := db.Node(id)
		if n == nil || n.persist == nil {
			continue
		}
		out = append(out, SegmentListing{Node: id, Segments: n.persist.SegmentInfos()})
	}
	return out
}

// Flush forces every dirty memtable of a durable cluster onto disk and
// truncates the commitlog accordingly, every local node concurrently. A
// no-op on in-memory clusters.
func (db *DB) Flush() error {
	if db.cfg.Dir == "" {
		return nil
	}
	return db.eachDurableNode(func(n *Node) error {
		if err := n.flushAll(); err != nil {
			return err
		}
		// Seal the active commitlog segment so the flush acts as a full
		// checkpoint: with every memtable clean, truncation can then
		// retire the entire log and the next open replays ~nothing.
		if n.wal != nil {
			if err := n.wal.Rotate(); err != nil {
				return err
			}
		}
		_, err := n.truncateWAL()
		return err
	})
}

// Compact merges every multi-segment partition of a durable cluster down
// to one on-disk segment per partition (after flushing memtables), and
// truncates the commitlog. Returns the number of partitions compacted. A
// failed flush counts as a maintenance error, like a failed merge.
func (db *DB) Compact() (int, error) {
	if db.cfg.Dir == "" {
		return 0, nil
	}
	if err := db.Flush(); err != nil {
		db.maintErrors.Add(1)
		return 0, err
	}
	return db.maintain(1)
}

// Close stops the background compactor and closes every node's commitlog
// and segment store. The memtables are not flushed: recovery replays the
// commitlog, so a clean close and a crash recover identically. Idempotent;
// a no-op on in-memory clusters.
func (db *DB) Close() error {
	if db.cfg.Dir == "" || !db.closed.CompareAndSwap(false, true) {
		return nil
	}
	if db.compactStop != nil {
		close(db.compactStop)
		<-db.compactDone
	}
	var first error
	for _, id := range db.NodeIDs() {
		if err := db.Node(id).closeDurable(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// StorageStats aggregates the durable engine's counters across all nodes:
// commitlog activity, memtable flushes, compaction work, recovery replay,
// and the current on-disk footprint. Zero-valued (with Durable false) on
// in-memory clusters.
type StorageStats struct {
	Durable bool   `json:"durable"`
	Dir     string `json:"dir,omitempty"`

	WALAppends           int64 `json:"wal_appends"`
	WALSyncs             int64 `json:"wal_syncs"`
	WALRotations         int64 `json:"wal_rotations"`
	WALBytes             int64 `json:"wal_bytes"`
	WALSegments          int64 `json:"wal_segments"`
	WALTruncatedSegments int64 `json:"wal_truncated_segments"`

	Flushes           int64 `json:"flushes"`
	FlushedRows       int64 `json:"flushed_rows"`
	Compactions       int64 `json:"compactions"`
	CompactedSegments int64 `json:"compacted_segments"`
	CompactedRows     int64 `json:"compacted_rows"`
	DiskSegments      int64 `json:"disk_segments"`
	DiskBytes         int64 `json:"disk_bytes"`

	// TieredSegments/TieredBytes count segments whose data lives in the
	// object tier (logical bytes); Tier carries the tier's own counters
	// (uploads, fetches, cache hit rate, verify failures) when tiering is
	// configured.
	TieredSegments int64           `json:"tiered_segments,omitempty"`
	TieredBytes    int64           `json:"tiered_bytes,omitempty"`
	Tier           *objstore.Stats `json:"tier,omitempty"`

	ReplayedRecords int64 `json:"replayed_records"`
	ReplayedRows    int64 `json:"replayed_rows"`
	TornBytes       int64 `json:"torn_bytes"`

	// MaintenanceErrors counts failed background compaction/truncation
	// passes — nonzero means the disk is misbehaving.
	MaintenanceErrors int64 `json:"maintenance_errors"`
}

// StorageStats returns a snapshot of the durable engine's counters.
func (db *DB) StorageStats() StorageStats {
	st := StorageStats{}
	if db.cfg.Dir == "" {
		return st
	}
	st.Durable = true
	st.Dir = db.cfg.Dir
	st.ReplayedRecords = db.replayStats.Records
	st.ReplayedRows = db.replayStats.Rows
	st.MaintenanceErrors = db.maintErrors.Load()
	for _, id := range db.NodeIDs() {
		n := db.Node(id)
		if n.wal == nil {
			continue
		}
		ws := n.wal.Stats()
		st.WALAppends += ws.Appends
		st.WALSyncs += ws.Syncs
		st.WALRotations += ws.Rotations
		st.WALBytes += ws.BytesWritten
		st.WALSegments += ws.Segments
		st.WALTruncatedSegments += ws.TruncatedSegments
		st.TornBytes += ws.TornBytes
		ps := n.persist.Stats()
		st.Flushes += ps.Flushes
		st.FlushedRows += ps.FlushedRows
		st.Compactions += ps.Compactions
		st.CompactedSegments += ps.CompactedSegments
		st.CompactedRows += ps.CompactedRows
		st.DiskSegments += ps.Segments
		st.DiskBytes += ps.Bytes
		st.TieredSegments += ps.TieredSegments
		st.TieredBytes += ps.TieredBytes
	}
	if db.tier != nil {
		ts := db.tier.Snapshot()
		st.Tier = &ts
	}
	return st
}

// WALFsyncHists returns the per-node commitlog fsync-latency histograms
// of a durable cluster (empty on in-memory clusters). The metrics
// handler merges them into one hpclog_wal_fsync_seconds series.
func (db *DB) WALFsyncHists() []*obs.Hist {
	var out []*obs.Hist
	for _, id := range db.NodeIDs() {
		if n := db.Node(id); n.wal != nil {
			out = append(out, n.wal.FsyncHist())
		}
	}
	return out
}

// MemtableRows reports the rows currently buffered in memtables across
// all local nodes — the unflushed write volume.
func (db *DB) MemtableRows() int {
	total := 0
	for _, id := range db.NodeIDs() {
		total += db.Node(id).MemtableRows()
	}
	return total
}

// Ring exposes the cluster ring (read-only use intended).
func (db *DB) Ring() *cluster.Ring { return db.ring }

// Config returns the effective configuration.
func (db *DB) Config() Config { return db.cfg }

// NodeIDs returns the storage node ids in sorted order.
func (db *DB) NodeIDs() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ids := make([]string, 0, len(db.nodes))
	for id := range db.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Node returns the storage node with the given id, or nil.
func (db *DB) Node(id string) *Node {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.nodes[id]
}

// CreateTable declares a table on every node (and, on a durable cluster,
// in every node's commitlog). Creating an existing table is a no-op,
// supporting the paper's requirement that new event types and schemas can
// be added at any time.
func (db *DB) CreateTable(name string) error {
	db.mu.Lock()
	db.tables[name] = true
	nodes := make([]*Node, 0, len(db.nodes))
	for _, n := range db.nodes {
		nodes = append(nodes, n)
	}
	db.mu.Unlock()
	for _, n := range nodes {
		if err := n.createTable(name); err != nil {
			return err
		}
	}
	db.bumpGeneration()
	return nil
}

// Tables lists declared tables in sorted order.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for t := range db.tables {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// HasTable reports whether the table exists.
func (db *DB) HasTable(name string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[name]
}

// NextWriteTS issues a monotonically increasing logical write timestamp.
func (db *DB) NextWriteTS() int64 { return db.writeTS.Add(1) }

// Put writes a single row into the partition identified by pkey.
func (db *DB) Put(tableName, pkey string, row Row, cl Consistency) error {
	return db.PutBatchCtx(context.Background(), tableName, pkey, []Row{row}, cl)
}

// PutCtx is Put under the caller's context (trace + request ID carry
// through to replica transports).
func (db *DB) PutCtx(ctx context.Context, tableName, pkey string, row Row, cl Consistency) error {
	return db.PutBatchCtx(ctx, tableName, pkey, []Row{row}, cl)
}

// PutBatch writes rows into one partition, assigning write timestamps and
// replicating to the ring's replica set. It blocks until the consistency
// level is satisfied; remaining live replicas are written synchronously as
// well (the in-process transport makes asynchronous trickle unnecessary,
// but down replicas are skipped, so entropy between replicas still arises
// and Repair reconciles it). On a durable cluster each replica appends the
// batch to its commitlog before applying it, so an acknowledged batch
// survives a crash.
func (db *DB) PutBatch(tableName, pkey string, rows []Row, cl Consistency) error {
	return db.PutBatchCtx(context.Background(), tableName, pkey, rows, cl)
}

// PutBatchCtx is PutBatch under the caller's context. The context's
// request ID and trace span ride along: replica transports stamp the ID
// onto their RPCs, and the write path's stages (WAL append, replicate
// quorum ack, hint queueing) land on the trace. Replication itself is
// shielded from request-scoped cancellation — an acked batch must keep
// draining to stragglers after the handler returns.
func (db *DB) PutBatchCtx(ctx context.Context, tableName, pkey string, rows []Row, cl Consistency) error {
	if !db.HasTable(tableName) {
		return fmt.Errorf("store: no such table %q", tableName)
	}
	if len(rows) == 0 {
		return nil
	}
	// Stamp and compact in one pass: from here on the batch moves through
	// the engine (commitlog codec, memtable, segment flush) in the
	// interned-column representation; map-form rows are converted once at
	// this boundary.
	stamped := make([]Row, len(rows))
	for i, r := range rows {
		if r.WriteTS == 0 {
			r.WriteTS = db.NextWriteTS()
		}
		stamped[i] = r.Compact()
	}
	replicas := db.ring.Replicas(pkey)
	need := cl.required(len(replicas))
	live, down := db.liveTargets(replicas)
	if len(live) < need {
		return fmt.Errorf("%w: table %s partition %s needs %d, have %d live",
			ErrUnavailable, tableName, pkey, need, len(live))
	}
	// Hinted handoff: queue the rows for down replicas so a transient
	// outage converges on recovery without a full repair.
	if len(down) > 0 {
		st := obs.StartSpan(ctx, "hint.queue")
		for _, id := range down {
			db.hintLog.add(id, hint{table: tableName, pkey: pkey, rows: stamped})
		}
		st.End()
	}
	// Replicas append byte-identical commitlog records: encode once, share
	// the buffer (wal.Append copies it).
	var encoded []byte
	if db.cfg.Dir != "" {
		encoded = encodePutRecord(nil, tableName, pkey, stamped)
	}
	// Replication must outlive the request: the handler returning (and the
	// HTTP server cancelling its context) cannot abort straggler replicas
	// of an already-acked batch. Values (request ID, trace span) survive.
	applyCtx := context.WithoutCancel(ctx)
	if !db.hasRemotes.Load() {
		// Single-process cluster: write all live replicas synchronously (the
		// in-process transport makes asynchronous trickle unnecessary).
		st := obs.StartSpan(ctx, "replicate.all")
		var wg sync.WaitGroup
		errs := make([]error, len(live))
		for i, tgt := range live {
			wg.Add(1)
			go func(i int, tgt replicaTarget) {
				defer wg.Done()
				errs[i] = tgt.apply(applyCtx, tableName, pkey, stamped, encoded)
			}(i, tgt)
		}
		wg.Wait()
		st.End()
		acks := 0
		for _, err := range errs {
			if err == nil {
				acks++
			}
		}
		if acks > 0 {
			// Even a failed batch may have applied rows on some replicas,
			// which consistency-One reads can already observe — cached
			// results must be revalidated and watchers notified either way.
			db.notifyWrite(tableName, pkey, stamped)
		}
		if acks < need {
			return fmt.Errorf("store: only %d/%d acks for %s/%s: %w",
				acks, need, tableName, pkey, errors.Join(errs...))
		}
		return nil
	}
	return db.putBatchDistributed(applyCtx, tableName, pkey, stamped, encoded, live, need)
}

// putBatchDistributed replicates one stamped batch to live replica
// targets over mixed local/wire transports, returning as soon as the
// consistency level's W acks arrive. Stragglers keep writing in the
// background; a replica that fails or times out gets the batch queued as
// a hint, so an acked batch eventually reaches every replica (handoff on
// recovery, anti-entropy as the backstop) even though only W were waited
// on.
func (db *DB) putBatchDistributed(ctx context.Context, tableName, pkey string, stamped []Row, encoded []byte, live []replicaTarget, need int) error {
	type applyResult struct {
		idx int
		err error
	}
	st := obs.StartSpan(ctx, "replicate.quorum")
	ch := make(chan applyResult, len(live))
	for i, tgt := range live {
		go func(i int, tgt replicaTarget) {
			ch <- applyResult{i, tgt.apply(ctx, tableName, pkey, stamped, encoded)}
		}(i, tgt)
	}
	acks, fails, received := 0, 0, 0
	var errs []error
	for received < len(live) {
		res := <-ch
		received++
		if res.err == nil {
			acks++
		} else {
			fails++
			errs = append(errs, res.err)
			// Handoff: the replica answered with an error (or its transport
			// timed out) — queue the batch so recovery replays it.
			db.hintLog.add(live[res.idx].id, hint{table: tableName, pkey: pkey, rows: stamped})
		}
		if acks >= need || len(live)-fails < need {
			break
		}
	}
	st.End()
	if received < len(live) {
		// Drain the stragglers off the request path: late failures become
		// hints, late successes wake watchers/invalidate caches.
		remaining := len(live) - received
		go func() {
			late := false
			for i := 0; i < remaining; i++ {
				res := <-ch
				if res.err != nil {
					db.hintLog.add(live[res.idx].id, hint{table: tableName, pkey: pkey, rows: stamped})
				} else {
					late = true
				}
			}
			if late {
				db.bumpGeneration()
			}
		}()
	}
	if acks > 0 {
		db.notifyWrite(tableName, pkey, stamped)
	}
	if acks < need {
		return fmt.Errorf("store: only %d/%d acks for %s/%s: %w",
			acks, need, tableName, pkey, errors.Join(errs...))
	}
	return nil
}

// Get reads rows of one partition within the clustering range. At
// consistency One the first live replica answers; at Quorum/All the
// required number of replicas are read and reconciled last-write-wins.
func (db *DB) Get(tableName, pkey string, rg Range, cl Consistency) ([]Row, error) {
	return db.GetCtx(context.Background(), tableName, pkey, rg, cl)
}

// GetCtx is Get under the caller's context: replica transports derive
// their deadline from it and forward its request ID, so a scatter-gather
// read traces under one ID on every process it touches.
func (db *DB) GetCtx(ctx context.Context, tableName, pkey string, rg Range, cl Consistency) ([]Row, error) {
	if !db.HasTable(tableName) {
		return nil, fmt.Errorf("store: no such table %q", tableName)
	}
	replicas := db.ring.Replicas(pkey)
	need := cl.required(len(replicas))
	live, _ := db.liveTargets(replicas)
	if len(live) < need {
		return nil, fmt.Errorf("%w: table %s partition %s needs %d, have %d live",
			ErrUnavailable, tableName, pkey, need, len(live))
	}
	// A replica that errors (typically a peer that died inside the failure
	// detector's window and is not yet marked down) is substituted by the
	// next live target, so the read succeeds as long as `need` replicas
	// answer. Consistency One walks the preference order inline (local
	// first — the hot path stays goroutine-free).
	if need == 1 {
		var firstErr error
		for _, tgt := range live {
			rows, err := tgt.read(ctx, tableName, pkey, rg)
			if err == nil {
				return materializeRows(rows), nil
			}
			if firstErr == nil {
				firstErr = err
			}
		}
		return nil, fmt.Errorf("%w: table %s partition %s: no replica answered: %w",
			ErrUnavailable, tableName, pkey, firstErr)
	}
	// Quorum/All: read the first `need` live replicas in parallel,
	// substituting on failure.
	type readRes struct {
		idx  int
		rows []Row
		err  error
	}
	ch := make(chan readRes, len(live))
	launch := func(i int) {
		go func() {
			rows, err := live[i].read(ctx, tableName, pkey, rg)
			ch <- readRes{i, rows, err}
		}()
	}
	next := need
	for i := 0; i < need; i++ {
		launch(i)
	}
	var answered []int
	results := make([][]Row, len(live))
	var firstErr error
	for inflight := need; inflight > 0 && len(answered) < need; {
		res := <-ch
		inflight--
		if res.err != nil {
			if firstErr == nil {
				firstErr = res.err
			}
			if next < len(live) {
				launch(next)
				next++
				inflight++
			}
			continue
		}
		results[res.idx] = res.rows
		answered = append(answered, res.idx)
	}
	if len(answered) < need {
		return nil, fmt.Errorf("%w: table %s partition %s: %d of %d required replicas answered: %w",
			ErrUnavailable, tableName, pkey, len(answered), need, firstErr)
	}
	sort.Ints(answered)
	read := make([][]Row, len(answered))
	for i, idx := range answered {
		read[i] = results[idx]
	}
	merged := mergeRows(read...)
	// Read repair: patch replicas observed stale within the read range.
	repaired := false
	for _, idx := range answered {
		missing := diffRows(merged, results[idx])
		if len(missing) == 0 {
			continue
		}
		if err := live[idx].apply(context.WithoutCancel(ctx), tableName, pkey, missing, nil); err == nil {
			db.readRepairs.Add(int64(len(missing)))
			repaired = true
		}
	}
	if repaired {
		// A previously stale replica can now answer consistency-One reads
		// with more rows, so cached results must be revalidated and
		// watchers woken (digest-free: the repaired rows may never have
		// been digested on this coordinator).
		db.notifyScan()
	}
	return materializeRows(merged), nil
}

// materializeRows converts rows to the API-boundary map representation in
// place. Get hands rows to external consumers (CQL, snapshots, direct map
// access); the streaming ScanPartition path keeps the compact form.
func materializeRows(rows []Row) []Row {
	for i := range rows {
		rows[i] = rows[i].Materialize()
	}
	return rows
}

// ReadRepairs reports the total number of rows written back to stale
// replicas by read repair.
func (db *DB) ReadRepairs() int64 { return db.readRepairs.Load() }

// PartitionKeys returns the union of partition keys for a table across the
// whole cluster, sorted.
func (db *DB) PartitionKeys(tableName string) []string {
	seen := make(map[string]bool)
	for _, id := range db.NodeIDs() {
		for _, k := range db.Node(id).PartitionKeys(tableName) {
			seen[k] = true
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// PrimaryFor returns the primary storage node id for a partition key.
func (db *DB) PrimaryFor(pkey string) string { return db.ring.Primary(pkey) }

// Repair runs anti-entropy for one table: for every partition, the
// reachable replicas (live local members and live attached remotes — a
// down node cannot participate; it converges through hinted handoff and a
// repair after it returns) exchange rows and converge on the
// last-write-wins union. It returns the number of rows copied to lagging
// replicas.
func (db *DB) Repair(tableName string) (int, error) {
	if !db.HasTable(tableName) {
		return 0, fmt.Errorf("store: no such table %q", tableName)
	}
	ctx := context.Background()
	pkeys, err := db.AllPartitionKeysCtx(ctx, tableName)
	if err != nil {
		return 0, err
	}
	copied := 0
	for _, pkey := range pkeys {
		live := db.repairTargets(db.ring.Replicas(pkey))
		if len(live) < 2 {
			continue
		}
		lists := make([][]Row, 0, len(live))
		for _, tgt := range live {
			rows, err := tgt.read(ctx, tableName, pkey, Range{})
			if err != nil {
				return copied, err
			}
			lists = append(lists, rows)
		}
		union := mergeRows(lists...)
		for i, tgt := range live {
			if len(lists[i]) == len(union) {
				continue
			}
			missing := diffRows(union, lists[i])
			if len(missing) == 0 {
				continue
			}
			if err := tgt.apply(ctx, tableName, pkey, missing, nil); err != nil {
				return copied, err
			}
			copied += len(missing)
		}
	}
	if copied > 0 {
		db.notifyScan()
	}
	return copied, nil
}

// diffRows returns rows in union that are absent from have (by clustering
// key) or stale in have (smaller WriteTS). Both inputs are sorted by Key.
func diffRows(union, have []Row) []Row {
	var out []Row
	j := 0
	for _, r := range union {
		for j < len(have) && have[j].Key < r.Key {
			j++
		}
		if j < len(have) && have[j].Key == r.Key && have[j].WriteTS >= r.WriteTS {
			continue
		}
		out = append(out, r)
	}
	return out
}

// TotalRows reports the number of physical rows stored for a table across
// all nodes (replicas counted separately).
func (db *DB) TotalRows(tableName string) int {
	total := 0
	for _, id := range db.NodeIDs() {
		total += db.Node(id).RowCount(tableName)
	}
	return total
}
