package store

import (
	"context"
	"fmt"

	"hpclog/internal/store/persist"
)

// RowIter streams rows of one partition in clustering-key order. It is the
// streaming counterpart of Get: rows are produced on demand from a
// point-in-time snapshot of the partition — on durable nodes straight off
// the immutable on-disk segment files — so a scan never materializes the
// whole partition and never blocks concurrent writers.
//
// Iterators are not safe for concurrent use; each goroutine of a parallel
// scan should open its own. RowIter is an alias of persist.Iterator so the
// storage and persistence layers share one streaming contract.
type RowIter = persist.Iterator

// NewSliceIter wraps an already-materialized, sorted row slice in a
// RowIter. Used for the Quorum/All fallback and by tests.
func NewSliceIter(rows []Row) RowIter { return persist.NewSliceIter(rows) }

// ScanPartition opens a streaming scan over one partition's rows within
// the clustering range. At consistency One the scan streams from a
// snapshot of the first live replica — the fast path the partition-parallel
// query planner uses — and, like Get, falls back to the next live replica
// when that one fails, whether on open or mid-stream (see fallbackIter).
// On durable nodes the snapshot's segment inputs are pruned by each file's
// footer key range and decoded lazily off disk.
// Quorum/All scans require cross-replica reconciliation and read repair,
// which need the materialized row set, so they fall back to Get and stream
// the reconciled result.
//
// Yielded rows are in the compact interned-column representation (their
// Columns field is nil): read cells through Row.Col/ColID/Cols or
// materialize with Row.ColumnsMap. Rows share storage with the store and
// must be treated as read-only; on durable nodes their strings alias
// decoded segment blocks, so callers retaining single cells long-term
// should clone them.
func (db *DB) ScanPartition(tableName, pkey string, rg Range, cl Consistency) (RowIter, error) {
	return db.ScanPartitionPrunedCtx(context.Background(), tableName, pkey, rg, cl, nil, nil)
}

// scanPartition streams one partition of this node: a lazy last-write-wins
// k-way merge over the point-in-time snapshot captured by snapshotIters.
func (n *Node) scanPartition(tableName, pkey string, rg Range) (RowIter, error) {
	return n.scanPartitionPruned(tableName, pkey, rg, nil)
}

// scanPartitionPruned is scanPartition with block pruning (pc may be nil).
func (n *Node) scanPartitionPruned(tableName, pkey string, rg Range, pc *pruneCfg) (RowIter, error) {
	t, err := n.table(tableName)
	if err != nil {
		return nil, err
	}
	p := t.partition(pkey, false)
	if p == nil {
		return NewSliceIter(nil), nil
	}
	its, err := p.snapshotItersPruned(rg, pc)
	if err != nil {
		return nil, err
	}
	return persist.MergeIters(its), nil
}

// Pruner is re-exported from the persistence layer: a block-statistics
// predicate that lets scans skip segment blocks (see persist.Pruner).
type Pruner = persist.Pruner

// PruneStats is re-exported from the persistence layer: block read/prune
// counters accumulated across one scan's iterators.
type PruneStats = persist.PruneStats

// ScanPartitionPrunedCtx is ScanPartition with storage-level predicate
// pushdown, under the caller's context. On durable nodes, segment blocks
// whose zone maps and Bloom filters prove that no row can satisfy the
// pruner's predicate are skipped before they are read or decoded.
// Pruning is best-effort and conservative — the result stream is always
// exactly the rows ScanPartition would yield (callers still filter
// row-by-row); blocks whose keys may collide with other merge inputs are
// scanned regardless, preserving last-write-wins reconciliation. stats,
// when non-nil, receives the block counters. At consistency levels above
// One the call falls back to the reconciling Get path unpruned. A remote
// shard scan derives its RPC deadline from ctx and forwards its request
// ID, so the scatter half of a distributed query traces under the
// coordinator's ID on the peer.
func (db *DB) ScanPartitionPrunedCtx(ctx context.Context, tableName, pkey string, rg Range, cl Consistency, pr Pruner, stats *PruneStats) (RowIter, error) {
	if !db.HasTable(tableName) {
		return nil, fmt.Errorf("store: no such table %q", tableName)
	}
	if cl != One {
		rows, err := db.GetCtx(ctx, tableName, pkey, rg, cl)
		if err != nil {
			return nil, err
		}
		return NewSliceIter(rows), nil
	}
	var pc *pruneCfg
	if pr != nil {
		pc = &pruneCfg{pr: pr, stats: stats}
	}
	live, _ := db.liveTargets(db.ring.Replicas(pkey))
	if len(live) == 0 {
		return nil, fmt.Errorf("%w: table %s partition %s needs 1, have 0 live",
			ErrUnavailable, tableName, pkey)
	}
	open := func(tgt replicaTarget, rg Range) (RowIter, error) {
		if tgt.n != nil {
			return tgt.n.scanPartitionPruned(tableName, pkey, rg, pc)
		}
		// Remote shard: stream over the wire. Block pruning is not pushed
		// down (the remote scans its own segments); callers filter
		// row-by-row regardless, so the result stream is identical.
		return tgt.r.Scan(ctx, tableName, pkey, rg)
	}
	if len(live) == 1 {
		return open(live[0], rg)
	}
	f := &fallbackIter{open: open, targets: live, rg: rg, table: tableName, pkey: pkey}
	if !f.advance(nil) {
		return nil, f.err
	}
	return f, nil
}

// fallbackIter is a consistency-One scan that survives replica failures
// the way GetCtx does: when the current replica fails to open or errors
// mid-stream (a corrupt tiered block, a peer dying inside the failure
// detector's window), the scan re-opens on the next live target starting
// strictly after the last delivered key, so the stream neither repeats
// nor skips a row.
type fallbackIter struct {
	open        func(replicaTarget, Range) (RowIter, error)
	targets     []replicaTarget // untried targets, next first
	rg          Range
	table, pkey string

	cur      RowIter
	last     string // last delivered key
	started  bool   // last is set
	firstErr error
	err      error
}

// advance records cause (the current target's failure, nil at first
// open) and opens the scan on the next target that answers, resuming
// after the last delivered key. It reports false, with err set, once
// every target has failed.
func (f *fallbackIter) advance(cause error) bool {
	for {
		if f.firstErr == nil {
			f.firstErr = cause
		}
		if len(f.targets) == 0 {
			f.err = fmt.Errorf("%w: table %s partition %s: no replica answered: %w",
				ErrUnavailable, f.table, f.pkey, f.firstErr)
			return false
		}
		tgt := f.targets[0]
		f.targets = f.targets[1:]
		rg := f.rg
		if f.started {
			rg.From = f.last + "\x00" // the smallest key after last
		}
		if f.cur, cause = f.open(tgt, rg); cause == nil {
			return true
		}
	}
}

func (f *fallbackIter) Next() (Row, bool) {
	for f.cur != nil {
		if r, ok := f.cur.Next(); ok {
			f.last, f.started = r.Key, true
			return r, true
		}
		err := f.cur.Err()
		f.cur.Close()
		f.cur = nil
		if err == nil || !f.advance(err) {
			return Row{}, false
		}
	}
	return Row{}, false
}

func (f *fallbackIter) Err() error { return f.err }

func (f *fallbackIter) Close() error {
	if f.cur == nil {
		return nil
	}
	err := f.cur.Close()
	f.cur = nil
	return err
}

// PartitionKeyBoundsCtx returns the smallest and largest clustering key
// of one partition on the first live replica, without scanning (memtable
// ends and segment footers), under the caller's context. ok is false
// when the partition is empty or unknown. The query planner uses it to
// slice a partition scan into parallel clustering-range tasks.
func (db *DB) PartitionKeyBoundsCtx(ctx context.Context, tableName, pkey string) (min, max string, ok bool, err error) {
	if !db.HasTable(tableName) {
		return "", "", false, fmt.Errorf("store: no such table %q", tableName)
	}
	live, _ := db.liveTargets(db.ring.Replicas(pkey))
	if len(live) == 0 {
		return "", "", false, fmt.Errorf("%w: table %s partition %s needs 1, have 0 live",
			ErrUnavailable, tableName, pkey)
	}
	if tgt := live[0]; tgt.n != nil {
		t, terr := tgt.n.table(tableName)
		if terr != nil {
			return "", "", false, terr
		}
		p := t.partition(pkey, false)
		if p == nil {
			return "", "", false, nil
		}
		min, max, ok = p.keyBounds()
		return min, max, ok, nil
	}
	return live[0].r.KeyBounds(ctx, tableName, pkey)
}
