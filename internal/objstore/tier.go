package objstore

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	"hpclog/internal/obs"
)

// Config selects and sizes the tier backing a store.
type Config struct {
	// Backend is "fs" (local directory, default) or "s3"
	// (S3/MinIO-compatible HTTP).
	Backend string
	// Dir is the fs backend's root directory.
	Dir string
	// Endpoint, Bucket, Region, AccessKey, SecretKey configure the s3
	// backend. Empty credentials mean anonymous requests (MinIO with
	// anonymous download policies, test servers).
	Endpoint  string
	Bucket    string
	Region    string
	AccessKey string
	SecretKey string
	// CacheBytes bounds the local block cache (payload bytes).
	CacheBytes int64
}

// Tier is the front door the segment store reads evicted data through:
// one ObjectStore plus one bounded block cache shared by every node in
// the process (a single budget, not per-node slivers), with fetch
// latency and verification counters for /v1/metrics.
type Tier struct {
	store ObjectStore
	cache *BlockCache

	// FetchHist records object-store block fetch latency (cache misses
	// only — hits never leave the process).
	FetchHist obs.Hist

	Uploads        obs.Counter
	UploadedBytes  obs.Counter
	Evictions      obs.Counter
	FetchedBlocks  obs.Counter
	FetchedBytes   obs.Counter
	VerifyFailures obs.Counter
}

// Open builds a Tier from cfg.
func Open(cfg Config) (*Tier, error) {
	var (
		store ObjectStore
		err   error
	)
	switch cfg.Backend {
	case "", "fs":
		store, err = OpenFS(cfg.Dir)
	case "s3":
		store, err = OpenS3(S3Config{
			Endpoint:  cfg.Endpoint,
			Bucket:    cfg.Bucket,
			Region:    cfg.Region,
			AccessKey: cfg.AccessKey,
			SecretKey: cfg.SecretKey,
		})
	default:
		return nil, fmt.Errorf("objstore: unknown backend %q (want fs or s3)", cfg.Backend)
	}
	if err != nil {
		return nil, err
	}
	return NewTier(store, cfg.CacheBytes), nil
}

// NewTier wraps an already-constructed ObjectStore (tests inject fault
// wrappers here).
func NewTier(store ObjectStore, cacheBytes int64) *Tier {
	return &Tier{store: store, cache: NewBlockCache(cacheBytes)}
}

// Store returns the underlying ObjectStore.
func (t *Tier) Store() ObjectStore { return t.store }

// Cache returns the shared block cache.
func (t *Tier) Cache() *BlockCache { return t.cache }

// ReadBlock returns block `block` of the object at key — the bytes at
// [off, off+n) — Merkle-verified against root before they are cached or
// returned. tree must be the tree whose leaves are resident in the
// segment footer; root is the pinned root from the manifest, so a
// tampered footer leaf array cannot satisfy the proof either. The caller
// MUST call release when done with the bytes.
//
// A verification mismatch is reported as ErrIntegrity (wrapped with the
// key and block) and the bytes are never cached; the caller falls back
// to a replica via the normal failover path.
func (t *Tier) ReadBlock(ctx context.Context, key string, block int, off, n int64, root [HashLen]byte, tree *Tree) (data []byte, release func(), err error) {
	return t.cache.GetOrFetch(key, block, func() ([]byte, error) {
		start := time.Now()
		b, err := t.store.ReadRange(ctx, key, off, n)
		if err != nil {
			return nil, err
		}
		t.FetchHist.Record(time.Since(start))
		t.FetchedBlocks.Inc()
		t.FetchedBytes.Add(int64(len(b)))
		proof, err := tree.Proof(block)
		if err != nil {
			return nil, fmt.Errorf("%w: %s block %d: %v", ErrIntegrity, key, block, err)
		}
		if !VerifyProof(root, HashBlock(b), proof) {
			t.VerifyFailures.Inc()
			return nil, fmt.Errorf("%w: %s block %d: merkle proof mismatch", ErrIntegrity, key, block)
		}
		return b, nil
	})
}

// uploadChunk sizes the verification read-back.
const uploadChunk = 1 << 20

// UploadAndVerify streams size bytes from src into the object at key,
// then reads the object back in full and byte-compares it against src.
// Only after the read-back matches may the caller record the upload in
// the manifest — this ordering is what guarantees the manifest never
// references a half-uploaded (or bit-flipped) object. On verification
// failure the object is deleted and ErrIntegrity returned.
func (t *Tier) UploadAndVerify(ctx context.Context, key string, src io.ReaderAt, size int64) error {
	if err := t.store.Put(ctx, key, io.NewSectionReader(src, 0, size), size); err != nil {
		return err
	}
	got, err := t.store.Stat(ctx, key)
	if err != nil {
		return err
	}
	if got != size {
		t.store.Delete(ctx, key)
		return fmt.Errorf("%w: %s: uploaded %d bytes, object store reports %d", ErrIntegrity, key, size, got)
	}
	// Read back in chunks and compare byte for byte (constant memory,
	// catches any divergence without trusting the backend's checksums).
	local := make([]byte, min(size, uploadChunk))
	for off := int64(0); off < size; off += uploadChunk {
		n := min(int64(uploadChunk), size-off)
		remote, err := t.store.ReadRange(ctx, key, off, n)
		if err != nil {
			return fmt.Errorf("objstore: verify read-back of %s: %w", key, err)
		}
		if _, err := src.ReadAt(local[:n], off); err != nil {
			return fmt.Errorf("objstore: verify local read of %s: %w", key, err)
		}
		if !bytes.Equal(remote, local[:n]) {
			t.store.Delete(ctx, key)
			t.VerifyFailures.Inc()
			return fmt.Errorf("%w: %s: read-back mismatch at offset %d", ErrIntegrity, key, off)
		}
	}
	t.Uploads.Inc()
	t.UploadedBytes.Add(size)
	return nil
}

// Stats is the tier's wire-facing snapshot; the store layer folds it
// into StorageStats.
type Stats struct {
	Uploads        int64      `json:"uploads"`
	UploadedBytes  int64      `json:"uploaded_bytes"`
	Evictions      int64      `json:"evictions"`
	FetchedBlocks  int64      `json:"fetched_blocks"`
	FetchedBytes   int64      `json:"fetched_bytes"`
	VerifyFailures int64      `json:"verify_failures"`
	CacheBudget    int64      `json:"cache_budget_bytes"`
	CacheUsed      int64      `json:"cache_used_bytes"`
	CacheEntries   int        `json:"cache_entries"`
	CacheHits      uint64     `json:"cache_hits"`
	CacheMisses    uint64     `json:"cache_misses"`
	CacheEvicted   uint64     `json:"cache_evicted"`
	FetchNanos     FetchNanos `json:"fetch_latency"`
}

// FetchNanos summarizes fetch latency for the stats payload.
type FetchNanos struct {
	Count uint64        `json:"count"`
	P50   time.Duration `json:"p50_ns"`
	P99   time.Duration `json:"p99_ns"`
	Max   time.Duration `json:"max_ns"`
}

// Snapshot assembles Stats.
func (t *Tier) Snapshot() Stats {
	cs := t.cache.Stats()
	return Stats{
		Uploads:        t.Uploads.Load(),
		UploadedBytes:  t.UploadedBytes.Load(),
		Evictions:      t.Evictions.Load(),
		FetchedBlocks:  t.FetchedBlocks.Load(),
		FetchedBytes:   t.FetchedBytes.Load(),
		VerifyFailures: t.VerifyFailures.Load(),
		CacheBudget:    cs.Budget,
		CacheUsed:      cs.Used,
		CacheEntries:   cs.Entries,
		CacheHits:      cs.Hits,
		CacheMisses:    cs.Misses,
		CacheEvicted:   cs.Evicted,
		FetchNanos: FetchNanos{
			Count: t.FetchHist.Count(),
			P50:   t.FetchHist.Quantile(0.50),
			P99:   t.FetchHist.Quantile(0.99),
			Max:   t.FetchHist.Max(),
		},
	}
}
