package persist

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"hpclog/internal/objstore"
)

// tierManifestName is the per-node manifest of uploaded segments, stored
// beside the segment files.
const tierManifestName = "TIER"

// TierSetup attaches an object-store tier to a Store at open.
type TierSetup struct {
	// Tier is the process-wide tier (object store + shared block cache).
	Tier *objstore.Tier
	// Prefix namespaces this node's objects within the store (e.g.
	// "node-3"); object keys are <prefix>/<seq>.seg.
	Prefix string
}

// TierCrashHook, when non-nil, is invoked at each durability boundary of
// the upload/eviction pipeline with the stage name and the segment's
// sequence number. The crash harness uses it to capture directory images
// "mid-upload" and "mid-eviction" and prove recovery from each.
// Stages, in pipeline order:
//
//	pre-upload    — about to stream the segment to the object store
//	post-upload   — object uploaded and read-back verified, manifest not yet written
//	post-manifest — manifest entry durable, local data file still authoritative
//	post-stub     — footer stub durable, data file not yet unlinked
//
// store.DB sweeps its nodes concurrently, so the hook may be called from
// several goroutines at once (one per node); it must be safe for that.
var TierCrashHook func(stage string, seq uint64)

func tierHook(stage string, seq uint64) {
	if TierCrashHook != nil {
		TierCrashHook(stage, seq)
	}
}

// ErrTierRequired marks a segment directory whose manifest references
// evicted segments opened without a tier configuration — refusing to
// open beats silently serving partial data.
var ErrTierRequired = errors.New("persist: segment data is evicted to an object store; tier configuration required")

// tierObjKey is the deterministic object key for a segment: crash
// recovery re-uploads to the same key, so an interrupted upload can
// never leak an orphan object.
func (s *Store) tierObjKey(seq uint64) string {
	return fmt.Sprintf("%s/%020d%s", s.tierPrefix, seq, segFileExt)
}

// reconcileTier replays the manifest against the local directory after
// the resident segments are opened:
//
//   - entry + local data file (crash between manifest write and unlink,
//     or eviction never ran): re-adopt the local file and remember the
//     upload — a later eviction needs no second transfer;
//   - entry + stub: open the evicted segment, reads go through the tier;
//   - entry alone (fresh disk): rebuild the stub from the object store;
//   - stub without entry (crash mid-retire after the manifest entry was
//     removed): garbage, swept.
//
// nextSeq is seeded past every manifest seq so an evicted segment's
// number is never reissued to a new file.
func (s *Store) reconcileTier() error {
	ctx := context.Background()
	bySeq := make(map[uint64]*Segment)
	for _, list := range s.segs {
		for _, seg := range list {
			bySeq[seg.Seq()] = seg
		}
	}
	live := make(map[string]bool)
	for _, e := range s.manifest.Entries() {
		sp := stubPath(s.segPath(e.Seq))
		live[filepath.Base(sp)] = true
		if seg, ok := bySeq[e.Seq]; ok {
			root, hasRoot := seg.MerkleRoot()
			if !hasRoot || root != e.Root {
				return fmt.Errorf("%w: %s: local segment does not match the manifest-recorded upload", objstore.ErrIntegrity, s.segPath(e.Seq))
			}
			seg.SetTier(s.tier, e.Key)
			os.Remove(sp) // interrupted eviction: local file re-adopted
			continue
		}
		if _, err := os.Stat(sp); err != nil {
			if !os.IsNotExist(err) {
				return err
			}
			if err := FetchStub(ctx, s.tier, e, sp); err != nil {
				return err
			}
		}
		seg, err := OpenTieredStub(sp, s.tier, e)
		if err != nil {
			return err
		}
		k := segKey{seg.Table(), seg.Partition()}
		s.segs[k] = append(s.segs[k], seg)
		if e.Seq >= s.nextSeq {
			s.nextSeq = e.Seq + 1
		}
	}
	if ms := s.manifest.MaxSeq(); ms >= s.nextSeq {
		s.nextSeq = ms + 1
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, de := range entries {
		if strings.HasSuffix(de.Name(), segStubExt) && !live[de.Name()] {
			os.Remove(filepath.Join(s.dir, de.Name()))
		}
	}
	return nil
}

// TierSweep uploads eligible segments to the object store and releases
// their local data files. Policy: a segment is cold when a newer segment
// exists in its partition — the newest stays resident as the partition's
// hot tail; force widens the sweep to every eligible segment (the
// CLI/route trigger).
//
// The sweep runs in three phases so the manifest is written once per
// pass, not once per segment: upload and read-back verify every
// candidate, record all the new uploads with one durable manifest write,
// then stub and unlink each segment. Every segment still goes verified
// object → durable entry → stub → unlink. Per-segment failures are joined
// into the returned error and the sweep continues, so one bad segment
// cannot shadow the rest of the node; a failed manifest write evicts
// nothing, and the next pass re-uploads to the same deterministic keys.
func (s *Store) TierSweep(ctx context.Context, force bool) (uploaded, evicted int, err error) {
	if s.tier == nil {
		return 0, 0, nil
	}
	s.mu.Lock()
	var cands []*Segment
	for _, list := range s.segs {
		for i, seg := range list {
			if i == len(list)-1 && !force {
				continue
			}
			cands = append(cands, seg)
		}
	}
	s.mu.Unlock()
	var (
		errs    []error
		held    []*Segment // acquired locally until evicted or released
		fresh   []*Segment // uploaded by this pass, not yet recorded
		entries []objstore.ManifestEntry
	)
	for _, seg := range cands {
		if !seg.CanTier() || seg.Tiered() {
			continue
		}
		local, aerr := seg.acquire()
		if aerr != nil {
			continue // retired while sweeping
		}
		if !local {
			seg.release(false)
			continue
		}
		if !seg.Uploaded() {
			e, uerr := s.uploadSegment(ctx, seg)
			if uerr != nil {
				seg.release(true)
				errs = append(errs, uerr)
				continue
			}
			fresh = append(fresh, seg)
			entries = append(entries, e)
		}
		held = append(held, seg)
	}
	if err := s.manifest.Put(entries...); err != nil {
		for _, seg := range held {
			seg.release(true)
		}
		errs = append(errs, fmt.Errorf("persist: record %d uploads in %s: %w", len(entries), s.manifest.Path(), err))
		return 0, 0, errors.Join(errs...)
	}
	for i, seg := range fresh {
		tierHook("post-manifest", seg.Seq())
		seg.SetTier(s.tier, entries[i].Key)
	}
	uploaded = len(fresh)
	for _, seg := range held {
		everr := seg.EvictLocal()
		seg.release(true)
		if everr != nil {
			errs = append(errs, everr)
			continue
		}
		s.tier.Evictions.Inc()
		evicted++
	}
	return uploaded, evicted, errors.Join(errs...)
}

// uploadSegment streams seg to the object store, verifies the object by
// full read-back, and returns the manifest entry that records it. The
// caller makes the entry durable before evicting, so the manifest can
// never reference a half-uploaded object.
func (s *Store) uploadSegment(ctx context.Context, seg *Segment) (objstore.ManifestEntry, error) {
	key := s.tierObjKey(seg.Seq())
	tierHook("pre-upload", seg.Seq())
	if err := s.tier.UploadAndVerify(ctx, key, seg.f, seg.size); err != nil {
		return objstore.ManifestEntry{}, fmt.Errorf("persist: upload %s: %w", seg.path, err)
	}
	tierHook("post-upload", seg.Seq())
	root, ok := seg.MerkleRoot()
	if !ok {
		return objstore.ManifestEntry{}, fmt.Errorf("persist: %s: no merkle tree to record", seg.path)
	}
	return objstore.ManifestEntry{
		Seq: seg.Seq(), Key: key, Size: seg.size, DataLen: seg.meta.DataLen,
		Rows: int64(seg.Rows()), Table: seg.Table(), Partition: seg.Partition(),
		Root: root,
	}, nil
}

// dropTiered removes a retired segment's object-store presence: manifest
// entry first (so a crash cannot resurrect the object as live data
// beyond one LWW-harmless window), then cached blocks, then the object.
func (s *Store) dropTiered(ctx context.Context, seg *Segment) error {
	if s.tier == nil {
		return nil
	}
	key := seg.TierKey()
	if key == "" {
		return nil
	}
	if err := s.manifest.Remove(seg.Seq()); err != nil {
		return fmt.Errorf("persist: drop manifest entry %d: %w", seg.Seq(), err)
	}
	s.tier.Cache().DropKey(key)
	if err := s.tier.Store().Delete(ctx, key); err != nil {
		return fmt.Errorf("persist: delete retired object %s: %w", key, err)
	}
	return nil
}

// SegmentInfo is the wire-facing description of one segment — the
// Merkle root is the diffable unit Merkle anti-entropy needs.
type SegmentInfo struct {
	Table     string `json:"table"`
	Partition string `json:"partition"`
	Seq       uint64 `json:"seq"`
	Rows      int    `json:"rows"`
	Bytes     int64  `json:"bytes"`
	MinKey    string `json:"min_key"`
	MaxKey    string `json:"max_key"`
	// Root is the hex Merkle root over the segment's blocks (empty for
	// pre-v4 segments, which carry no leaf array).
	Root string `json:"merkle_root,omitempty"`
	// Tier is "resident", "uploaded" (object copy exists, data local), or
	// "evicted" (reads fetch from the object store).
	Tier string `json:"tier"`
}

// SegmentInfos snapshots every segment, ordered by table, partition, seq.
func (s *Store) SegmentInfos() []SegmentInfo {
	s.mu.Lock()
	segs := make([]*Segment, 0, 16)
	for _, list := range s.segs {
		segs = append(segs, list...)
	}
	s.mu.Unlock()
	out := make([]SegmentInfo, 0, len(segs))
	for _, seg := range segs {
		min, max := seg.KeyRange()
		info := SegmentInfo{
			Table: seg.Table(), Partition: seg.Partition(), Seq: seg.Seq(),
			Rows: seg.Rows(), Bytes: seg.Size(), MinKey: min, MaxKey: max,
			Tier: "resident",
		}
		if root, ok := seg.MerkleRoot(); ok {
			info.Root = fmt.Sprintf("%x", root)
		}
		if seg.Tiered() {
			info.Tier = "evicted"
		} else if seg.Uploaded() {
			info.Tier = "uploaded"
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		if a.Partition != b.Partition {
			return a.Partition < b.Partition
		}
		return a.Seq < b.Seq
	})
	return out
}
