package persist

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpclog/internal/objstore"
)

func newTestTier(t *testing.T, objDir string) *objstore.Tier {
	t.Helper()
	tier, err := objstore.Open(objstore.Config{Backend: "fs", Dir: objDir, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return tier
}

func openTiered(t *testing.T, dir string, tier *objstore.Tier) *Store {
	t.Helper()
	s, err := OpenStoreTiered(dir, &TierSetup{Tier: tier, Prefix: "n1"})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func scanAll(t *testing.T, s *Store, table, pkey string) []Row {
	t.Helper()
	var out []Row
	for _, seg := range s.Segments(table, pkey) {
		it, err := seg.Scan(Range{})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, drain(t, it)...)
	}
	return out
}

func countFiles(t *testing.T, dir, suffix string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), suffix) {
			n++
		}
	}
	return n
}

func TestTierSweepForceEvictsAndReadsBack(t *testing.T) {
	dir, objDir := t.TempDir(), t.TempDir()
	tier := newTestTier(t, objDir)
	s := openTiered(t, dir, tier)
	defer s.Close()

	rowsA := testRows(300, 1)
	rowsB := testRows(200, 1000)
	if err := s.Flush("events", "pa", rowsA); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush("events", "pb", rowsB); err != nil {
		t.Fatal(err)
	}
	up, ev, err := s.TierSweep(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if up != 2 || ev != 2 {
		t.Fatalf("sweep: uploaded=%d evicted=%d", up, ev)
	}
	if n := countFiles(t, dir, segFileExt); n != 0 {
		t.Fatalf("%d data files survived a full eviction", n)
	}
	if n := countFiles(t, dir, segStubExt); n != 2 {
		t.Fatalf("%d stubs, want 2", n)
	}
	if !sameRows(scanAll(t, s, "events", "pa"), rowsA) {
		t.Fatal("pa rows changed after eviction")
	}
	if !sameRows(scanAll(t, s, "events", "pb"), rowsB) {
		t.Fatal("pb rows changed after eviction")
	}
	st := s.Stats()
	if st.TieredSegments != 2 || st.TieredBytes == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if tier.FetchedBlocks.Load() == 0 {
		t.Fatal("evicted reads fetched nothing?")
	}
	// Idempotent: everything already evicted.
	up, ev, err = s.TierSweep(context.Background(), true)
	if err != nil || up != 0 || ev != 0 {
		t.Fatalf("second sweep: %d %d %v", up, ev, err)
	}
}

func TestTierSweepColdPolicyKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	tier := newTestTier(t, t.TempDir())
	s := openTiered(t, dir, tier)
	defer s.Close()
	for i := 0; i < 3; i++ {
		if err := s.Flush("events", "p1", testRows(80, int64(1+i*100))); err != nil {
			t.Fatal(err)
		}
	}
	_, ev, err := s.TierSweep(context.Background(), false)
	if err != nil || ev != 2 {
		t.Fatalf("cold sweep evicted %d, want 2 (%v)", ev, err)
	}
	segs := s.Segments("events", "p1")
	if len(segs) != 3 || segs[2].Tiered() || !segs[0].Tiered() || !segs[1].Tiered() {
		t.Fatal("newest segment should be the only resident one")
	}
}

func TestTieredReopen(t *testing.T) {
	dir, objDir := t.TempDir(), t.TempDir()
	tier := newTestTier(t, objDir)
	s := openTiered(t, dir, tier)
	rows := testRows(300, 1)
	if err := s.Flush("events", "p1", rows); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.TierSweep(context.Background(), true); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with the stubs on disk.
	s = openTiered(t, dir, tier)
	if !sameRows(scanAll(t, s, "events", "p1"), rows) {
		t.Fatal("rows changed across reopen")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Fresh-disk scenario: the stubs are gone (new machine, same object
	// store + manifest); open must rebuild them from ranged reads.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), segStubExt) {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	s = openTiered(t, dir, tier)
	defer s.Close()
	if n := countFiles(t, dir, segStubExt); n != 1 {
		t.Fatalf("stub not rebuilt: %d", n)
	}
	if !sameRows(scanAll(t, s, "events", "p1"), rows) {
		t.Fatal("rows changed after stub rebuild")
	}
}

// TestTierSweepManifestFailureEvictsNothing fails the sweep's one
// manifest write (a directory squats on the manifest's temp path): every
// segment stays resident and readable with no manifest entry, and the
// next sweep re-uploads to the same keys and evicts them all.
func TestTierSweepManifestFailureEvictsNothing(t *testing.T) {
	dir, objDir := t.TempDir(), t.TempDir()
	tier := newTestTier(t, objDir)
	s := openTiered(t, dir, tier)
	defer s.Close()
	rows := testRows(100, 1)
	for _, pkey := range []string{"pa", "pb", "pc"} {
		if err := s.Flush("events", pkey, rows); err != nil {
			t.Fatal(err)
		}
	}
	squat := filepath.Join(dir, tierManifestName+".tmp")
	if err := os.Mkdir(squat, 0o755); err != nil {
		t.Fatal(err)
	}
	up, ev, err := s.TierSweep(context.Background(), true)
	if err == nil || up != 0 || ev != 0 {
		t.Fatalf("sweep with a failing manifest write: uploaded=%d evicted=%d err=%v", up, ev, err)
	}
	if s.manifest.Len() != 0 {
		t.Fatalf("failed batch left %d manifest entries", s.manifest.Len())
	}
	for _, pkey := range []string{"pa", "pb", "pc"} {
		for _, seg := range s.Segments("events", pkey) {
			if seg.Tiered() || seg.Uploaded() {
				t.Fatalf("%s: segment %d evicted or recorded after a failed manifest write", pkey, seg.Seq())
			}
		}
		if !sameRows(scanAll(t, s, "events", pkey), rows) {
			t.Fatalf("%s: rows changed after a failed manifest write", pkey)
		}
	}

	if err := os.Remove(squat); err != nil {
		t.Fatal(err)
	}
	up, ev, err = s.TierSweep(context.Background(), true)
	if err != nil || up != 3 || ev != 3 {
		t.Fatalf("sweep after the manifest path is freed: uploaded=%d evicted=%d err=%v", up, ev, err)
	}
	keys, err := tier.Store().List(context.Background(), "n1/")
	if err != nil || len(keys) != 3 {
		t.Fatalf("objects after re-upload: %v (err %v), want the same 3 keys", keys, err)
	}
	for _, pkey := range []string{"pa", "pb", "pc"} {
		if !sameRows(scanAll(t, s, "events", pkey), rows) {
			t.Fatalf("%s: rows changed after eviction", pkey)
		}
	}
}

func TestOpenStoreWithoutTierFails(t *testing.T) {
	dir := t.TempDir()
	tier := newTestTier(t, t.TempDir())
	s := openTiered(t, dir, tier)
	if err := s.Flush("events", "p1", testRows(80, 1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.TierSweep(context.Background(), true); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := OpenStore(dir); !errors.Is(err, ErrTierRequired) {
		t.Fatalf("want ErrTierRequired, got %v", err)
	}
}

func TestReconcileReAdoptsLocalFile(t *testing.T) {
	// Crash window: manifest entry durable, data file still local (stub
	// may or may not exist). Recovery must re-adopt the local file and a
	// later sweep must evict without a second upload.
	dir, objDir := t.TempDir(), t.TempDir()
	tier := newTestTier(t, objDir)
	s := openTiered(t, dir, tier)
	if err := s.Flush("events", "p1", testRows(120, 1)); err != nil {
		t.Fatal(err)
	}
	var image string
	TierCrashHook = func(stage string, seq uint64) {
		if stage == "post-manifest" && image == "" {
			image = t.TempDir()
			copyTreeT(t, dir, image)
		}
	}
	defer func() { TierCrashHook = nil }()
	if _, _, err := s.TierSweep(context.Background(), true); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if image == "" {
		t.Fatal("hook never fired")
	}

	uploadsBefore := tier.Uploads.Load()
	s2 := openTiered(t, image, tier)
	defer s2.Close()
	segs := s2.Segments("events", "p1")
	if len(segs) != 1 || segs[0].Tiered() || !segs[0].Uploaded() {
		t.Fatalf("re-adopt failed: %d segs", len(segs))
	}
	up, ev, err := s2.TierSweep(context.Background(), true)
	if err != nil || up != 0 || ev != 1 {
		t.Fatalf("post-recovery sweep: %d %d %v", up, ev, err)
	}
	if tier.Uploads.Load() != uploadsBefore {
		t.Fatal("recovery re-uploaded an already-verified object")
	}
	if !sameRows(scanAll(t, s2, "events", "p1"), testRows(120, 1)) {
		t.Fatal("rows changed through crash recovery")
	}
}

func TestReconcileMidUploadImage(t *testing.T) {
	// Crash window: object uploaded (or half-uploaded) but no manifest
	// entry. The manifest must never reference it; recovery re-uploads to
	// the same deterministic key.
	dir, objDir := t.TempDir(), t.TempDir()
	tier := newTestTier(t, objDir)
	s := openTiered(t, dir, tier)
	if err := s.Flush("events", "p1", testRows(120, 1)); err != nil {
		t.Fatal(err)
	}
	var image string
	TierCrashHook = func(stage string, seq uint64) {
		if stage == "post-upload" && image == "" {
			image = t.TempDir()
			copyTreeT(t, dir, image)
		}
	}
	defer func() { TierCrashHook = nil }()
	if _, _, err := s.TierSweep(context.Background(), true); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openTiered(t, image, tier)
	defer s2.Close()
	segs := s2.Segments("events", "p1")
	if len(segs) != 1 || segs[0].Tiered() || segs[0].Uploaded() {
		t.Fatal("image should hold one plain resident segment")
	}
	up, ev, err := s2.TierSweep(context.Background(), true)
	if err != nil || up != 1 || ev != 1 {
		t.Fatalf("recovery sweep: %d %d %v", up, ev, err)
	}
	if !sameRows(scanAll(t, s2, "events", "p1"), testRows(120, 1)) {
		t.Fatal("rows changed through mid-upload recovery")
	}
}

func TestTieredCompactionDropsObjects(t *testing.T) {
	dir, objDir := t.TempDir(), t.TempDir()
	tier := newTestTier(t, objDir)
	s := openTiered(t, dir, tier)
	defer s.Close()
	for i := 0; i < 3; i++ {
		if err := s.Flush("events", "p1", testRows(80, int64(1+i*1000))); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.TierSweep(context.Background(), true); err != nil {
		t.Fatal(err)
	}
	did, err := s.CompactPartition("events", "p1", 1)
	if err != nil || !did {
		t.Fatalf("compact: %v %v", did, err)
	}
	if s.manifest.Len() != 0 {
		t.Fatalf("manifest still holds %d retired entries", s.manifest.Len())
	}
	keys, err := tier.Store().List(context.Background(), "n1/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Fatalf("retired objects leaked: %v", keys)
	}
	if n := countFiles(t, dir, segStubExt); n != 0 {
		t.Fatalf("%d orphan stubs after compaction", n)
	}
	// Merged result is resident and carries the last-write-wins rows.
	got := scanAll(t, s, "events", "p1")
	if !sameRows(got, testRows(80, 2001)) {
		t.Fatalf("merged rows wrong: %d", len(got))
	}
}

func TestEvictedIteratorSurvivesEviction(t *testing.T) {
	// An iterator opened before eviction keeps streaming from the
	// unlinked file descriptor — eviction must never corrupt live scans.
	dir := t.TempDir()
	tier := newTestTier(t, t.TempDir())
	s := openTiered(t, dir, tier)
	defer s.Close()
	rows := testRows(300, 1)
	if err := s.Flush("events", "p1", rows); err != nil {
		t.Fatal(err)
	}
	seg := s.Segments("events", "p1")[0]
	it, err := seg.Scan(Range{})
	if err != nil {
		t.Fatal(err)
	}
	var got []Row
	for i := 0; i < 100; i++ {
		r, ok := it.Next()
		if !ok {
			t.Fatal("short read")
		}
		got = append(got, r)
	}
	if _, ev, err := s.TierSweep(context.Background(), true); err != nil || ev != 1 {
		t.Fatalf("sweep under live iterator: %d %v", ev, err)
	}
	got = append(got, drain(t, it)...)
	if !sameRows(got, rows) {
		t.Fatal("live iterator lost rows across eviction")
	}
	if tier.FetchedBlocks.Load() != 0 {
		t.Fatal("pre-eviction iterator should not fetch")
	}
	// A fresh iterator reads through the tier.
	if !sameRows(scanAll(t, s, "events", "p1"), rows) {
		t.Fatal("post-eviction scan wrong")
	}
	if tier.FetchedBlocks.Load() == 0 {
		t.Fatal("post-eviction scan did not fetch")
	}
}

func TestEvictedRangeScanFetchesOnlyNeededBlocks(t *testing.T) {
	// 512 rows = 8 blocks; a narrow range must fetch ~1 block, not 8.
	dir := t.TempDir()
	tier := newTestTier(t, t.TempDir())
	s := openTiered(t, dir, tier)
	defer s.Close()
	rows := testRows(512, 1)
	if err := s.Flush("events", "p1", rows); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.TierSweep(context.Background(), true); err != nil {
		t.Fatal(err)
	}
	seg := s.Segments("events", "p1")[0]
	rg := Range{From: rows[130].Key, To: rows[140].Key}
	it, err := seg.Scan(rg)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, it)
	if len(got) != 10 {
		t.Fatalf("range scan got %d rows", len(got))
	}
	if f := tier.FetchedBlocks.Load(); f > 2 {
		t.Fatalf("narrow range fetched %d blocks", f)
	}
}

func TestSegmentInfosReportTierAndRoot(t *testing.T) {
	dir := t.TempDir()
	tier := newTestTier(t, t.TempDir())
	s := openTiered(t, dir, tier)
	defer s.Close()
	if err := s.Flush("events", "p1", testRows(80, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush("events", "p1", testRows(80, 100)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.TierSweep(context.Background(), false); err != nil {
		t.Fatal(err)
	}
	infos := s.SegmentInfos()
	if len(infos) != 2 {
		t.Fatalf("%d infos", len(infos))
	}
	if infos[0].Tier != "evicted" || infos[1].Tier != "resident" {
		t.Fatalf("tiers: %s %s", infos[0].Tier, infos[1].Tier)
	}
	for _, in := range infos {
		if len(in.Root) != 64 {
			t.Fatalf("root %q not a sha256 hex", in.Root)
		}
		if in.MinKey == "" || in.MaxKey == "" || in.Rows != 80 {
			t.Fatalf("info incomplete: %+v", in)
		}
	}
}

// copyTreeT snapshots src into dst, as the crash harness does with
// directory images.
func copyTreeT(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}
