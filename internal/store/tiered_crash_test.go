package store

// Tiered-storage failure injection: a corrupted object must fail the
// Merkle check and fall back to a replica, and a kill -9 at any stage of
// the upload/eviction pipeline must lose no acked row while the manifest
// never references a half-uploaded object.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hpclog/internal/objstore"
	"hpclog/internal/store/persist"
)

func tieredCrashCfg(dir, tierDir string) Config {
	cfg := crashCfg(dir)
	cfg.Tier = objstore.Config{Backend: "fs", Dir: tierDir, CacheBytes: 1 << 20}
	return cfg
}

// TestTieredCorruptionFallsBackToReplica flips one byte in every object
// of the preferred replica and asserts a consistency-One read still
// answers correctly off the other replica — the typed integrity error is
// a replica failure like any other, absorbed by the substitution path —
// while the verify-failure counter records the detection. Both read
// shapes are inputs: a materialized Get, and a streaming ScanPartition,
// whose corrupt block surfaces mid-stream after earlier blocks were
// already delivered, so the fallback must resume after the last key.
func TestTieredCorruptionFallsBackToReplica(t *testing.T) {
	readers := map[string]func(db *DB) ([]Row, error){
		"get": func(db *DB) ([]Row, error) { return db.Get("events", "hot", Range{}, One) },
		"scan": func(db *DB) ([]Row, error) {
			it, err := db.ScanPartition("events", "hot", Range{}, One)
			if err != nil {
				return nil, err
			}
			defer it.Close()
			var rows []Row
			for {
				r, ok := it.Next()
				if !ok {
					return rows, it.Err()
				}
				rows = append(rows, r)
			}
		},
	}
	for name, read := range readers {
		t.Run(name, func(t *testing.T) { testTieredCorruptionFallback(t, read) })
	}
}

func testTieredCorruptionFallback(t *testing.T, read func(db *DB) ([]Row, error)) {
	dir, tierDir := t.TempDir(), t.TempDir()
	db, err := OpenDurable(tieredCrashCfg(dir, tierDir))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("events"); err != nil {
		t.Fatal(err)
	}
	const nRows = 200
	rows := make([]Row, 0, nRows)
	for i := 0; i < nRows; i++ {
		rows = append(rows, Row{
			Key:     EncodeTS(int64(5000+i)) + ":src",
			Columns: map[string]string{"i": fmt.Sprint(i)},
		})
	}
	if err := db.PutBatch("events", "hot", rows, All); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.TierSweep(true); err != nil {
		t.Fatal(err)
	}
	if st := db.StorageStats(); st.DiskSegments == 0 || st.TieredSegments != st.DiskSegments {
		t.Fatalf("want 100%% evicted: %d of %d", st.TieredSegments, st.DiskSegments)
	}

	// Flip a data byte in every object of the read path's first-choice
	// replica, before any block has been fetched or cached.
	first := db.Ring().Replicas("hot")[0]
	objs, err := filepath.Glob(filepath.Join(tierDir, "node-"+first, "*.seg"))
	if err != nil || len(objs) == 0 {
		t.Fatalf("no objects for preferred replica node-%s (err=%v)", first, err)
	}
	for _, p := range objs {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	got, err := read(db)
	if err != nil {
		t.Fatalf("read with one corrupt replica: %v (after %d rows)", err, len(got))
	}
	if len(got) != nRows {
		t.Fatalf("fallback read returned %d rows, want %d", len(got), nRows)
	}
	for i, r := range got {
		if want := EncodeTS(int64(5000+i)) + ":src"; r.Key != want {
			t.Fatalf("row %d has key %q, want %q (fallback repeated or skipped rows)", i, r.Key, want)
		}
	}
	if db.Tier().VerifyFailures.Load() == 0 {
		t.Fatal("fallback happened without a recorded verify failure")
	}
}

// TestTieredCrashRecovery cuts crash images at every durability boundary
// of the upload/eviction pipeline (via persist.TierCrashHook) and proves,
// for each: recovery loses no acked row, the manifest references only
// fully-uploaded objects, and a fresh sweep converges back to 100%
// evicted — re-uploading or re-adopting as the stage demands.
func TestTieredCrashRecovery(t *testing.T) {
	dir, tierDir := t.TempDir(), t.TempDir()
	db, err := OpenDurable(tieredCrashCfg(dir, tierDir))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("events"); err != nil {
		t.Fatal(err)
	}
	const batches, rowsPerBatch = 20, 10
	for b := 0; b < batches; b++ {
		var rows []Row
		for i := 0; i < rowsPerBatch; i++ {
			rows = append(rows, Row{
				Key:     EncodeTS(int64(5000+b*rowsPerBatch+i)) + ":src",
				Columns: map[string]string{"batch": fmt.Sprint(b)},
			})
		}
		if err := db.PutBatch("events", fmt.Sprintf("part-%d", b%3), rows, All); err != nil {
			t.Fatal(err)
		}
	}

	// Capture one crash image per pipeline stage, mid-sweep: both the data
	// directory (WAL, segments, stubs, manifest) and the object root. The
	// sweep runs one goroutine per node, so the hook fires concurrently:
	// the mutex serializes captures and stops every node at its next
	// stage boundary while an image is cut, so each stage is captured
	// once and every image holds, per node, a state a crash could leave.
	type image struct{ stage, data, tier string }
	var (
		mu     sync.Mutex
		images []image
	)
	persist.TierCrashHook = func(stage string, seq uint64) {
		mu.Lock()
		defer mu.Unlock()
		for _, img := range images {
			if img.stage == stage {
				return
			}
		}
		d, o := t.TempDir(), t.TempDir()
		if err := copyTreeErr(dir, d); err != nil {
			t.Errorf("%s image of %s: %v", stage, dir, err)
			return
		}
		if err := copyTreeErr(tierDir, o); err != nil {
			t.Errorf("%s image of %s: %v", stage, tierDir, err)
			return
		}
		images = append(images, image{stage, d, o})
	}
	defer func() { persist.TierCrashHook = nil }()
	up, ev, err := db.TierSweep(true)
	persist.TierCrashHook = nil
	if err != nil || up == 0 || ev == 0 {
		t.Fatalf("sweep: uploaded=%d evicted=%d err=%v", up, ev, err)
	}
	want := readAll(t, db, "events")
	if len(images) != 4 {
		t.Fatalf("captured %d stage images, want 4 (pre-upload post-upload post-manifest post-stub)", len(images))
	}

	for _, img := range images {
		t.Run(img.stage, func(t *testing.T) {
			rdb, err := OpenDurable(tieredCrashCfg(img.data, img.tier))
			if err != nil {
				t.Fatalf("recover from %s image: %v", img.stage, err)
			}
			defer rdb.Close()
			if got := readAll(t, rdb, "events"); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s image lost acked rows: %d partitions vs %d", img.stage, len(got), len(want))
			}
			verifyTierManifests(t, img.data, img.tier)
			// Recovery must be able to finish the job the crash interrupted.
			if _, _, err := rdb.TierSweep(true); err != nil {
				t.Fatalf("sweep after %s recovery: %v", img.stage, err)
			}
			if st := rdb.StorageStats(); st.DiskSegments == 0 || st.TieredSegments != st.DiskSegments {
				t.Fatalf("%s recovery did not reconverge: %d of %d evicted", img.stage, st.TieredSegments, st.DiskSegments)
			}
			verifyTierManifests(t, img.data, img.tier)
			if got := readAll(t, rdb, "events"); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s image lost rows after re-sweep", img.stage)
			}
		})
	}
}

// verifyTierManifests asserts the crash-safety invariant: every entry in
// every node's TIER manifest names an object that exists in the store at
// exactly the recorded size — never a half-uploaded one.
func verifyTierManifests(t *testing.T, dataDir, tierDir string) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dataDir, "node-*", "seg", "TIER"))
	if err != nil {
		t.Fatal(err)
	}
	for _, mp := range paths {
		m, err := objstore.LoadManifest(mp)
		if err != nil {
			t.Fatalf("load %s: %v", mp, err)
		}
		for _, e := range m.Entries() {
			fi, err := os.Stat(filepath.Join(tierDir, filepath.FromSlash(e.Key)))
			if err != nil {
				t.Fatalf("%s references missing object %s: %v", mp, e.Key, err)
			}
			if fi.Size() != e.Size {
				t.Fatalf("%s: object %s is %d bytes, manifest says %d", mp, e.Key, fi.Size(), e.Size)
			}
		}
	}
}

// TestTierSweepPartialFailure blocks one node's object prefix with a
// regular file, so that node can neither upload nor reach its objects,
// and runs a sweep and a compaction over every node at once. The other
// nodes must finish their work, the joined error must name only the
// blocked node, each failed pass must count one maintenance error, no
// row may be lost, and once the blocker goes a sweep must converge.
func TestTierSweepPartialFailure(t *testing.T) {
	dir, tierDir := t.TempDir(), t.TempDir()
	cfg := tieredCrashCfg(dir, tierDir)
	cfg.Nodes = 3
	db, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("events"); err != nil {
		t.Fatal(err)
	}
	put := func(base int) {
		for p := 0; p < 6; p++ {
			var rows []Row
			for i := 0; i < 30; i++ {
				rows = append(rows, Row{
					Key:     EncodeTS(int64(base+p*100+i)) + ":src",
					Columns: map[string]string{"part": fmt.Sprint(p)},
				})
			}
			if err := db.PutBatch("events", fmt.Sprintf("part-%d", p), rows, All); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Every node holds an evicted generation and a newer resident one.
	put(5000)
	if _, _, err := db.TierSweep(true); err != nil {
		t.Fatal(err)
	}
	put(9000)
	want := readAll(t, db, "events")

	blocked := db.Ring().Replicas("part-0")[0]
	prefix := filepath.Join(tierDir, "node-"+blocked)
	if err := os.Rename(prefix, prefix+".moved"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(prefix, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	checkErr := func(pass string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "store: node "+blocked+":") {
			t.Fatalf("%s: err = %v, want one naming node %s", pass, err, blocked)
		}
		for _, id := range db.NodeIDs() {
			if id != blocked && strings.Contains(err.Error(), "store: node "+id+":") {
				t.Fatalf("%s: error names healthy node %s: %v", pass, id, err)
			}
		}
	}
	maintErrs := db.StorageStats().MaintenanceErrors

	_, _, err = db.TierSweep(true)
	checkErr("sweep", err)
	if got := db.StorageStats().MaintenanceErrors; got != maintErrs+1 {
		t.Fatalf("MaintenanceErrors = %d after the failed sweep, want %d", got, maintErrs+1)
	}
	for _, l := range db.SegmentInfos() {
		resident := 0
		for _, seg := range l.Segments {
			if seg.Tier != "evicted" {
				resident++
			}
		}
		switch {
		case l.Node != blocked && (len(l.Segments) == 0 || resident != 0):
			t.Fatalf("node %s: %d of %d segments not evicted", l.Node, resident, len(l.Segments))
		case l.Node == blocked && resident == 0:
			t.Fatalf("blocked node %s evicted its newest segments", l.Node)
		}
	}
	// Every partition the blocked node replicates still reads back, its
	// unreachable objects substituted by the other replica.
	for _, pkey := range db.Node(blocked).PartitionKeys("events") {
		got, err := db.Get("events", pkey, Range{}, One)
		if err != nil || !reflect.DeepEqual(got, want[pkey]) {
			t.Fatalf("partition %s of the blocked node: %d rows (err %v), want %d", pkey, len(got), err, len(want[pkey]))
		}
	}

	compacted, err := db.Compact()
	checkErr("compact", err)
	if compacted == 0 {
		t.Fatal("the healthy nodes compacted nothing")
	}
	if got := db.StorageStats().MaintenanceErrors; got != maintErrs+2 {
		t.Fatalf("MaintenanceErrors = %d after the failed compaction, want %d", got, maintErrs+2)
	}

	if err := os.Remove(prefix); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(prefix+".moved", prefix); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.TierSweep(true); err != nil {
		t.Fatalf("sweep after the blocker is removed: %v", err)
	}
	if st := db.StorageStats(); st.DiskSegments == 0 || st.TieredSegments != st.DiskSegments {
		t.Fatalf("did not converge: %d of %d segments evicted", st.TieredSegments, st.DiskSegments)
	}
	verifyTierManifests(t, dir, tierDir)
	if got := readAll(t, db, "events"); !reflect.DeepEqual(got, want) {
		t.Fatal("rows changed across the partial failure")
	}
}
