package store

// Crash-recovery harness: acked writes must survive a kill at any point,
// and a write torn mid-record by the crash must be cleanly ignored on
// replay.
//
// A "crash" is simulated two ways:
//   - image capture: the durable directory is copied byte-for-byte while
//     the cluster is still live (no Close, no flush) and the copy is
//     reopened — the moral equivalent of kill -9 plus restart. Because
//     every PutBatch ack implies a group-commit fsync, the image must
//     contain every acked batch.
//   - torn tail: a partial commitlog frame is appended to the newest WAL
//     segment of every node, simulating records that were mid-append when
//     the process died. Recovery must drop exactly the torn bytes.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// copyTree copies a directory recursively (the crash image).
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	if err := copyTreeErr(src, dst); err != nil {
		t.Fatal(err)
	}
}

// copyTreeErr is copyTree for callers that must not call t.Fatal, such as
// a crash hook running on a sweep goroutine. The tree may change while
// it is copied: a file unlinked between the directory listing and its
// open is absent from the image, as a crash just after the unlink would
// leave it. Every other write that can race the copy is tmp+rename, so a
// vanished file is otherwise a temporary that recovery ignores.
func copyTreeErr(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if os.IsNotExist(err) {
			return nil
		}
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
		if os.IsNotExist(err) {
			return nil
		}
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		defer out.Close()
		_, err = io.Copy(out, in)
		return err
	})
}

func crashCfg(dir string) Config {
	return Config{
		Nodes: 2, RF: 2, VNodes: 8,
		FlushThreshold:  25, // flush mid-run so recovery mixes segments + replay
		Dir:             dir,
		CompactInterval: -1,
	}
}

// TestCrashRecoveryAckedBatches cuts crash images at several points of an
// ingest run and asserts every batch acked before the cut survives
// recovery from the image.
func TestCrashRecoveryAckedBatches(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDurable(crashCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("events"); err != nil {
		t.Fatal(err)
	}

	type image struct {
		dir   string
		acked int // batches acked when the image was cut
	}
	var images []image
	const batches = 40
	const rowsPerBatch = 7
	for b := 0; b < batches; b++ {
		var rows []Row
		for i := 0; i < rowsPerBatch; i++ {
			rows = append(rows, Row{
				Key:     EncodeTS(int64(5000+b*rowsPerBatch+i)) + ":src",
				Columns: map[string]string{"batch": fmt.Sprint(b), "i": fmt.Sprint(i)},
			})
		}
		pkey := fmt.Sprintf("part-%d", b%3)
		if err := db.PutBatch("events", pkey, rows, All); err != nil {
			t.Fatal(err)
		}
		// Cut a crash image at irregular points, including right after the
		// first ack and right after the last.
		if b == 0 || b == 7 || b == 23 || b == batches-1 {
			img := t.TempDir()
			copyTree(t, dir, img)
			images = append(images, image{dir: img, acked: b + 1})
		}
	}

	for _, img := range images {
		rdb, err := OpenDurable(crashCfg(img.dir))
		if err != nil {
			t.Fatalf("recover image@%d batches: %v", img.acked, err)
		}
		got := make(map[string]Row)
		for _, pkey := range rdb.PartitionKeys("events") {
			rows, err := rdb.Get("events", pkey, Range{}, All)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				got[r.Key] = r
			}
		}
		for b := 0; b < img.acked; b++ {
			for i := 0; i < rowsPerBatch; i++ {
				key := EncodeTS(int64(5000+b*rowsPerBatch+i)) + ":src"
				r, ok := got[key]
				if !ok {
					t.Fatalf("image@%d batches lost acked row %s (batch %d)", img.acked, key, b)
				}
				if r.Columns["batch"] != fmt.Sprint(b) {
					t.Fatalf("image@%d batches: row %s has wrong content %+v", img.acked, key, r.Columns)
				}
			}
		}
		rdb.Close()
	}
}

// newestWALSegment returns the path of the highest-numbered commitlog
// segment under a node directory.
func newestWALSegment(t *testing.T, nodeDir string) string {
	t.Helper()
	walDir := filepath.Join(nodeDir, "wal")
	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) == 0 {
		t.Fatalf("no wal segments under %s", walDir)
	}
	sort.Strings(segs)
	return filepath.Join(walDir, segs[len(segs)-1])
}

// TestCrashRecoveryTornWrite hard-cuts the commitlog mid-record and
// asserts recovery keeps every acked batch while ignoring the torn tail.
func TestCrashRecoveryTornWrite(t *testing.T) {
	dir := t.TempDir()
	cfg := crashCfg(dir)
	db, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillDurable(t, db, "events", 2, 90)
	want := readAll(t, db, "events")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear every node's commitlog tail two ways: node 0 gets a partial
	// frame (record cut mid-write), node 1 gets a frame whose payload is
	// cut short. Both are what kill -9 during an append leaves behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	torn := 0
	for i, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "node-") {
			continue
		}
		seg := newestWALSegment(t, filepath.Join(dir, e.Name()))
		f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		var tail []byte
		if i%2 == 0 {
			tail = []byte{0x40, 0, 0, 0} // half a frame header
		} else {
			tail = []byte{0x40, 0, 0, 0, 0xaa, 0xbb, 0xcc, 0xdd, 'p', 'a', 'r'} // frame + cut payload
		}
		if _, err := f.Write(tail); err != nil {
			t.Fatal(err)
		}
		f.Close()
		torn += len(tail)
	}
	if torn == 0 {
		t.Fatal("no node directories found to tear")
	}

	rdb, err := OpenDurable(cfg)
	if err != nil {
		t.Fatalf("recovery after torn write: %v", err)
	}
	defer rdb.Close()
	st := rdb.StorageStats()
	if st.TornBytes != int64(torn) {
		t.Fatalf("TornBytes = %d, want %d", st.TornBytes, torn)
	}
	got := readAll(t, rdb, "events")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("torn-tail recovery lost data: %d partitions vs %d", len(got), len(want))
	}
	// The repaired log must accept and persist new writes.
	extra := durableRow(9999)
	if err := rdb.Put("events", "part-00", extra, All); err != nil {
		t.Fatal(err)
	}
	rdb.Close()
	rdb2, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb2.Close()
	rows, err := rdb2.Get("events", "part-00", Range{From: extra.Key}, All)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Key != extra.Key {
		t.Fatalf("write after torn-tail repair did not survive reopen: %+v", rows)
	}
}

// TestTolerateCorruptTailReachable pins the operator escape hatch: a
// durable cluster whose newest commitlog segment has mid-segment damage
// (bad record followed by valid ones) refuses to open by default, and
// Config.WALTolerateCorruptTail must reach wal.Options so the same
// directory can be reopened with the tail truncated at the damage.
func TestTolerateCorruptTailReachable(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDurable(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	fillDurable(t, db, "events", 2, 8)
	db.Close()
	// Flip a payload byte in the first record of every node's newest WAL
	// segment that holds records (header 16 + frame 8).
	damaged := 0
	walFiles, err := filepath.Glob(filepath.Join(dir, "node-*", "wal", "*.log"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range walFiles {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 16+8+8 {
			continue
		}
		data[16+8] ^= 0xff
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		damaged++
	}
	if damaged == 0 {
		t.Fatal("no WAL segment with records to damage")
	}
	if db2, err := OpenDurable(durableCfg(dir)); err == nil {
		db2.Close()
		t.Fatal("OpenDurable succeeded on mid-segment WAL corruption, want refusal")
	}
	cfg := durableCfg(dir)
	cfg.WALTolerateCorruptTail = true
	db3, err := OpenDurable(cfg)
	if err != nil {
		t.Fatalf("OpenDurable with WALTolerateCorruptTail: %v", err)
	}
	defer db3.Close()
	if st := db3.StorageStats(); st.TornBytes == 0 {
		t.Fatal("expected TornBytes > 0 after tolerated truncation")
	}
}
