package objstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func testEntry(seq uint64) ManifestEntry {
	e := ManifestEntry{
		Seq:       seq,
		Key:       "node-0/segments/seg.bin",
		Size:      4096,
		DataLen:   3800,
		Rows:      120,
		Table:     "events",
		Partition: "p-7",
	}
	e.Root = HashBlock([]byte{byte(seq)})
	return e
}

func TestManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "TIER")
	m, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 0 {
		t.Fatalf("fresh manifest has %d entries", m.Len())
	}
	for _, seq := range []uint64{5, 2, 9} {
		if err := m.Put(testEntry(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Remove(2); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove(2); err != nil { // idempotent
		t.Fatal(err)
	}

	re, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	got := re.Entries()
	if len(got) != 2 || got[0].Seq != 5 || got[1].Seq != 9 {
		t.Fatalf("reloaded entries: %+v", got)
	}
	if got[0] != testEntry(5) {
		t.Fatalf("entry 5 mutated across save/load: %+v", got[0])
	}
	if re.MaxSeq() != 9 {
		t.Fatalf("MaxSeq = %d", re.MaxSeq())
	}
	if _, ok := re.Get(2); ok {
		t.Fatal("removed entry survived reload")
	}
}

// TestManifestPutBatch records several entries with one Put: a reload
// shows every one of them.
func TestManifestPutBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "TIER")
	m, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Put(testEntry(1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Put(testEntry(4), testEntry(2), testEntry(3)); err != nil {
		t.Fatal(err)
	}
	if err := m.Put(); err != nil { // an empty batch writes nothing
		t.Fatal(err)
	}
	re, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	got := re.Entries()
	if len(got) != 4 {
		t.Fatalf("reloaded %d entries, want 4: %+v", len(got), got)
	}
	for i, e := range got {
		if e != testEntry(uint64(i+1)) {
			t.Fatalf("entry %d after reload: %+v", i+1, e)
		}
	}
}

// TestManifestPutBatchAllOrNothing fails a batch save by replacing the
// manifest's parent directory with a regular file: none of the batch may
// stay in memory, and the earlier entries stay in memory and on disk.
func TestManifestPutBatchAllOrNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "seg")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "TIER")
	m, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Put(testEntry(1), testEntry(2)); err != nil {
		t.Fatal(err)
	}
	moved := dir + ".moved"
	if err := os.Rename(dir, moved); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := m.Put(testEntry(2), testEntry(3)); err == nil {
		t.Fatal("Put succeeded with its directory replaced by a file")
	}
	got := m.Entries()
	if len(got) != 2 || got[0] != testEntry(1) || got[1] != testEntry(2) {
		t.Fatalf("in-memory entries after a failed batch: %+v", got)
	}
	if m.MaxSeq() != 2 {
		t.Fatalf("MaxSeq after a failed batch = %d, want 2", m.MaxSeq())
	}
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(moved, dir); err != nil {
		t.Fatal(err)
	}
	re, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := re.Entries(); len(got) != 2 || got[0] != testEntry(1) || got[1] != testEntry(2) {
		t.Fatalf("on-disk entries after a failed batch: %+v", got)
	}
}

func TestManifestRejectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "TIER")
	m, _ := LoadManifest(path)
	if err := m.Put(testEntry(1)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle: the CRC must catch it.
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("want ErrBadManifest, got %v", err)
	}
}

func TestDecodeManifestHostile(t *testing.T) {
	good := EncodeManifest([]ManifestEntry{testEntry(1), testEntry(2)})
	cases := [][]byte{
		nil,
		[]byte("HPTIERM1"),
		[]byte("XXTIERM1\x00\x00\x00\x00"),
		good[:len(good)-5],                      // torn tail
		append(append([]byte{}, good...), 0x00), // appended garbage breaks CRC
	}
	for i, c := range cases {
		if _, err := DecodeManifest(c); !errors.Is(err, ErrBadManifest) {
			t.Fatalf("case %d: want ErrBadManifest, got %v", i, err)
		}
	}
}

func FuzzDecodeManifest(f *testing.F) {
	f.Add(EncodeManifest(nil))
	f.Add(EncodeManifest([]ManifestEntry{testEntry(1)}))
	f.Add(EncodeManifest([]ManifestEntry{testEntry(1), testEntry(7), testEntry(42)}))
	f.Add([]byte("HPTIERM1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := DecodeManifest(data) // must never panic
		if err != nil {
			if !errors.Is(err, ErrBadManifest) {
				t.Fatalf("non-typed decode error: %v", err)
			}
			return
		}
		// Anything that decodes must re-encode canonically.
		if !bytes.Equal(EncodeManifest(entries), data) {
			t.Fatal("decode/encode not canonical")
		}
	})
}
