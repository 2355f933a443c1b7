package objstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Manifest is the per-node record of segments that live in the object
// store: which local sequence number maps to which object key, how big
// the object is, and the Merkle root it must verify against. It is the
// tiering crash-safety anchor — an entry is written (tmp + rename + dir
// fsync) only after the object is uploaded AND read back verified, and
// the local data file is released only after the entry is durable. So:
//
//   - a crash mid-upload leaves no entry: recovery sees the local file
//     as the only copy and the next sweep re-uploads;
//   - a crash mid-eviction (entry durable, local file still present)
//     re-adopts the local file and remembers the upload — the next
//     eviction needs no second transfer;
//   - an entry with no local file is an evicted segment: reads go
//     through the object store, verified against Root.
//
// The manifest NEVER references a half-uploaded object (the upload is
// verified before the entry is written), which the crash harness
// asserts directly.
type Manifest struct {
	path string

	mu      sync.Mutex
	entries map[uint64]ManifestEntry
}

// ManifestEntry describes one uploaded segment.
type ManifestEntry struct {
	Seq       uint64
	Key       string // object key
	Size      int64  // full object (segment file) size
	DataLen   int64  // end of the data region within the object
	Rows      int64
	Table     string
	Partition string
	Root      [HashLen]byte // Merkle root over the segment's blocks
}

// ErrBadManifest marks a manifest encoding that cannot be decoded.
// Hostile or torn input yields it (never a panic); see
// FuzzDecodeManifest.
var ErrBadManifest = errors.New("objstore: malformed tier manifest")

const (
	manifestMagic = "HPTIERM1"
	// manifestTempExt matches the segment store's atomic-write discipline.
	manifestTempExt = ".tmp"
	// maxManifestEntries bounds decode allocation against hostile counts.
	maxManifestEntries = 1 << 24
)

// LoadManifest opens the manifest at path; a missing file is an empty
// manifest (the node has uploaded nothing yet).
func LoadManifest(path string) (*Manifest, error) {
	m := &Manifest{path: path, entries: make(map[uint64]ManifestEntry)}
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return m, nil
		}
		return nil, err
	}
	entries, err := DecodeManifest(data)
	if err != nil {
		return nil, fmt.Errorf("objstore: %s: %w", path, err)
	}
	for _, e := range entries {
		m.entries[e.Seq] = e
	}
	return m, nil
}

// Path returns the manifest's file path.
func (m *Manifest) Path() string { return m.path }

// Get returns the entry for seq.
func (m *Manifest) Get(seq uint64) (ManifestEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[seq]
	return e, ok
}

// Entries returns every entry, sorted by Seq.
func (m *Manifest) Entries() []ManifestEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]ManifestEntry, 0, len(m.entries))
	for _, e := range m.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Len returns the entry count.
func (m *Manifest) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// MaxSeq returns the largest recorded sequence number (0 when empty) —
// recovery seeds the store's sequence counter past it so an evicted
// segment's number is never reissued to a new file.
func (m *Manifest) MaxSeq() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var max uint64
	for seq := range m.entries {
		if seq > max {
			max = seq
		}
	}
	return max
}

// Put durably records es with one manifest write, replacing any previous
// entries for the same Seqs. All or nothing: when the save fails, the
// in-memory entries roll back and the file on disk keeps its old
// contents.
func (m *Manifest) Put(es ...ManifestEntry) error {
	if len(es) == 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	prev := maps.Clone(m.entries)
	for _, e := range es {
		m.entries[e.Seq] = e
	}
	if err := m.saveLocked(); err != nil {
		m.entries = prev
		return err
	}
	return nil
}

// Remove durably drops the entry for seq. Removing an absent seq is a
// no-op.
func (m *Manifest) Remove(seq uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	prev, had := m.entries[seq]
	if !had {
		return nil
	}
	delete(m.entries, seq)
	if err := m.saveLocked(); err != nil {
		m.entries[seq] = prev
		return err
	}
	return nil
}

// saveLocked writes the manifest atomically: tmp file, fsync, rename,
// directory fsync — a crash leaves either the old or the new manifest,
// never a torn one (the trailing CRC catches torn writes from filesystems
// without atomic rename anyway).
func (m *Manifest) saveLocked() error {
	entries := make([]ManifestEntry, 0, len(m.entries))
	for _, e := range m.entries {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Seq < entries[j].Seq })
	data := EncodeManifest(entries)
	tmp := m.path + manifestTempExt
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, werr := f.Write(data)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return werr
	}
	if err := os.Rename(tmp, m.path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(m.path))
}

var manifestCRC = crc32.MakeTable(crc32.Castagnoli)

// EncodeManifest renders entries to the manifest wire format:
// magic | uvarint count | entries | u32 crc32c(everything before).
func EncodeManifest(entries []ManifestEntry) []byte {
	b := []byte(manifestMagic)
	b = binary.AppendUvarint(b, uint64(len(entries)))
	appendStr := func(s string) {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	for _, e := range entries {
		b = binary.AppendUvarint(b, e.Seq)
		appendStr(e.Key)
		b = binary.AppendUvarint(b, uint64(e.Size))
		b = binary.AppendUvarint(b, uint64(e.DataLen))
		b = binary.AppendUvarint(b, uint64(e.Rows))
		appendStr(e.Table)
		appendStr(e.Partition)
		b = append(b, e.Root[:]...)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, manifestCRC))
}

// DecodeManifest reverses EncodeManifest. Every malformation — bad
// magic, torn tail, CRC mismatch, hostile counts, trailing garbage —
// returns an error wrapping ErrBadManifest, never a panic.
func DecodeManifest(data []byte) ([]ManifestEntry, error) {
	fail := func(what string) ([]ManifestEntry, error) {
		return nil, fmt.Errorf("%w: %s", ErrBadManifest, what)
	}
	if len(data) < len(manifestMagic)+4 {
		return fail("too short")
	}
	if string(data[:len(manifestMagic)]) != manifestMagic {
		return fail("bad magic")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, manifestCRC) != binary.LittleEndian.Uint32(tail) {
		return fail("checksum mismatch")
	}
	b := body[len(manifestMagic):]
	uvarint := func(what string) (uint64, error) {
		v, k := binary.Uvarint(b)
		if k <= 0 {
			return 0, fmt.Errorf("%w: %s", ErrBadManifest, what)
		}
		b = b[k:]
		return v, nil
	}
	str := func(what string) (string, error) {
		n, err := uvarint(what)
		if err != nil {
			return "", err
		}
		if n > uint64(len(b)) {
			return "", fmt.Errorf("%w: %s overruns buffer", ErrBadManifest, what)
		}
		s := string(b[:n])
		b = b[n:]
		return s, nil
	}
	count, err := uvarint("entry count")
	if err != nil {
		return nil, err
	}
	if count > maxManifestEntries {
		return fail("entry count exceeds sanity bound")
	}
	entries := make([]ManifestEntry, 0, min(count, 1024))
	for i := uint64(0); i < count; i++ {
		var e ManifestEntry
		if e.Seq, err = uvarint("seq"); err != nil {
			return nil, err
		}
		if e.Key, err = str("key"); err != nil {
			return nil, err
		}
		size, err := uvarint("size")
		if err != nil {
			return nil, err
		}
		dataLen, err := uvarint("data len")
		if err != nil {
			return nil, err
		}
		rows, err := uvarint("rows")
		if err != nil {
			return nil, err
		}
		if size > 1<<62 || dataLen > size {
			return fail("implausible sizes")
		}
		e.Size, e.DataLen, e.Rows = int64(size), int64(dataLen), int64(rows)
		if e.Table, err = str("table"); err != nil {
			return nil, err
		}
		if e.Partition, err = str("partition"); err != nil {
			return nil, err
		}
		if len(b) < HashLen {
			return fail("root truncated")
		}
		copy(e.Root[:], b)
		b = b[HashLen:]
		if err := validKey(e.Key); err != nil {
			return fail("invalid object key")
		}
		entries = append(entries, e)
	}
	if len(b) != 0 {
		return fail("trailing garbage")
	}
	return entries, nil
}
