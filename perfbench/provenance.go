package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// provenance describes where and from what a result came. Results whose
// host_id differs were measured on different hosts and are not
// comparable: the benchmark's figures are this host's, not a device's.
func provenance(cfg runConfig) map[string]any {
	cpu := cpuModel()
	host := sha256.Sum256([]byte(strings.Join([]string{
		cpu, strconv.Itoa(runtime.NumCPU()), strconv.Itoa(runtime.GOMAXPROCS(0)), runtime.Version(), runtime.GOOS, runtime.GOARCH,
	}, "|")))
	return map[string]any{
		"seed":          cfg.seed,
		"cpu_model":     cpu,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"git_commit":    gitCommit,
		"source_digest": sourceDigest(cfg.root),
		"host_id":       hex.EncodeToString(host[:6]),
		"comparable":    "only with results carrying the same host_id",
	}
}

// cpuModel reads the processor model the kernel reports; "unknown" where
// it is not available.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under root, so a
// result can be tied to the code it measured when the checkout carries no
// git metadata. Hidden directories (.git, .bench_build) are skipped.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		if f, err := os.Open(p); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
