package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"hpclog/client"
	"hpclog/internal/compute"
	"hpclog/internal/dist"
	"hpclog/internal/ingest"
	"hpclog/internal/model"
	"hpclog/internal/objstore"
	"hpclog/internal/query"
	"hpclog/internal/server"
	"hpclog/internal/store"
	"hpclog/internal/topology"
)

// Deployment sizing. The single-process store mirrors ingestd's layout
// scaled to a small host: 8 store nodes with a compute worker each, RF=3,
// durable with per-ack group-commit fsync (store.Config's default sync
// mode, which ingestd uses unless -wal-nosync is given).
const (
	storeNodes   = 8
	storeRF      = 3
	computeSlots = 2
	// tierCacheBytes is the archive block-cache budget; setup checks it
	// is smaller than the sealed segment bytes the mix reads.
	tierCacheBytes = 512 << 10
	// clusterMembers and clusterRF shape the live cluster: RF=2 of 3 so
	// about a third of single-replica reads land on a remote member.
	clusterMembers = 3
	clusterRF      = 2
)

// loadStats describes one bulk load at set-up.
type loadStats struct {
	parse       ingest.BatchResult
	jobs        ingest.BatchResult
	loadTime    time.Duration // parse, load, flush and compact
	compactTime time.Duration // the compaction at the end of the load
	sweepTime   time.Duration // archive only: TierSweep(force)
	walBytes    int64         // commitlog bytes the load wrote
	diskBytes   int64         // sealed segment bytes after compaction
	rawBytes    int64
	events      int   // events loaded (parsed lines)
	uploadedB   int64 // archive only: bytes the sweep uploaded
}

// single is one in-process analytic server over a durable store,
// listening on loopback.
type single struct {
	db   *store.DB
	comp *compute.Engine
	q    *query.Engine
	srv  *server.Server
	hs   *http.Server
	url  string
	dir  string
}

// openSingle opens an empty durable store under dir, tiered when tier is
// true, and bootstraps the data model.
func openSingle(dir string, tier bool) (*single, error) {
	cfg := store.Config{Nodes: storeNodes, RF: storeRF, Dir: filepath.Join(dir, "data")}
	if tier {
		cfg.Tier = objstore.Config{Backend: "fs", Dir: filepath.Join(dir, "objects"), CacheBytes: tierCacheBytes}
	}
	db, err := store.OpenDurable(cfg)
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	if err := ingest.Bootstrap(db, corpusCabinets*topology.NodesPerCabinet); err != nil {
		db.Close()
		return nil, fmt.Errorf("bootstrap: %w", err)
	}
	comp := compute.NewEngine(compute.Config{Workers: db.NodeIDs(), Threads: computeSlots})
	return &single{db: db, comp: comp, dir: dir}, nil
}

// load bulk-loads c through the parallel ETL path, refreshes the
// synopsis, and compacts every partition to one sealed segment.
func (s *single) load(c *corpus) (loadStats, error) {
	st := loadStats{rawBytes: c.rawBytes}
	walBefore := s.db.StorageStats().WALBytes
	started := time.Now()
	nparts := len(s.comp.Workers())
	res, err := ingest.BatchImport(s.comp, s.db, c.lines, store.Quorum, nparts)
	if err != nil {
		return st, fmt.Errorf("batch import: %w", err)
	}
	jres, err := ingest.BatchImportJobs(s.comp, s.db, c.jobLines, store.Quorum, nparts)
	if err != nil {
		return st, fmt.Errorf("batch import jobs: %w", err)
	}
	st.parse, st.jobs, st.events = res, jres, res.EventsLoaded
	if err := ingest.RefreshSynopsis(s.comp, s.db, model.HoursIn(c.start, c.end), store.Quorum); err != nil {
		return st, fmt.Errorf("refresh synopsis: %w", err)
	}
	compactStart := time.Now()
	if _, err := s.db.Compact(); err != nil {
		return st, fmt.Errorf("compact: %w", err)
	}
	st.compactTime = time.Since(compactStart)
	st.loadTime = time.Since(started)
	ss := s.db.StorageStats()
	st.diskBytes, st.walBytes = ss.DiskBytes, ss.WALBytes-walBefore
	return st, nil
}

// sweep evicts every sealed segment to the object tier.
func (s *single) sweep(st *loadStats) error {
	started := time.Now()
	if _, _, err := s.db.TierSweep(true); err != nil {
		return fmt.Errorf("tier sweep: %w", err)
	}
	st.sweepTime = time.Since(started)
	ss := s.db.StorageStats()
	if ss.Tier != nil {
		st.uploadedB = ss.Tier.UploadedBytes
	}
	if ss.DiskSegments != ss.TieredSegments || ss.TieredSegments == 0 {
		return fmt.Errorf("tier sweep left %d of %d segments resident", ss.DiskSegments-ss.TieredSegments, ss.DiskSegments)
	}
	return nil
}

// serve starts the query engine (default 256-entry result cache) and the
// v1 server on a loopback port.
func (s *single) serve() error {
	s.q = query.NewWithOptions(s.db, s.comp, query.Options{})
	s.srv = server.NewWithConfig(s.q, s.db, s.comp, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.hs = &http.Server{Handler: s.srv}
	go s.hs.Serve(ln)
	s.url = "http://" + ln.Addr().String()
	return nil
}

func (s *single) close() error {
	var errs []error
	if s.srv != nil {
		s.srv.Close()
	}
	if s.hs != nil {
		errs = append(errs, s.hs.Close())
	}
	errs = append(errs, s.db.Close(), os.RemoveAll(s.dir))
	return errors.Join(errs...)
}

// cluster is an in-process replicated cluster in the hpclogd shape: one
// dist.Node per member, each durable with per-ack group commit and
// serving its own loopback listener.
type cluster struct {
	nodes []*dist.Node
	hs    []*http.Server
	urls  []string
	dir   string
}

func openCluster(dir string) (*cluster, error) {
	lns := make([]net.Listener, clusterMembers)
	ids := make([]string, clusterMembers)
	c := &cluster{dir: dir, urls: make([]string, clusterMembers)}
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		ids[i] = fmt.Sprintf("n%d", i)
		c.urls[i] = "http://" + ln.Addr().String()
	}
	for i := range lns {
		peers := make(map[string]string, clusterMembers-1)
		for j := range lns {
			if j != i {
				peers[ids[j]] = c.urls[j]
			}
		}
		node, err := dist.Open(dist.Config{
			ID:                ids[i],
			AdvertiseURL:      c.urls[i],
			Peers:             peers,
			RF:                clusterRF,
			VNodes:            32,
			DataDir:           filepath.Join(dir, ids[i]),
			MachineNodes:      corpusCabinets * topology.NodesPerCabinet,
			Threads:           computeSlots,
			HeartbeatInterval: 100 * time.Millisecond,
			// A small memtable makes the run's writes flush and compact
			// several times within one measured phase.
			FlushThreshold: 128,
		})
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			c.close()
			return nil, err
		}
		hs := &http.Server{Handler: node.Server}
		go hs.Serve(lns[i])
		c.nodes = append(c.nodes, node)
		c.hs = append(c.hs, hs)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !c.allUp() {
		if time.Now().After(deadline) {
			c.close()
			return nil, errors.New("cluster never saw every member up")
		}
		time.Sleep(20 * time.Millisecond)
	}
	return c, nil
}

func (c *cluster) allUp() bool {
	for _, n := range c.nodes {
		for _, m := range n.Status().Members {
			if !m.Up {
				return false
			}
		}
	}
	return true
}

func (c *cluster) close() error {
	var errs []error
	for _, hs := range c.hs {
		errs = append(errs, hs.Close())
	}
	for _, n := range c.nodes {
		errs = append(errs, n.Close())
	}
	errs = append(errs, os.RemoveAll(c.dir))
	return errors.Join(errs...)
}

// newClient returns an SDK client that holds at most one connection and
// never retries: a failed or refused request must be counted, not
// silently re-sent.
func newClient(url string) *client.Client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return client.New(url, client.WithRetries(0), client.WithHTTPClient(&http.Client{Transport: tr}))
}

// scrape fetches /v1/metrics through the SDK on a connection of its own,
// closed again so the load's connection count stays as stated.
func scrape(ctx context.Context, url string) (metricSet, error) {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	text, err := client.New(url, client.WithRetries(0), client.WithHTTPClient(&http.Client{Transport: tr})).MetricsText(ctx)
	if err != nil {
		return nil, err
	}
	return parseMetrics(text)
}
