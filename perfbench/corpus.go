package main

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"time"

	"hpclog/internal/logs"
	"hpclog/internal/model"
	"hpclog/internal/topology"
)

// Corpus shape shared by every workload. Only logs.Config.Seed varies
// between runs, so two seeds give corpora of the same size and structure
// with different events.
const (
	corpusHours    = 4
	corpusCabinets = 2
	// stormPerSec scales the Lustre storm so the storm hour dominates one
	// partition the way Fig 7's incident does, at a size a two-core host
	// loads in a few seconds. (Set-up cost grows with the number of
	// partitions: every one is a sealed, fsynced segment per replica.)
	stormPerSec = 30
	// The storm starts stormOffset into the corpus and lasts stormLength
	// (logs.DefaultConfig's length).
	stormOffset = 3 * time.Hour
	stormLength = 5 * time.Minute
)

// corpusConfig returns the generator configuration for a seed, starting
// at start. One hotspot sits in each simulated cabinet, at rates that keep
// them hot without touching every node in every hour.
func corpusConfig(seed int64, start time.Time, hours int) logs.Config {
	cfg := logs.DefaultConfig()
	cfg.Seed = seed
	cfg.Start = start
	cfg.Duration = time.Duration(hours) * time.Hour
	cfg.Nodes = corpusCabinets * topology.NodesPerCabinet
	cfg.Hotspots = []logs.Hotspot{
		{Component: topology.CabinetAt(0, 0), Type: model.MCE, Multiplier: 10},
		{Component: topology.CabinetAt(0, 1), Type: model.MemECC, Multiplier: 8},
	}
	cfg.Storms[0].Start = start.Add(stormOffset)
	cfg.Storms[0].Duration = stormLength
	cfg.Storms[0].EventsPerSec = stormPerSec
	return cfg
}

// dashboardStart is the fixed start of the sealed corpus that dashboard
// and archive query (logs.DefaultConfig's start).
var dashboardStart = time.Date(2017, 8, 23, 6, 0, 0, 0, time.UTC)

// corpus is a generated corpus plus the raw lines the loader receives.
type corpus struct {
	gen      *logs.Corpus
	lines    []string
	jobLines []string
	rawBytes int64
	start    time.Time
	end      time.Time
}

func newCorpus(cfg logs.Config) *corpus {
	gen := logs.Generate(cfg)
	c := &corpus{gen: gen, start: cfg.Start, end: cfg.Start.Add(cfg.Duration)}
	c.lines = make([]string, len(gen.Lines))
	for i, l := range gen.Lines {
		c.lines[i] = l.Format()
		c.rawBytes += int64(len(c.lines[i])) + 1
	}
	c.jobLines = gen.JobLines
	for _, l := range c.jobLines {
		c.rawBytes += int64(len(l)) + 1
	}
	return c
}

// digest identifies the corpus content: a SHA-256 over every raw line.
func (c *corpus) digest() string {
	h := sha256.New()
	for _, l := range c.lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	for _, l := range c.jobLines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// eventKey is the identity the store gives an event: event_by_time keys
// a row by (hour, type) partition and (timestamp, source) clustering key,
// so generated events that share all four collapse into one row.
type eventKey struct {
	ts     int64
	typ    model.EventType
	source string
}

// truth answers ground-truth questions about what the store must hold.
type truth struct {
	byType map[model.EventType][]eventKey // distinct, sorted by (ts, source)
}

func newTruth(events []model.Event) *truth {
	seen := make(map[eventKey]bool, len(events))
	t := &truth{byType: make(map[model.EventType][]eventKey)}
	for _, e := range events {
		k := eventKey{ts: e.Time.Unix(), typ: e.Type, source: e.Source}
		if seen[k] {
			continue
		}
		seen[k] = true
		t.byType[e.Type] = append(t.byType[e.Type], k)
	}
	for _, ks := range t.byType {
		sort.Slice(ks, func(i, j int) bool {
			if ks[i].ts != ks[j].ts {
				return ks[i].ts < ks[j].ts
			}
			return ks[i].source < ks[j].source
		})
	}
	return t
}

// window returns the distinct events of typ with from <= ts < to.
func (t *truth) window(typ model.EventType, from, to int64) []eventKey {
	ks := t.byType[typ]
	lo := sort.Search(len(ks), func(i int) bool { return ks[i].ts >= from })
	hi := sort.Search(len(ks), func(i int) bool { return ks[i].ts >= to })
	return ks[lo:hi]
}

// heatmap returns the per-cabinet counts and total of typ in [from, to).
func (t *truth) heatmap(typ model.EventType, from, to int64) (counts [topology.Rows][topology.Cols]int, total int, err error) {
	for _, k := range t.window(typ, from, to) {
		loc, perr := topology.ParseCName(k.source)
		if perr != nil {
			return counts, 0, perr
		}
		counts[loc.Row][loc.Col]++
		total++
	}
	return counts, total, nil
}
