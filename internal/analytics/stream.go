package analytics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"hpclog/internal/compute"
	"hpclog/internal/model"
	"hpclog/internal/store"
	"hpclog/internal/topology"
)

// This file is the streaming execution path for the big-data
// aggregations: events are scanned per ring partition (further split into
// clustering-key time slices for parallelism beyond the hour-partition
// count) through store.RowIter, fanned out on the compute scan planner,
// and folded into small per-task accumulators that are merged in task
// order, so memory stays proportional to aggregation state and
// throughput scales with GOMAXPROCS. Reads that return events rather
// than fold them go through ScanEvents (events.go).

// ScanConfig parameterizes the streaming scan path.
type ScanConfig struct {
	// Parallelism bounds concurrent scan tasks; <= 0 means GOMAXPROCS.
	Parallelism int
	// Slice is the clustering-key time-slice width used to split one hour
	// partition into multiple fold tasks; <= 0 means 15 minutes. Slicing
	// never changes results, only the available parallelism. ScanEvents
	// runs one task per hour and ignores it.
	Slice time.Duration
}

func (c ScanConfig) opts() compute.ScanOptions {
	return compute.ScanOptions{Parallelism: c.Parallelism}
}

func (c ScanConfig) slice() time.Duration {
	if c.Slice <= 0 {
		return 15 * time.Minute
	}
	if c.Slice < time.Second {
		return time.Second
	}
	return c.Slice
}

// sliceBounds splits [lo, hi) at absolute multiples of slice, so the same
// window is always cut the same way regardless of where it starts.
func sliceBounds(lo, hi time.Time, slice time.Duration) [][2]time.Time {
	step := int64(slice / time.Second)
	var out [][2]time.Time
	for cur := lo.Unix(); cur < hi.Unix(); {
		next := (cur/step + 1) * step
		if next > hi.Unix() {
			next = hi.Unix()
		}
		out = append(out, [2]time.Time{time.Unix(cur, 0).UTC(), time.Unix(next, 0).UTC()})
		cur = next
	}
	return out
}

// hourWindow clips [from, to) to hour bucket h.
func hourWindow(h int64, from, to time.Time) (time.Time, time.Time) {
	lo, hi := time.Unix(h*3600, 0).UTC(), time.Unix((h+1)*3600, 0).UTC()
	if from.After(lo) {
		lo = from
	}
	if to.Before(hi) {
		hi = to
	}
	return lo, hi
}

// typeScanTasks plans the fold tasks over one event type's
// event_by_time partitions in [from, to): one task per (hour, slice).
// Rows decode attrs-free: the folds only touch time/source/count/raw, so
// decoding skips the per-event Attrs map entirely. Folds need no order,
// so unlike ScanEvents these tasks never merge partitions.
func typeScanTasks(db *store.DB, typ model.EventType, from, to time.Time, slice time.Duration) []compute.ScanTask[model.Event] {
	var tasks []compute.ScanTask[model.Event]
	for _, hour := range model.HoursIn(from, to) {
		lo, hi := hourWindow(hour, from, to)
		if !hi.After(lo) {
			continue
		}
		pkey := model.EventByTimeKey(hour, typ)
		for _, b := range sliceBounds(lo, hi, slice) {
			rg := model.EventTimeRange(b[0], b[1])
			tasks = append(tasks, compute.ScanTask[model.Event]{
				Index: len(tasks),
				Run: func(yield func(model.Event) error) error {
					it, err := db.ScanPartition(model.TableEventByTime, pkey, rg, store.One)
					if err != nil {
						return err
					}
					defer it.Close()
					for {
						r, ok := it.Next()
						if !ok {
							return it.Err()
						}
						e, err := model.EventFromTimeRowLite(pkey, r)
						if err != nil {
							return err
						}
						if err := yield(e); err != nil {
							return err
						}
					}
				},
			})
		}
	}
	return tasks
}

// foldEvents runs tasks through ScanReduce with a map-free generic fold.
func foldEvents[A any](eng *compute.Engine, cfg ScanConfig, tasks []compute.ScanTask[model.Event],
	newAcc func() A, fold func(A, model.Event) A, merge func(A, A) A) (A, error) {
	return compute.ScanReduce(eng, cfg.opts(), tasks, newAcc, fold, merge)
}

func newCountMap[K comparable]() map[K]int { return make(map[K]int) }

func mergeCountMaps[K comparable](a, b map[K]int) map[K]int {
	for k, v := range b {
		a[k] += v
	}
	return a
}

// --- Streaming aggregations ---

// HeatmapScan computes the cabinet heat map on the streaming scan path.
func HeatmapScan(eng *compute.Engine, db *store.DB, typ model.EventType, from, to time.Time, cfg ScanConfig) (*HeatMap, error) {
	counts, err := foldEvents(eng, cfg, typeScanTasks(db, typ, from, to, cfg.slice()),
		newCountMap[int],
		func(acc map[int]int, e model.Event) map[int]int {
			loc, err := topology.ParseCName(e.Source)
			if err != nil {
				acc[-1] += e.Count
			} else {
				acc[loc.Cabinet()] += e.Count
			}
			return acc
		},
		mergeCountMaps[int])
	if err != nil {
		return nil, err
	}
	hm := &HeatMap{Type: typ, From: from, To: to}
	for cab, n := range counts {
		if cab < 0 || cab >= topology.Cabinets {
			continue // non-compute sources (servers) have no floor position
		}
		r, c := cab/topology.Cols, cab%topology.Cols
		hm.Counts[r][c] = n
		hm.Total += n
		if n > hm.Max {
			hm.Max = n
		}
	}
	return hm, nil
}

// DistributionByScan computes occurrence distributions at a topology level
// on the streaming scan path.
func DistributionByScan(eng *compute.Engine, db *store.DB, typ model.EventType, from, to time.Time, level topology.Level, cfg ScanConfig) ([]Bucket, error) {
	counts, err := foldEvents(eng, cfg, typeScanTasks(db, typ, from, to, cfg.slice()),
		newCountMap[string],
		func(acc map[string]int, e model.Event) map[string]int {
			loc, err := topology.ParseCName(e.Source)
			if err != nil {
				// Non-cname sources key the result map directly; clone so
				// the map never pins a decoded segment block.
				countKey(acc, e.Source, e.Count)
			} else {
				comp := topology.Component{Level: level, Loc: truncateLoc(loc, level)}
				acc[comp.String()] += e.Count
			}
			return acc
		},
		mergeCountMaps[string])
	if err != nil {
		return nil, err
	}
	return sortBuckets(counts), nil
}

// DistributionByAppScan attributes occurrences to running applications on
// the streaming scan path.
func DistributionByAppScan(eng *compute.Engine, db *store.DB, typ model.EventType, from, to time.Time, cfg ScanConfig) ([]Bucket, error) {
	runs, err := RunsIn(db, from, to, 24*time.Hour)
	if err != nil {
		return nil, err
	}
	type span struct {
		start, end time.Time
		app        string
	}
	byNode := make(map[string][]span)
	for _, r := range runs {
		for _, n := range r.Nodes {
			byNode[n] = append(byNode[n], span{r.Start, r.End, r.App})
		}
	}
	counts, err := foldEvents(eng, cfg, typeScanTasks(db, typ, from, to, cfg.slice()),
		newCountMap[string],
		func(acc map[string]int, e model.Event) map[string]int {
			for _, s := range byNode[e.Source] {
				if !e.Time.Before(s.start) && e.Time.Before(s.end) {
					acc[s.app] += e.Count
					return acc
				}
			}
			acc["(idle)"] += e.Count
			return acc
		},
		mergeCountMaps[string])
	if err != nil {
		return nil, err
	}
	return sortBuckets(counts), nil
}

// EventSitesScan lists reporting nodes for one type and instant on the
// streaming scan path.
func EventSitesScan(eng *compute.Engine, db *store.DB, typ model.EventType, at time.Time, cfg ScanConfig) (map[string]int, error) {
	return foldEvents(eng, cfg, typeScanTasks(db, typ, at, at.Add(time.Second), cfg.slice()),
		newCountMap[string],
		func(acc map[string]int, e model.Event) map[string]int {
			// e.Source may be a zero-copy substring of a segment block; the
			// result map outlives the scan, so clone new keys.
			countKey(acc, e.Source, e.Count)
			return acc
		},
		mergeCountMaps[string])
}

// countKey adds n to acc[key], cloning key on first insert so long-lived
// result maps never pin decoded segment blocks through substring keys.
func countKey(acc map[string]int, key string, n int) {
	if v, ok := acc[key]; ok {
		acc[key] = v + n
	} else {
		acc[strings.Clone(key)] = n
	}
}

// HistogramScan bins occurrences on the streaming scan path.
func HistogramScan(eng *compute.Engine, db *store.DB, typ model.EventType, from, to time.Time, bin time.Duration, cfg ScanConfig) ([]int, error) {
	if bin <= 0 {
		return nil, fmt.Errorf("analytics: non-positive bin %v", bin)
	}
	nbins := int(to.Sub(from) / bin)
	if nbins < 1 {
		return nil, fmt.Errorf("analytics: window %v shorter than bin %v", to.Sub(from), bin)
	}
	return foldEvents(eng, cfg, typeScanTasks(db, typ, from, to, cfg.slice()),
		func() []int { return make([]int, nbins) },
		func(acc []int, e model.Event) []int {
			b := int(e.Time.Sub(from) / bin)
			if b >= nbins {
				b = nbins - 1
			}
			if b >= 0 {
				acc[b] += e.Count
			}
			return acc
		},
		func(a, b []int) []int {
			for i, v := range b {
				a[i] += v
			}
			return a
		})
}

// BuildSeriesScan builds a binned series on the streaming scan path.
func BuildSeriesScan(eng *compute.Engine, db *store.DB, typ model.EventType, from, to time.Time, bin time.Duration, cfg ScanConfig) (*Series, error) {
	hist, err := HistogramScan(eng, db, typ, from, to, bin, cfg)
	if err != nil {
		return nil, err
	}
	return &Series{Type: typ, From: from, Bin: bin, Counts: hist}, nil
}

// TransferEntropyBetweenScan measures bidirectional transfer entropy with
// both series built on the streaming scan path.
func TransferEntropyBetweenScan(eng *compute.Engine, db *store.DB, a, b model.EventType, from, to time.Time, bin time.Duration, cfg ScanConfig) (TEResult, error) {
	sa, err := BuildSeriesScan(eng, db, a, from, to, bin, cfg)
	if err != nil {
		return TEResult{}, err
	}
	sb, err := BuildSeriesScan(eng, db, b, from, to, bin, cfg)
	if err != nil {
		return TEResult{}, err
	}
	x, y := sa.Binary(), sb.Binary()
	xy, err := TransferEntropy(x, y)
	if err != nil {
		return TEResult{}, err
	}
	yx, err := TransferEntropy(y, x)
	if err != nil {
		return TEResult{}, err
	}
	return TEResult{XToY: xy, YToX: yx}, nil
}

// WordCountScan runs the classic word count over raw messages of one type
// on the streaming scan path — "a simple word counts, which is rapidly
// executed by Spark, can locate the source of the problem". Each stored
// message is one document; events without raw text are skipped.
func WordCountScan(eng *compute.Engine, db *store.DB, typ model.EventType, from, to time.Time, cfg ScanConfig) (map[string]int, error) {
	return foldEvents(eng, cfg, typeScanTasks(db, typ, from, to, cfg.slice()),
		newCountMap[string],
		func(acc map[string]int, e model.Event) map[string]int {
			if e.Raw == "" {
				return acc
			}
			EachToken(e.Raw, func(tok string) {
				// Clone only new vocabulary: zero-copy tokens are substrings
				// of the stored message, and map keys outlive the scan.
				if n, ok := acc[tok]; ok {
					acc[tok] = n + 1
				} else {
					acc[strings.Clone(tok)] = 1
				}
			})
			return acc
		},
		mergeCountMaps[string])
}

// tfidfAcc carries term/document frequencies plus the document count.
// seen is a per-document scratch set, cleared and reused between documents
// so each document costs map inserts, not a map allocation.
type tfidfAcc struct {
	tf, df map[string]int
	docs   int
	seen   map[string]bool
}

// TFIDFScan computes aggregate TF-IDF weights over raw messages of one
// type on the streaming scan path. Each message is a document; term
// frequency is summed across documents and weighted by inverse document
// frequency, so boilerplate shared by every message scores near zero
// while discriminating identifiers (an unresponsive OST, an error code)
// float to the top. Document frequency is counted once per document, so
// the result is independent of how the scan is partitioned. Results are
// sorted by descending score.
func TFIDFScan(eng *compute.Engine, db *store.DB, typ model.EventType, from, to time.Time, cfg ScanConfig) ([]TermScore, error) {
	acc, err := foldEvents(eng, cfg, typeScanTasks(db, typ, from, to, cfg.slice()),
		func() *tfidfAcc {
			return &tfidfAcc{tf: make(map[string]int), df: make(map[string]int), seen: make(map[string]bool)}
		},
		func(a *tfidfAcc, e model.Event) *tfidfAcc {
			if e.Raw == "" {
				return a
			}
			a.docs++
			clear(a.seen)
			EachToken(e.Raw, func(tok string) {
				// tf and df share one vocabulary, so cloning on a tf miss
				// guarantees every retained key is a canonical copy, never a
				// substring pinning the stored message.
				if n, ok := a.tf[tok]; ok {
					a.tf[tok] = n + 1
				} else {
					tok = strings.Clone(tok)
					a.tf[tok] = 1
				}
				if !a.seen[tok] {
					a.seen[tok] = true
					a.df[tok]++
				}
			})
			return a
		},
		func(a, b *tfidfAcc) *tfidfAcc {
			for k, v := range b.tf {
				a.tf[k] += v
			}
			for k, v := range b.df {
				a.df[k] += v
			}
			a.docs += b.docs
			return a
		})
	if err != nil {
		return nil, err
	}
	if acc.docs == 0 {
		return nil, nil
	}
	out := make([]TermScore, 0, len(acc.tf))
	for term, tf := range acc.tf {
		idf := math.Log(float64(1+acc.docs) / float64(1+acc.df[term]))
		out = append(out, TermScore{Term: term, Score: float64(tf) * idf})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Term < out[j].Term
	})
	return out, nil
}
