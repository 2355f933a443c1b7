package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"hpclog/internal/obs"
)

// metricSet is one /v1/metrics scrape: every sample keyed by its series
// name and labels exactly as exposed (`name{a="b"}`).
type metricSet map[string]float64

// parseMetrics parses Prometheus text exposition.
func parseMetrics(text string) (metricSet, error) {
	ms := metricSet{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: unparseable line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %w", line, err)
		}
		ms[line[:i]] = v
	}
	return ms, nil
}

// merge adds every sample of o into m (summing a cluster's members).
func (m metricSet) merge(o metricSet) {
	for k, v := range o {
		m[k] += v
	}
}

// seriesName splits `name{labels}` into name and the label string.
func seriesName(key string) (string, string) {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i], key[i:]
	}
	return key, ""
}

// sum adds every series of metric name whose labels contain all of the
// given `k="v"` fragments.
func (m metricSet) sum(name string, labels ...string) float64 {
	total := 0.0
	for k, v := range m {
		n, ls := seriesName(k)
		if n != name || !hasAll(ls, labels) {
			continue
		}
		total += v
	}
	return total
}

func hasAll(ls string, labels []string) bool {
	for _, l := range labels {
		if !strings.Contains(ls, l) {
			return false
		}
	}
	return true
}

// delta returns after − before for metric name (see sum).
func delta(before, after metricSet, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}

// histQuantile estimates the q-quantile, in milliseconds, of the samples
// a histogram gained between two scrapes, interpolating linearly inside
// the exposition's `le` buckets. ok is false without minTail samples
// beyond the quantile.
func histQuantile(before, after metricSet, name string, q float64) (v float64, n int64, ok bool) {
	les := map[float64]float64{}
	for k, val := range after {
		sn, ls := seriesName(k)
		if sn != name+"_bucket" {
			continue
		}
		le := labelValue(ls, "le")
		bound := math.Inf(1)
		if le != "+Inf" {
			b, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			bound = b
		}
		les[bound] += val - before[k]
	}
	bounds := make([]float64, 0, len(les))
	for b := range les {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	cum := make([]float64, len(bounds))
	for i, b := range bounds {
		cum[i] = les[b]
	}
	return cumQuantile(bounds, cum, q, 1000)
}

// cumQuantile finds the q-quantile in a cumulative histogram: cum[i]
// samples are <= bounds[i] (bounds in the unit scale to milliseconds).
func cumQuantile(bounds, cum []float64, q, scale float64) (float64, int64, bool) {
	if len(cum) == 0 || cum[len(cum)-1] <= 0 {
		return 0, 0, false
	}
	total := cum[len(cum)-1]
	rank := math.Ceil(q * total)
	prevB, prevC := 0.0, 0.0
	for i, c := range cum {
		if c >= rank {
			b := bounds[i]
			if math.IsInf(b, 1) {
				b = prevB
			}
			frac := 0.0
			if c > prevC {
				frac = (rank - prevC) / (c - prevC)
			}
			return (prevB + frac*(b-prevB)) * scale, int64(total), total-rank >= minTail
		}
		prevB, prevC = bounds[i], c
	}
	return prevB * scale, int64(total), false
}

func labelValue(ls, key string) string {
	i := strings.Index(ls, key+`="`)
	if i < 0 {
		return ""
	}
	rest := ls[i+len(key)+2:]
	if j := strings.IndexByte(rest, '"'); j >= 0 {
		return rest[:j]
	}
	return ""
}

// histLadder is a fine geometric ladder (about 4% steps from 1µs to 60s)
// for reading in-process obs.Hist histograms, whose own buckets are finer.
var histLadder = func() []time.Duration {
	var out []time.Duration
	for d := float64(time.Microsecond); d < float64(time.Minute); d *= 1.04 {
		out = append(out, time.Duration(d))
	}
	return out
}()

// histSnap is a cumulative reading of one or more obs.Hist on histLadder.
type histSnap []float64

func snapHists(hs ...*obs.Hist) histSnap {
	s := make(histSnap, len(histLadder)+1)
	for _, h := range hs {
		for i, b := range histLadder {
			s[i] += float64(h.CumulativeAt(b))
		}
		s[len(histLadder)] += float64(h.Count())
	}
	return s
}

// quantileSince returns the q-quantile in milliseconds of the samples
// recorded between two snapshots.
func quantileSince(before, after histSnap, q float64) (float64, int64, bool) {
	bounds := make([]float64, len(histLadder)+1)
	cum := make([]float64, len(after))
	for i := range after {
		if i < len(histLadder) {
			bounds[i] = float64(histLadder[i])
		} else {
			bounds[i] = math.Inf(1)
		}
		cum[i] = after[i] - before[i]
	}
	return cumQuantile(bounds, cum, q, 1e-6)
}
