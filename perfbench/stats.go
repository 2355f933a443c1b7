package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 needs at least 1000 samples, a p50 at least 20.
const minTail = 10

// percentile returns the nearest-rank q-quantile of xs (sorted in place)
// and whether at least minTail samples lie beyond it.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(xs)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return xs[idx], n-1-idx >= minTail
}

// median of xs (sorted in place); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metric is one reported figure with its unit and the number of samples
// it rests on.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int64   `json:"samples"`
	// Missing marks a percentile withheld for lack of samples; Value is
	// then meaningless.
	Missing bool `json:"missing,omitempty"`
}

// report collects a run's metrics in emission order.
type report struct {
	metrics []metric
}

func (r *report) add(name string, v float64, unit string, n int64) {
	r.metrics = append(r.metrics, metric{Name: name, Value: v, Unit: unit, N: n})
}

// addLatency adds name_p50_ms and name_p99_ms over lat (milliseconds),
// withholding a percentile without minTail samples beyond it.
func (r *report) addLatency(name string, lat []float64) {
	for _, p := range []struct {
		suffix string
		q      float64
	}{{"_p50_ms", 0.50}, {"_p99_ms", 0.99}} {
		v, ok := percentile(lat, p.q)
		r.metrics = append(r.metrics, metric{Name: name + p.suffix, Value: v, Unit: "ms", N: int64(len(lat)), Missing: !ok})
	}
}

func (r *report) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// digest accumulates a SHA-256 over a sequence of answers.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(b []byte) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
	d.h.Write(n[:])
	d.h.Write(b)
}

func (d *digest) hex() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// kindStats summarizes the successful requests' latency per request kind,
// for the result file.
func kindStats(outs []outcome) map[string]map[string]float64 {
	lat := map[string][]float64{}
	for _, o := range outs {
		if o.err == nil {
			lat[o.kind.name] = append(lat[o.kind.name], ms(o.lat))
		}
	}
	out := make(map[string]map[string]float64, len(lat))
	for k, xs := range lat {
		m := map[string]float64{"samples": float64(len(xs))}
		if v, ok := percentile(xs, 0.5); ok {
			m["p50_ms"] = v
		}
		if v, ok := percentile(xs, 0.99); ok {
			m["p99_ms"] = v
		}
		out[k] = m
	}
	return out
}
