package analytics

import (
	"fmt"
	"math"
	"time"

	"hpclog/internal/compute"
	"hpclog/internal/model"
	"hpclog/internal/store"
)

// Series is a regularly binned event-count time series.
type Series struct {
	Type model.EventType
	From time.Time
	Bin  time.Duration
	// Counts holds occurrence totals per bin.
	Counts []int
}

// BuildSeries bins occurrences of one type over [from, to).
func BuildSeries(eng *compute.Engine, db *store.DB, typ model.EventType, from, to time.Time, bin time.Duration) (*Series, error) {
	return BuildSeriesScan(eng, db, typ, from, to, bin, ScanConfig{})
}

// Binary reduces the series to presence indicators (count > 0), the
// symbolization used for information-theoretic measures.
func (s *Series) Binary() []int {
	out := make([]int, len(s.Counts))
	for i, c := range s.Counts {
		if c > 0 {
			out[i] = 1
		}
	}
	return out
}

// CrossCorrelation computes the normalized cross-correlation of two
// equal-length series at lags in [-maxLag, maxLag]. Index maxLag is lag 0;
// a peak at positive lag means x leads y.
func CrossCorrelation(x, y []int, maxLag int) ([]float64, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("analytics: series lengths differ: %d vs %d", len(x), len(y))
	}
	n := len(x)
	if n == 0 {
		return nil, fmt.Errorf("analytics: empty series")
	}
	if maxLag >= n {
		maxLag = n - 1
	}
	meanX, meanY := mean(x), mean(y)
	sdX, sdY := stddev(x, meanX), stddev(y, meanY)
	out := make([]float64, 2*maxLag+1)
	if sdX == 0 || sdY == 0 {
		return out, nil // a constant series correlates with nothing
	}
	for lag := -maxLag; lag <= maxLag; lag++ {
		sum, cnt := 0.0, 0
		for t := 0; t < n; t++ {
			u := t + lag
			if u < 0 || u >= n {
				continue
			}
			sum += (float64(x[t]) - meanX) * (float64(y[u]) - meanY)
			cnt++
		}
		if cnt > 0 {
			out[lag+maxLag] = sum / (float64(cnt) * sdX * sdY)
		}
	}
	return out, nil
}

func mean(v []int) float64 {
	s := 0
	for _, x := range v {
		s += x
	}
	return float64(s) / float64(len(v))
}

func stddev(v []int, m float64) float64 {
	s := 0.0
	for _, x := range v {
		d := float64(x) - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(v)))
}

// TransferEntropy computes TE(X→Y) in bits for binary series with history
// length one:
//
//	TE = Σ p(y⁺, y, x) log₂[ p(y⁺|y, x) / p(y⁺|y) ]
//
// where y⁺ is y at t+1. A positive TE(X→Y) exceeding TE(Y→X) indicates
// information flow from X to Y — the causal direction plot of Fig 7-top.
func TransferEntropy(x, y []int) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("analytics: series lengths differ: %d vs %d", len(x), len(y))
	}
	n := len(x)
	if n < 2 {
		return 0, fmt.Errorf("analytics: series too short for transfer entropy")
	}
	// Joint counts over (y_{t+1}, y_t, x_t) ∈ {0,1}³.
	var joint [2][2][2]float64
	for t := 0; t < n-1; t++ {
		joint[bit(y[t+1])][bit(y[t])][bit(x[t])]++
	}
	total := float64(n - 1)
	te := 0.0
	for yn := 0; yn < 2; yn++ {
		for yp := 0; yp < 2; yp++ {
			for xp := 0; xp < 2; xp++ {
				pj := joint[yn][yp][xp] / total
				if pj == 0 {
					continue
				}
				// p(y⁺|y,x) and p(y⁺|y)
				denomYX := joint[0][yp][xp] + joint[1][yp][xp]
				denomY := joint[0][yp][0] + joint[0][yp][1] + joint[1][yp][0] + joint[1][yp][1]
				numY := joint[yn][yp][0] + joint[yn][yp][1]
				condYX := joint[yn][yp][xp] / denomYX
				condY := numY / denomY
				te += pj * math.Log2(condYX/condY)
			}
		}
	}
	if te < 0 {
		te = 0 // clamp tiny negative rounding residue
	}
	return te, nil
}

func bit(v int) int {
	if v > 0 {
		return 1
	}
	return 0
}

// TEResult pairs both directions of a transfer entropy measurement.
type TEResult struct {
	XToY float64
	YToX float64
}

// Direction summarizes which way information flows, or "" when symmetric
// within tolerance.
func (r TEResult) Direction(tol float64) string {
	switch {
	case r.XToY > r.YToX+tol:
		return "x->y"
	case r.YToX > r.XToY+tol:
		return "y->x"
	default:
		return ""
	}
}

// TEPoint is one sliding-window transfer entropy measurement.
type TEPoint struct {
	Start time.Time
	TEResult
}

// TransferEntropySeries computes TE in both directions over sliding
// sub-windows of [from, to) — the data behind Fig 7-top's "transfer
// entropy plot of two event types measured within a selected time
// window". Each sub-window is subLen long and advances by step.
func TransferEntropySeries(eng *compute.Engine, db *store.DB, a, b model.EventType, from, to time.Time, bin, subLen, step time.Duration) ([]TEPoint, error) {
	if subLen <= 0 || step <= 0 {
		return nil, fmt.Errorf("analytics: sub-window and step must be positive")
	}
	if subLen < 2*bin {
		return nil, fmt.Errorf("analytics: sub-window %v shorter than two bins (%v)", subLen, bin)
	}
	sa, err := BuildSeries(eng, db, a, from, to, bin)
	if err != nil {
		return nil, err
	}
	sb, err := BuildSeries(eng, db, b, from, to, bin)
	if err != nil {
		return nil, err
	}
	x, y := sa.Binary(), sb.Binary()
	binsPerSub := int(subLen / bin)
	binsPerStep := int(step / bin)
	if binsPerStep < 1 {
		binsPerStep = 1
	}
	var points []TEPoint
	for lo := 0; lo+binsPerSub <= len(x); lo += binsPerStep {
		xs, ys := x[lo:lo+binsPerSub], y[lo:lo+binsPerSub]
		xy, err := TransferEntropy(xs, ys)
		if err != nil {
			return nil, err
		}
		yx, err := TransferEntropy(ys, xs)
		if err != nil {
			return nil, err
		}
		points = append(points, TEPoint{
			Start:    from.Add(time.Duration(lo) * bin),
			TEResult: TEResult{XToY: xy, YToX: yx},
		})
	}
	return points, nil
}

// TransferEntropyBetween builds binary series for two event types over the
// window and measures transfer entropy in both directions — the
// "investigation of correlation between two event occurrences within a
// selected time interval, which can provide a causal relationship between
// the two" (Section III-C).
func TransferEntropyBetween(eng *compute.Engine, db *store.DB, a, b model.EventType, from, to time.Time, bin time.Duration) (TEResult, error) {
	return TransferEntropyBetweenScan(eng, db, a, b, from, to, bin, ScanConfig{})
}
