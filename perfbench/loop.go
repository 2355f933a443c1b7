package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// target executes one request and returns the answer bytes when keep is
// set. The benchmark's targets wrap SDK clients; the harness tests use
// fakes.
type target func(ctx context.Context, r *request, keep bool) ([]byte, error)

// outcome is one finished request. Latency runs from when the request was
// due to its decoded answer, so a stall delays every later request's
// clock too (no coordinated omission).
type outcome struct {
	kind kind
	lat  time.Duration // due → decoded answer
	err  error
	ans  []byte // the answer, when the caller asked for answers
}

// closedLoop runs len(targets) clients that each issue the stream's next
// request as soon as their previous one completes. It stops issuing after
// count requests (count > 0) or once dur has passed, and returns every
// outcome plus the time from start to the last completion.
func closedLoop(ctx context.Context, targets []target, next func(due time.Time) request, count int64, dur time.Duration) ([]outcome, time.Duration) {
	var issued atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	per := make([][]outcome, len(targets))
	var wg sync.WaitGroup
	for i, t := range targets {
		wg.Add(1)
		go func(i int, t target) {
			defer wg.Done()
			for ctx.Err() == nil {
				if count > 0 && issued.Add(1) > count {
					return
				}
				if count <= 0 && !time.Now().Before(deadline) {
					return
				}
				began := time.Now()
				r := next(began)
				_, err := t(ctx, &r, false)
				per[i] = append(per[i], outcome{kind: r.kind, lat: time.Since(began), err: err})
			}
		}(i, t)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out []outcome
	for _, p := range per {
		out = append(out, p...)
	}
	return out, elapsed
}

// stepResult is one fixed-rate step of an open loop.
type stepResult struct {
	rate     float64
	offered  int64 // arrivals due within the step
	shed     int64 // due arrivals still unissued when the drain grace ran out
	outcomes []outcome
	// lag is how late each arrival was issued (due → a worker started
	// it), in milliseconds; a stalled target makes the loop run late.
	lag []float64
	// queueWait is the part of lag spent waiting for a free worker (the
	// generator was ready → a worker started it), in milliseconds.
	queueWait []float64
	elapsed   time.Duration
}

type arrival struct {
	req   request
	due   time.Time
	ready time.Time // when the generator offered it to the workers
}

// drainGrace is how long after a step ends the generator may still issue
// arrivals that were due within it. Arrivals still waiting then are shed:
// the backlog outgrew what the step could serve.
const drainGrace = time.Second

// openLoop offers next(due) at a fixed rate for dur, on one worker per
// target. Arrivals are due at evenly spaced instants; the generator hands
// each to a free worker, waiting if none is free. Arrivals due within the
// step that are still unissued drainGrace after it ends are shed and count
// as failures. onDone, when set, sees each answer and may turn the outcome
// into a failure.
func openLoop(ctx context.Context, targets []target, next func(due time.Time) request, rate float64, dur time.Duration, onDone func(arrival, outcome) outcome) stepResult {
	res := stepResult{rate: rate}
	work := make(chan arrival)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, t := range targets {
		wg.Add(1)
		go func(t target) {
			defer wg.Done()
			for a := range work {
				began := time.Now()
				ans, err := t(ctx, &a.req, onDone != nil)
				o := outcome{kind: a.req.kind, lat: time.Since(a.due), err: err}
				if onDone != nil {
					o.ans = ans
					o = onDone(a, o)
					o.ans = nil
				}
				mu.Lock()
				res.outcomes = append(res.outcomes, o)
				res.lag = append(res.lag, ms(began.Sub(a.due)))
				res.queueWait = append(res.queueWait, ms(began.Sub(a.ready)))
				mu.Unlock()
			}
		}(t)
	}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	end := start.Add(dur)
	timer := time.NewTimer(time.Until(end.Add(drainGrace)))
	defer timer.Stop()
loop:
	for k := int64(0); ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(end) || ctx.Err() != nil {
			break
		}
		res.offered++
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		a := arrival{req: next(due), due: due, ready: time.Now()}
		select {
		case work <- a:
		case <-timer.C:
			// The grace ran out with this arrival still waiting: it and
			// every later arrival due within the step are shed.
			res.offered = int64((dur + interval - 1) / interval)
			res.shed = res.offered - k
			break loop
		}
	}
	close(work)
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}
