package query

import (
	"fmt"
	"time"

	"hpclog/internal/analytics"
	"hpclog/internal/mining"
	"hpclog/internal/model"
	"hpclog/internal/profile"
	"hpclog/internal/topology"
)

// Extension operations implementing the paper's Section V roadmap:
// event mining (rules, sequences, episodes, composites), application
// profiles, and reliability statistics.
const (
	OpRules       Op = "rules"       // big data: association rules between types
	OpSequences   Op = "sequences"   // big data: A-followed-by-B patterns
	OpEpisodes    Op = "episodes"    // big data: time-coalesced episodes
	OpProfiles    Op = "profiles"    // big data: application event profiles
	OpRunReport   Op = "run_report"  // big data: one run vs its profile
	OpReliability Op = "reliability" // big data: failure interarrival stats
)

// runExtension executes the Section V operations. Routing, caching, and
// metrics are handled by Execute; event collection rides the streaming
// scan path like every other big-data operation.
func (q *Engine) runExtension(req Request) (any, error) {
	from, to, err := req.window()
	if err != nil {
		return nil, err
	}
	switch req.Op {
	case OpRules:
		events, err := q.allEvents(from, to)
		if err != nil {
			return nil, err
		}
		return mining.MineRules(events, req.bin(), 0.01, 0.2)
	case OpSequences:
		events, err := q.allEvents(from, to)
		if err != nil {
			return nil, err
		}
		return mining.MineSequences(events, req.bin(), 5, true)
	case OpEpisodes:
		typ, err := req.eventType()
		if err != nil {
			return nil, err
		}
		events, err := analytics.EventsByTypeScan(q.compute, q.db, typ, from, to, q.scanCfg())
		if err != nil {
			return nil, err
		}
		return mining.Coalesce(events, req.bin(), false), nil
	case OpProfiles:
		events, runs, err := q.profileInputs(from, to)
		if err != nil {
			return nil, err
		}
		profiles := profile.Build(events, runs)
		if req.Context.EventType != "" {
			return profile.Compare(profiles, model.EventType(req.Context.EventType)), nil
		}
		return profiles, nil
	case OpRunReport:
		return q.runReport(req, from, to)
	case OpReliability:
		events, err := q.allEvents(from, to)
		if err != nil {
			return nil, err
		}
		stats, err := analytics.Interarrivals(events, nil)
		if err != nil {
			return nil, err
		}
		ranked, err := analytics.FailuresByComponent(events, nil, topology.LevelCabinet)
		if err != nil {
			return nil, err
		}
		if k := req.topK(); len(ranked) > k {
			ranked = ranked[:k]
		}
		return struct {
			Stats      analytics.InterarrivalStats   `json:"stats"`
			TopFailing []analytics.ComponentFailures `json:"top_failing"`
		}{stats, ranked}, nil
	}
	panic("unreachable")
}

// allEvents collects every event of every type in [from, to).
func (q *Engine) allEvents(from, to time.Time) ([]model.Event, error) {
	return analytics.CollectEvents(q.compute, q.db, analytics.EventQuery{From: from, To: to}, q.scanCfg())
}

// profileInputs reads the events and runs of [from, to) that application
// profiles are built from.
func (q *Engine) profileInputs(from, to time.Time) ([]model.Event, []model.AppRun, error) {
	events, err := q.allEvents(from, to)
	if err != nil {
		return nil, nil, err
	}
	runs, err := analytics.RunsIn(q.db, from, to, 24*time.Hour)
	return events, runs, err
}

func (q *Engine) runReport(req Request, from, to time.Time) (any, error) {
	if req.Context.App == "" {
		return nil, fmt.Errorf("query: run_report requires context.app (and optionally the jobid via context.user)")
	}
	events, runs, err := q.profileInputs(from, to)
	if err != nil {
		return nil, err
	}
	prof := profile.Build(events, runs)[req.Context.App]
	if prof == nil {
		return nil, fmt.Errorf("query: no runs of application %q in window", req.Context.App)
	}
	var reports []profile.RunReport
	for _, r := range runs {
		if r.App != req.Context.App {
			continue
		}
		report, err := profile.Evaluate(r, events, prof, 3)
		if err != nil {
			return nil, err
		}
		reports = append(reports, report)
	}
	return reports, nil
}
