// Package analytics implements the big data processing unit of Section
// III: the heat map and distribution computations behind the physical
// system map (Fig 5), temporal histograms for the temporal map, event
// correlation via cross-correlation and transfer entropy (Fig 7-top), and
// the text analytics — word count and TF-IDF over raw Lustre messages —
// that surface the culprit component in a system-wide event (Fig
// 7-bottom).
//
// All heavy computations run as scan tasks on the compute engine: folds
// over partition slices for the aggregations (stream.go), and one ordered
// event scan for every read that returns events (events.go).
package analytics

import (
	"time"

	"hpclog/internal/model"
	"hpclog/internal/store"
)

// RunsIn returns all application runs that overlap [from, to), scanning
// the application_by_time partitions for the window plus a lookback for
// long-running jobs.
func RunsIn(db *store.DB, from, to time.Time, lookback time.Duration) ([]model.AppRun, error) {
	if lookback <= 0 {
		lookback = 24 * time.Hour
	}
	hours := model.HoursIn(from.Add(-lookback), to)
	var runs []model.AppRun
	for _, hour := range hours {
		rows, err := db.Get(model.TableAppByTime, model.AppByTimeKey(hour), store.Range{}, store.One)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			run, err := model.AppFromRow(r)
			if err != nil {
				return nil, err
			}
			if run.Start.Before(to) && run.End.After(from) {
				runs = append(runs, run)
			}
		}
	}
	return runs, nil
}
