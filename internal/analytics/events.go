package analytics

import (
	"time"

	"hpclog/internal/compute"
	"hpclog/internal/model"
	"hpclog/internal/store"
)

// This file is the one ordered event scan: every read that returns events
// rather than folding them — one-shot, paged, streamed, the watch fallback
// and the legacy poll, the Framework facade and the mining extensions —
// goes through ScanEvents, so the partition set, hour clipping, decode
// and result order are derived in exactly one place.

// EventQuery selects the events of one dashboard context within
// [From, To): those of one component (Source), of one type (Type), of
// one type on one component (both), or of every type (neither).
type EventQuery struct {
	Source   string
	Type     model.EventType
	From, To time.Time
}

// EventPos is an event's position in the ordered result: its hour bucket,
// its clustering key, and the tie-breaker among equal keys (the event
// type when an hour merges every type's partition, else ""). It is the
// data position a pagination cursor encodes, so a scan resumed after a
// position survives restarts, flushes and compaction.
type EventPos struct {
	Hour int64
	Key  string
	Disc string
}

// before reports whether p precedes q within one hour.
func (p EventPos) before(q EventPos) bool {
	if p.Key != q.Key {
		return p.Key < q.Key
	}
	return p.Disc < q.Disc
}

// eventPart is one partition an hour of a query reads, with the order
// tie-breaker its rows carry.
type eventPart struct{ pkey, disc string }

// eventShape maps a query onto store partitions: which table, which
// partitions per hour bucket, how a row decodes, and which type a
// source+type query keeps after decode.
type eventShape struct {
	table  string
	parts  func(hour int64) []eventPart
	decode func(pkey string, r store.Row) (model.Event, error)
	keep   model.EventType
}

func shapeOf(q EventQuery) eventShape {
	switch {
	case q.Source != "":
		return eventShape{
			table:  model.TableEventByLoc,
			parts:  func(hour int64) []eventPart { return []eventPart{{pkey: model.EventByLocKey(hour, q.Source)}} },
			decode: model.EventFromLocRow,
			keep:   q.Type,
		}
	case q.Type != "":
		return eventShape{
			table:  model.TableEventByTime,
			parts:  func(hour int64) []eventPart { return []eventPart{{pkey: model.EventByTimeKey(hour, q.Type)}} },
			decode: model.EventFromTimeRow,
		}
	default:
		return eventShape{
			table: model.TableEventByTime,
			parts: func(hour int64) []eventPart {
				parts := make([]eventPart, len(model.EventTypes))
				for i, typ := range model.EventTypes {
					parts[i] = eventPart{pkey: model.EventByTimeKey(hour, typ), disc: string(typ)}
				}
				return parts
			},
			decode: model.EventFromTimeRow,
		}
	}
}

// posEvent is one scanned event with its position.
type posEvent struct {
	pos EventPos
	e   model.Event
}

// ScanEvents streams the events q selects to yield in result order:
// chronological, ties broken by source then type — the order
// model.SortEvents imposes, so no caller sorts. With after non-nil the
// scan resumes strictly after that position. It runs one compute scan
// task per hour bucket; StreamScan delivers hours in order while later
// hours scan ahead (cfg.Parallelism bounds how far). A yield error stops
// the scan and is returned as is, so a caller that has seen enough
// returns a sentinel and checks for it.
func ScanEvents(eng *compute.Engine, db *store.DB, q EventQuery, after *EventPos, cfg ScanConfig,
	yield func(EventPos, model.Event) error) error {
	sh := shapeOf(q)
	var tasks []compute.ScanTask[posEvent]
	for _, hour := range model.HoursIn(q.From, q.To) {
		if after != nil && hour < after.Hour {
			continue
		}
		lo, hi := hourWindow(hour, q.From, q.To)
		if !hi.After(lo) {
			continue
		}
		rg := model.EventTimeRange(lo, hi)
		var skip *EventPos
		if after != nil && hour == after.Hour {
			// Rows of other partitions may share the cursor's key, so the
			// range starts at it and the merge skips up to the position.
			skip = after
			rg.From = max(rg.From, after.Key)
		}
		tasks = append(tasks, compute.ScanTask[posEvent]{
			Index: len(tasks),
			Run: func(emit func(posEvent) error) error {
				return sh.scanHour(db, hour, rg, skip, emit)
			},
		})
	}
	return compute.StreamScan(eng, cfg.opts(), tasks, func(_ int, batch []posEvent) error {
		for _, pe := range batch {
			if err := yield(pe.pos, pe.e); err != nil {
				return err
			}
		}
		return nil
	})
}

// scanHour streams one hour bucket in result order: the hour's partitions
// (one per event type for all-type queries) are read through store
// iterators and merged lazily on (clustering key, disc). Clustering keys
// are fixed-width-timestamp prefixed, so byte order is time order, and
// the key's discriminator (source or type) and the partition's type
// break ties as model.SortEvents does. Nothing is held beyond one row
// per open iterator.
func (sh eventShape) scanHour(db *store.DB, hour int64, rg store.Range, after *EventPos, emit func(posEvent) error) error {
	type head struct {
		it   store.RowIter
		part eventPart
		row  store.Row
		ok   bool
	}
	parts := sh.parts(hour)
	heads := make([]head, 0, len(parts))
	defer func() {
		for _, h := range heads {
			h.it.Close()
		}
	}()
	// next advances h; ok == false is exhausted *or* failed, and a failure
	// must not pass off as the end of the partition.
	next := func(h *head) error {
		if h.row, h.ok = h.it.Next(); !h.ok {
			return h.it.Err()
		}
		return nil
	}
	for _, part := range parts {
		it, err := db.ScanPartition(sh.table, part.pkey, rg, store.One)
		if err != nil {
			return err
		}
		heads = append(heads, head{it: it, part: part})
		if err := next(&heads[len(heads)-1]); err != nil {
			return err
		}
	}
	for {
		var min *head
		for i := range heads {
			h := &heads[i]
			if h.ok && (min == nil || h.row.Key < min.row.Key ||
				(h.row.Key == min.row.Key && h.part.disc < min.part.disc)) {
				min = h
			}
		}
		if min == nil {
			return nil
		}
		pos := EventPos{Hour: hour, Key: min.row.Key, Disc: min.part.disc}
		if after == nil || after.before(pos) {
			e, err := sh.decode(min.part.pkey, min.row)
			if err != nil {
				return err
			}
			if sh.keep == "" || e.Type == sh.keep {
				if err := emit(posEvent{pos, e}); err != nil {
					return err
				}
			}
		}
		if err := next(min); err != nil {
			return err
		}
	}
}

// CollectEvents returns every event q selects, in result order.
func CollectEvents(eng *compute.Engine, db *store.DB, q EventQuery, cfg ScanConfig) ([]model.Event, error) {
	var out []model.Event
	err := ScanEvents(eng, db, q, nil, cfg, func(_ EventPos, e model.Event) error {
		out = append(out, e)
		return nil
	})
	return out, err
}

// EventsByTypeScan returns all events of one type in [from, to), in
// result order.
func EventsByTypeScan(eng *compute.Engine, db *store.DB, typ model.EventType, from, to time.Time, cfg ScanConfig) ([]model.Event, error) {
	return CollectEvents(eng, db, EventQuery{Type: typ, From: from, To: to}, cfg)
}
