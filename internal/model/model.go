// Package model defines the framework's data model (Section II of the
// paper): the event and application-run record types, the eight backend
// tables, and the construction of partition and clustering keys that give
// the store its spatio-temporal, time-series-friendly layout.
//
// An event is "occurrence(s) of a certain type reported at a particular
// timestamp", associated with the location (source component) where it was
// reported. Events are stored twice — once partitioned by (hour, type) and
// once by (hour, source) — so both "where did type X occur during hour H"
// and "what happened on component C during hour H" are single-partition
// range scans (Fig 1). Application runs are stored three times, keyed by
// hour, by application name, and by user (Fig 2).
package model

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"hpclog/internal/store"
)

// Table names, one per schema in Section II-B.
const (
	TableNodeInfos     = "nodeinfos"
	TableEventTypes    = "eventtypes"
	TableEventSynopsis = "eventsynopsis"
	TableEventByTime   = "event_by_time"
	TableEventByLoc    = "event_by_location"
	TableAppByTime     = "application_by_time"
	TableAppByUser     = "application_by_user"
	TableAppByLoc      = "application_by_location"
)

// AllTables lists every table of the data model.
var AllTables = []string{
	TableNodeInfos, TableEventTypes, TableEventSynopsis,
	TableEventByTime, TableEventByLoc,
	TableAppByTime, TableAppByUser, TableAppByLoc,
}

// EventType identifies a monitored event class. The catalog matches the
// paper's list: machine check exceptions, memory errors, GPU failures, GPU
// memory errors, Lustre errors, DVS errors, network errors, application
// aborts, and kernel panics.
type EventType string

// Event type catalog.
const (
	MCE         EventType = "MCE"
	MemECC      EventType = "MEM_ECC"
	GPUFail     EventType = "GPU_FAIL"
	GPUDBE      EventType = "GPU_DBE"
	Lustre      EventType = "LUSTRE"
	DVS         EventType = "DVS"
	Network     EventType = "NETWORK"
	AppAbort    EventType = "APP_ABORT"
	KernelPanic EventType = "KERNEL_PANIC"
)

// EventTypes is the full catalog in canonical order.
var EventTypes = []EventType{
	MCE, MemECC, GPUFail, GPUDBE, Lustre, DVS, Network, AppAbort, KernelPanic,
}

// TypeDescriptions documents each event type, loaded into the eventtypes
// table at bootstrap.
var TypeDescriptions = map[EventType]string{
	MCE:         "machine check exception reported by the processor",
	MemECC:      "correctable/uncorrectable DRAM ECC error",
	GPUFail:     "GPU failure (off the bus, SXM power)",
	GPUDBE:      "GPU GDDR5 double bit error",
	Lustre:      "Lustre file system error (client or server)",
	DVS:         "data virtualization service error",
	Network:     "Gemini network error (LCB lane, routing)",
	AppAbort:    "user application abnormal termination",
	KernelPanic: "compute node kernel panic",
}

// Event is one occurrence record.
type Event struct {
	// Time is the occurrence timestamp.
	Time time.Time
	// Type is the event class.
	Type EventType
	// Source is the reporting component in cname form (e.g. c3-0c1s2n0)
	// or a service name for off-machine sources (e.g. Lustre OSSes).
	Source string
	// Count is the number of coalesced occurrences (>= 1). Streaming
	// ingestion merges same-type, same-source, same-second events.
	Count int
	// Raw is the original log message text.
	Raw string
	// Attrs carries type-specific parsed fields (bank, xid, ost, ...).
	Attrs map[string]string
}

// Hour returns the event's hour bucket (unix time / 3600), the partition
// dimension of both event tables.
func (e Event) Hour() int64 { return e.Time.Unix() / 3600 }

// AppRun is one application run record from the job logs.
type AppRun struct {
	JobID  string
	App    string
	User   string
	Start  time.Time
	End    time.Time
	Nodes  []string // allocated nodes in cname form
	ExitOK bool
	Extra  map[string]string // the schema's variable "Other Info" columns
}

// Hour returns the run's start-hour bucket.
func (a AppRun) Hour() int64 { return a.Start.Unix() / 3600 }

// HourOf returns the hour bucket of an arbitrary time.
func HourOf(t time.Time) int64 { return t.Unix() / 3600 }

// --- Partition keys (the hash/distribution keys of Fig 1 and Fig 2) ---

// EventByTimeKey is the partition key of event_by_time: all events of one
// type within one hour share a partition.
func EventByTimeKey(hour int64, typ EventType) string {
	return fmt.Sprintf("%d:%s", hour, typ)
}

// EventByLocKey is the partition key of event_by_location: all events on
// one component within one hour share a partition.
func EventByLocKey(hour int64, source string) string {
	return fmt.Sprintf("%d:%s", hour, source)
}

// AppByTimeKey partitions application runs by start hour.
func AppByTimeKey(hour int64) string { return strconv.FormatInt(hour, 10) }

// AppByNameKey partitions application runs by application name.
func AppByNameKey(app string) string { return app }

// AppByUserKey partitions application runs by user.
func AppByUserKey(user string) string { return user }

// --- Clustering keys (sort order within a partition) ---

// eventClustering orders events by timestamp, then by a discriminator that
// keeps concurrent events from distinct sources/types distinct.
func eventClustering(t time.Time, disc string) string {
	return store.EncodeTS(t.Unix()) + ":" + disc
}

// EventTimeRange converts a [from, to) time window into a clustering-key
// range for either event table.
func EventTimeRange(from, to time.Time) store.Range {
	var rg store.Range
	if !from.IsZero() {
		rg.From = store.EncodeTS(from.Unix())
	}
	if !to.IsZero() {
		rg.To = store.EncodeTS(to.Unix())
	}
	return rg
}

// --- Row encoding ---

// Column names shared by the event rows (Fig 1: Timestamp, Source/Type,
// Amount).
const (
	ColType   = "type"
	ColSource = "source"
	ColAmount = "amount"
	ColRaw    = "raw"
)

// Interned column IDs for the hot encode/decode paths: rows are built and
// read through the store's column dictionary (store.Row.ColID) so the
// per-row work is integer-keyed with no map construction.
var (
	colTypeID   = store.InternColumn(ColType)
	colSourceID = store.InternColumn(ColSource)
	colAmountID = store.InternColumn(ColAmount)
	colRawID    = store.InternColumn(ColRaw)
)

// EventToTimeRow renders the event for the event_by_time table, where the
// partition key carries the type and the row stores the source.
func EventToTimeRow(e Event) store.Row {
	return eventRow(e, e.Source, colSourceID, e.Source)
}

// EventToLocRow renders the event for the event_by_location table, where
// the partition key carries the source and the row stores the type.
func EventToLocRow(e Event) store.Row {
	return eventRow(e, string(e.Type), colTypeID, string(e.Type))
}

func eventRow(e Event, disc string, dualCol uint32, dualVal string) store.Row {
	cols := make([]store.Col, 0, 3+len(e.Attrs))
	cols = append(cols,
		store.Col{ID: dualCol, Value: dualVal},
		store.Col{ID: colAmountID, Value: strconv.Itoa(max(1, e.Count))},
	)
	if e.Raw != "" {
		cols = append(cols, store.Col{ID: colRawID, Value: e.Raw})
	}
	for k, v := range e.Attrs {
		cols = append(cols, store.C("attr."+k, v))
	}
	return store.MakeRow(eventClustering(e.Time, disc), 0, cols)
}

// EventFromTimeRow decodes an event_by_time row. The partition key
// supplies the type.
func EventFromTimeRow(pkey string, r store.Row) (Event, error) {
	return eventFromTimeRow(pkey, r, true)
}

// EventFromTimeRowLite is EventFromTimeRow without the Attrs map —
// the zero-allocation decode for aggregation scans that fold on
// time/source/count/raw and never touch per-event attributes.
func EventFromTimeRowLite(pkey string, r store.Row) (Event, error) {
	return eventFromTimeRow(pkey, r, false)
}

func eventFromTimeRow(pkey string, r store.Row, withAttrs bool) (Event, error) {
	typ, err := TypeFromKey(pkey)
	if err != nil {
		return Event{}, err
	}
	e, err := eventFromRow(r, withAttrs)
	if err != nil {
		return Event{}, err
	}
	e.Type = typ
	e.Source = r.ColID(colSourceID)
	return e, nil
}

// EventFromLocRow decodes an event_by_location row. The partition key
// supplies the source. (No Lite variant: every current loc-table scan
// returns full events; add one alongside EventFromTimeRowLite if a fold
// over event_by_location appears.)
func EventFromLocRow(pkey string, r store.Row) (Event, error) {
	source, err := sourceFromKey(pkey)
	if err != nil {
		return Event{}, err
	}
	e, err := eventFromRow(r, true)
	if err != nil {
		return Event{}, err
	}
	e.Source = source
	e.Type = EventType(r.ColID(colTypeID))
	return e, nil
}

func eventFromRow(r store.Row, withAttrs bool) (Event, error) {
	ts, err := store.DecodeTS(r.Key)
	if err != nil {
		return Event{}, err
	}
	amount, err := strconv.Atoi(r.ColID(colAmountID))
	if err != nil || amount < 1 {
		return Event{}, fmt.Errorf("model: bad amount %q in row %q", r.ColID(colAmountID), r.Key)
	}
	e := Event{Time: time.Unix(ts, 0).UTC(), Count: amount, Raw: r.ColID(colRawID)}
	if withAttrs {
		e.Attrs = prefixedCols(r, "attr.", e.Attrs)
	}
	return e, nil
}

// prefixedCols collects the row's columns carrying the given name prefix
// into dst (allocated exact-size on first hit), handling both row
// representations. Column names resolved from the dictionary are canonical
// interned strings and the prefix cut is a substring, so a row without
// prefixed columns costs nothing and a row with them costs only the map.
func prefixedCols(r store.Row, prefix string, dst map[string]string) map[string]string {
	if cols := r.Cols(); cols != nil {
		n := 0
		for _, c := range cols {
			if strings.HasPrefix(store.ColumnName(c.ID), prefix) {
				n++
			}
		}
		if n == 0 {
			return dst
		}
		if dst == nil {
			dst = make(map[string]string, n)
		}
		for _, c := range cols {
			if name := store.ColumnName(c.ID); strings.HasPrefix(name, prefix) {
				dst[name[len(prefix):]] = c.Value
			}
		}
		return dst
	}
	for k, v := range r.Columns {
		if rest, ok := strings.CutPrefix(k, prefix); ok {
			if dst == nil {
				dst = make(map[string]string)
			}
			dst[rest] = v
		}
	}
	return dst
}

// TypeFromKey extracts the event type from an event_by_time partition
// key ("<hour>:<type>").
func TypeFromKey(pkey string) (EventType, error) {
	_, typ, ok := strings.Cut(pkey, ":")
	if !ok {
		return "", fmt.Errorf("model: malformed event_by_time partition key %q", pkey)
	}
	return EventType(typ), nil
}

func sourceFromKey(pkey string) (string, error) {
	_, src, ok := strings.Cut(pkey, ":")
	if !ok {
		return "", fmt.Errorf("model: malformed event_by_location partition key %q", pkey)
	}
	return src, nil
}

// --- Application run rows (Fig 2) ---

// Application run column names.
const (
	ColApp      = "app"
	ColUser     = "user"
	ColJobID    = "jobid"
	ColEndTime  = "endtime"
	ColNodeList = "nodelist"
	ColExitOK   = "exitok"
)

// Interned application-run column IDs.
var (
	colAppID      = store.InternColumn(ColApp)
	colUserID     = store.InternColumn(ColUser)
	colJobIDID    = store.InternColumn(ColJobID)
	colEndTimeID  = store.InternColumn(ColEndTime)
	colNodeListID = store.InternColumn(ColNodeList)
	colExitOKID   = store.InternColumn(ColExitOK)
)

// appClustering orders runs by start time then job id within a partition.
func appClustering(a AppRun, disc string) string {
	return store.EncodeTS(a.Start.Unix()) + ":" + disc
}

// AppToTimeRow renders a run for application_by_time (clustered by
// StartTime:Userid per Fig 2).
func AppToTimeRow(a AppRun) store.Row {
	return appRow(a, a.User+":"+a.JobID)
}

// AppToNameRow renders a run for the by-application view (clustered by
// StartTime:Userid).
func AppToNameRow(a AppRun) store.Row {
	return appRow(a, a.User+":"+a.JobID)
}

// AppToUserRow renders a run for the by-user view (clustered by
// StartTime:AppName).
func AppToUserRow(a AppRun) store.Row {
	return appRow(a, a.App+":"+a.JobID)
}

func appRow(a AppRun, disc string) store.Row {
	cols := make([]store.Col, 0, 6+len(a.Extra))
	cols = append(cols,
		store.Col{ID: colAppID, Value: a.App},
		store.Col{ID: colUserID, Value: a.User},
		store.Col{ID: colJobIDID, Value: a.JobID},
		store.Col{ID: colEndTimeID, Value: store.EncodeTS(a.End.Unix())},
		store.Col{ID: colNodeListID, Value: strings.Join(a.Nodes, ",")},
		store.Col{ID: colExitOKID, Value: strconv.FormatBool(a.ExitOK)},
	)
	// Variable per-run columns, the schema's "Other Info" family.
	for k, v := range a.Extra {
		cols = append(cols, store.C("info."+k, v))
	}
	return store.MakeRow(appClustering(a, disc), 0, cols)
}

// AppFromRow decodes any of the three application views back to a record.
func AppFromRow(r store.Row) (AppRun, error) {
	start, err := store.DecodeTS(r.Key)
	if err != nil {
		return AppRun{}, err
	}
	end, err := store.DecodeTS(r.ColID(colEndTimeID))
	if err != nil {
		return AppRun{}, fmt.Errorf("model: bad endtime in run row %q: %v", r.Key, err)
	}
	a := AppRun{
		JobID: r.ColID(colJobIDID),
		App:   r.ColID(colAppID),
		User:  r.ColID(colUserID),
		Start: time.Unix(start, 0).UTC(),
		End:   time.Unix(end, 0).UTC(),
	}
	if nl := r.ColID(colNodeListID); nl != "" {
		a.Nodes = strings.Split(nl, ",")
	}
	a.ExitOK = r.ColID(colExitOKID) == "true"
	a.Extra = prefixedCols(r, "info.", a.Extra)
	return a, nil
}

// HoursIn enumerates the hour buckets intersecting [from, to).
func HoursIn(from, to time.Time) []int64 {
	if !to.After(from) {
		return nil
	}
	first := HourOf(from)
	last := HourOf(to.Add(-time.Second))
	hours := make([]int64, 0, last-first+1)
	for h := first; h <= last; h++ {
		hours = append(hours, h)
	}
	return hours
}

// SortEvents orders events chronologically, breaking ties by source then
// type for determinism.
func SortEvents(events []Event) {
	sort.Slice(events, func(i, j int) bool {
		if !events[i].Time.Equal(events[j].Time) {
			return events[i].Time.Before(events[j].Time)
		}
		if events[i].Source != events[j].Source {
			return events[i].Source < events[j].Source
		}
		return events[i].Type < events[j].Type
	})
}
