// Cursor pagination of row-returning results. A cursor encodes a data
// position (hour partition + last delivered clustering key + order
// tie-breaker), never server state, so pages resume correctly across
// server restarts, memtable flushes, and segment compaction, and
// concatenating pages reproduces the one-shot result byte for byte.
package server

import (
	"context"
	"encoding/json"
	"errors"

	"hpclog/internal/analytics"
	"hpclog/internal/api"
	"hpclog/internal/model"
	"hpclog/internal/query"
	"hpclog/internal/store"
)

// pageLimit clamps a requested page size into the configured window.
func (s *Server) pageLimit(p *api.Page) int {
	limit := s.cfg.DefaultPageLimit
	if p != nil && p.Limit > 0 {
		limit = p.Limit
	}
	if limit > s.cfg.MaxPageLimit {
		limit = s.cfg.MaxPageLimit
	}
	return limit
}

// pagedQuery dispatches a paginated query.Request.
func (s *Server) pagedQuery(req api.QueryRequest) (*api.PageResult, *api.Error) {
	switch req.Op {
	case query.OpEvents:
		return s.eventsPage(req.Context, req.Page)
	case query.OpRuns:
		return s.runsPage(req.Request, req.Page)
	default:
		return nil, api.Errorf(api.CodeBadRequest,
			"op %q does not support pagination (only events and runs return row sets)", req.Op)
	}
}

// pageResult marshals a page's items.
func pageResult(items any, next string) (*api.PageResult, *api.Error) {
	data, err := json.Marshal(items)
	if err != nil {
		return nil, api.Errorf(api.CodeInternal, "marshal page: %v", err)
	}
	return &api.PageResult{Items: data, NextCursor: next}, nil
}

// --- Events ---

// errPageFull stops an events page's scan once the page holds its limit.
var errPageFull = errors.New("server: page full")

// eventsPage serves one page of an events request: the ordered event
// scan resumed after the cursor's position and stopped at the page
// limit, so pages concatenate to exactly the one-shot result. The scan
// runs one hour at a time: hours scanned ahead would be read for rows
// this page never returns.
func (s *Server) eventsPage(c query.Context, page *api.Page) (*api.PageResult, *api.Error) {
	from, to := c.Window()
	if !to.After(from) {
		return nil, api.Errorf(api.CodeBadRequest, "op \"events\" requires a non-empty [from, to) window")
	}
	var after *analytics.EventPos
	if page.Cursor != "" {
		cur, err := api.DecodeCursor(page.Cursor, "events")
		if err != nil {
			return nil, toAPIError(err)
		}
		after = &analytics.EventPos{Hour: cur.Hour, Key: cur.Key, Disc: cur.Disc}
	}
	limit := s.pageLimit(page)
	items := make([]query.EventRecord, 0, limit)
	var next string
	err := analytics.ScanEvents(s.eng, s.db, c.EventQuery(), after, analytics.ScanConfig{Parallelism: 1},
		func(pos analytics.EventPos, e model.Event) error {
			items = append(items, query.RecordOf(e))
			if len(items) < limit {
				return nil
			}
			next = api.Cursor{Op: "events", Hour: pos.Hour, Key: pos.Key, Disc: pos.Disc}.Encode()
			return errPageFull
		})
	if err != nil && !errors.Is(err, errPageFull) {
		// Same classification as the one-shot path (toAPIError), so the
		// identical store failure gets the identical code and SDK retry
		// behavior whichever way the result is delivered.
		return nil, toAPIError(err)
	}
	return pageResult(items, next)
}

// --- Runs ---

// runsPage serves one page of a runs request. Run sets are small (one row
// per job), so the page is cut from the deterministically ordered
// one-shot result; the cursor still encodes a data position (start
// timestamp + job ID), so it survives restart and compaction.
func (s *Server) runsPage(req query.Request, page *api.Page) (*api.PageResult, *api.Error) {
	req.Op = query.OpRuns
	result, err := s.q.Execute(req)
	if err != nil {
		return nil, toAPIError(err)
	}
	runs, ok := result.([]query.RunRecord)
	if !ok {
		return nil, api.Errorf(api.CodeInternal, "runs result has unexpected shape %T", result)
	}
	var cur api.Cursor
	if page.Cursor != "" {
		if cur, err = api.DecodeCursor(page.Cursor, "runs"); err != nil {
			return nil, toAPIError(err)
		}
	}
	limit := s.pageLimit(page)
	items := make([]query.RunRecord, 0, limit)
	var next string
	for _, run := range runs {
		key := store.EncodeTS(run.Start) + ":" + run.JobID
		if page.Cursor != "" && !cur.After(key, "") {
			continue
		}
		items = append(items, run)
		if len(items) == limit {
			next = api.Cursor{Op: "runs", Key: key}.Encode()
			break
		}
	}
	return pageResult(items, next)
}

// --- CQL ---

// pagedCQL serves one page of a non-aggregate SELECT. The cursor encodes
// the last delivered clustering key plus the delivered-row count (to
// honor a statement-level LIMIT across pages); the next page re-plans the
// statement with the scan range narrowed to keys strictly after the
// cursor, so resumption costs one pruned partition scan, not a skip.
func (s *Server) pagedCQL(ctx context.Context, req api.CQLRequest, cl store.Consistency) (*api.PageResult, *api.Error) {
	var cur api.Cursor
	if req.Page.Cursor != "" {
		var err error
		if cur, err = api.DecodeCursor(req.Page.Cursor, "cql"); err != nil {
			return nil, toAPIError(err)
		}
	}
	rows, nextKey, more, err := s.session(ctx, cl).SelectPage(req.Query, s.pageLimit(req.Page), req.Page.Cursor != "", cur.Key, cur.N)
	if err != nil {
		return nil, toAPIError(err)
	}
	var next string
	if more {
		next = api.Cursor{Op: "cql", Key: nextKey, N: cur.N + int64(len(rows))}.Encode()
	}
	return pageResult(rows, next)
}
