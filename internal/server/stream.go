// NDJSON streaming of row-returning results. Streamed responses are fed
// directly from the ordered event scan (analytics.ScanEvents), so a large
// scan flows from storage iterators to the socket without ever
// materializing server-side; the lines concatenate to exactly the
// one-shot result, and a terminal api.StreamTrailer line carries the row
// count or the error that cut the stream short.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"

	"hpclog/internal/analytics"
	"hpclog/internal/api"
	"hpclog/internal/cql"
	"hpclog/internal/model"
	"hpclog/internal/query"
)

// ndjson writes one JSON document per line, deferring headers until the
// first line so pre-stream failures can still answer with a plain
// enveloped error and proper status code.
type ndjson struct {
	w         http.ResponseWriter
	enc       *json.Encoder
	reqID     string
	started   bool
	rows      int64
	unflushed int
}

func newNDJSON(w http.ResponseWriter, reqID string) *ndjson {
	return &ndjson{w: w, enc: json.NewEncoder(w), reqID: reqID}
}

// begin commits the response to streaming: headers plus 200.
func (n *ndjson) begin() {
	if n.started {
		return
	}
	n.started = true
	h := n.w.Header()
	h.Set("Content-Type", api.MediaTypeNDJSON)
	h.Set(api.VersionHeader, fmt.Sprint(api.Version))
	h.Set(api.RequestIDHeader, n.reqID)
	n.w.WriteHeader(http.StatusOK)
}

// flushEvery bounds how many lines buffer before an explicit flush.
const flushEvery = 256

func (n *ndjson) flush() {
	n.unflushed = 0
	if f, ok := n.w.(http.Flusher); ok {
		f.Flush()
	}
}

// emit writes one data line.
func (n *ndjson) emit(v any) error {
	n.begin()
	if err := n.enc.Encode(v); err != nil {
		return err
	}
	n.rows++
	if n.unflushed++; n.unflushed >= flushEvery {
		n.flush()
	}
	return nil
}

// finish terminates the stream with the trailer line.
func (n *ndjson) finish(err error) {
	n.begin()
	tr := api.StreamTrailer{Trailer: true, Rows: n.rows}
	if err != nil {
		tr.Err = toAPIError(err)
		tr.Err.RequestID = n.reqID
	}
	_ = n.enc.Encode(tr)
	n.flush()
}

// handleQueryStream answers POST /v1/query/stream: NDJSON rows for
// row-returning ops (events, runs).
func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	started := s.now()
	reqID := s.requestID(r)
	if perr := negotiate(r); perr != nil {
		s.writeV1(w, started, reqID, nil, perr)
		return
	}
	var req api.QueryRequest
	if aerr := s.decodeBody(w, r, &req); aerr != nil {
		s.writeV1(w, started, reqID, nil, aerr)
		return
	}
	nd := newNDJSON(w, reqID)
	var err error
	switch req.Op {
	case query.OpEvents:
		err = s.streamEvents(req.Context, nd)
	case query.OpRuns:
		err = s.streamRuns(req.Request, nd)
	default:
		err = api.Errorf(api.CodeNotStreamable,
			"op %q does not stream (only events and runs return row sets)", req.Op)
	}
	if err != nil && !nd.started {
		s.writeV1(w, started, reqID, nil, toAPIError(err))
		return
	}
	nd.finish(err)
}

// handleCQLStream answers POST /v1/cql/stream: NDJSON result rows of a
// non-aggregate SELECT, straight off the plan executor's scan stream.
func (s *Server) handleCQLStream(w http.ResponseWriter, r *http.Request) {
	started := s.now()
	reqID := s.requestID(r)
	if perr := negotiate(r); perr != nil {
		s.writeV1(w, started, reqID, nil, perr)
		return
	}
	var req api.CQLRequest
	if aerr := s.decodeBody(w, r, &req); aerr != nil {
		s.writeV1(w, started, reqID, nil, aerr)
		return
	}
	cl, aerr := parseConsistency(req.Consistency)
	if aerr != nil {
		s.writeV1(w, started, reqID, nil, aerr)
		return
	}
	nd := newNDJSON(w, reqID)
	err := s.session(r.Context(), cl).StreamSelect(req.Query, func(row cql.ResultRow) error {
		return nd.emit(row)
	})
	if err != nil && !nd.started {
		if err == cql.ErrNotStreamable {
			s.writeV1(w, started, reqID, nil, api.Errorf(api.CodeNotStreamable, "%v", err))
		} else {
			s.writeV1(w, started, reqID, nil, toAPIError(err))
		}
		return
	}
	nd.finish(err)
}

// streamRuns streams the runs result. Run sets are one row per job —
// small — so they stream from the one-shot result.
func (s *Server) streamRuns(req query.Request, nd *ndjson) error {
	req.Op = query.OpRuns
	result, err := s.q.Execute(req)
	if err != nil {
		return err
	}
	runs, ok := result.([]query.RunRecord)
	if !ok {
		return api.Errorf(api.CodeInternal, "runs result has unexpected shape %T", result)
	}
	for _, run := range runs {
		if err := nd.emit(run); err != nil {
			return err
		}
	}
	return nil
}

// streamEvents streams an events result straight from the ordered event
// scan: hours are delivered in order while later hours scan ahead on the
// compute pool, and each row is emitted as it is delivered, so the line
// order equals the one-shot result order.
func (s *Server) streamEvents(c query.Context, nd *ndjson) error {
	from, to := c.Window()
	if !to.After(from) {
		return api.Errorf(api.CodeBadRequest, "op \"events\" requires a non-empty [from, to) window")
	}
	par, _ := s.q.ScanTuning()
	return analytics.ScanEvents(s.eng, s.db, c.EventQuery(), nil, analytics.ScanConfig{Parallelism: par},
		func(_ analytics.EventPos, e model.Event) error {
			return nd.emit(query.RecordOf(e))
		})
}
