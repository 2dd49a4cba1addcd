package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// API errors surfaced by Submit/Cancel, mapped onto HTTP statuses by
// the handlers.
var (
	errDraining   = errors.New("service: draining, not accepting jobs")
	errUnknownJob = errors.New("service: no such job")
)

// queueFullError is the admission-control rejection: it carries the
// Retry-After hint handed to the client.
type queueFullError struct {
	scope      string
	retryAfter int
}

func (e *queueFullError) Error() string {
	return fmt.Sprintf("service: queue full (%s), retry in ~%ds", e.scope, e.retryAfter)
}

// apiError is the JSON error envelope every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
}

// maxSubmitBytes bounds a job submission body; a spec is a few hundred
// bytes, so 1 MiB is generous and still starves memory-exhaustion
// attempts.
const maxSubmitBytes = 1 << 20

// routes builds the API mux:
//
//	POST   /v1/jobs              submit        202 | 400 | 429 | 503
//	GET    /v1/jobs              list          (?tenant=, ?state=)
//	GET    /v1/jobs/{id}         inspect       200 | 404
//	POST   /v1/jobs/{id}/cancel  cancel        200 | 404 | 409
//	DELETE /v1/jobs/{id}         cancel alias
//	GET    /v1/jobs/{id}/events  stream        NDJSON, or SSE with
//	                                           Accept: text/event-stream
//	                                           (resume: Last-Event-ID /
//	                                           ?after=N)
//	GET    /v1/healthz           liveness
func (d *Daemon) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", d.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", d.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", d.handleGet)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", d.handleCancel)
	mux.HandleFunc("DELETE /v1/jobs/{id}", d.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", d.handleEvents)
	mux.HandleFunc("GET /v1/healthz", d.handleHealthz)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	body := http.MaxBytesReader(w, r.Body, maxSubmitBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, "malformed job spec: %v", err)
		return
	}
	j, err := d.Submit(spec)
	if err != nil {
		var full *queueFullError
		switch {
		case errors.As(err, &full):
			w.Header().Set("Retry-After", strconv.Itoa(full.retryAfter))
			writeErr(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, errDraining):
			writeErr(w, http.StatusServiceUnavailable, "%v", err)
		default:
			writeErr(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, j)
}

func (d *Daemon) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := d.List(r.URL.Query().Get("tenant"), JobState(r.URL.Query().Get("state")))
	writeJSON(w, http.StatusOK, map[string]any{"jobs": jobs})
}

func (d *Daemon) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := d.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func (d *Daemon) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, changed, err := d.Cancel(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	if !changed {
		writeErr(w, http.StatusConflict, "job %s is already %s", j.ID, j.State)
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func (d *Daemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	running := 0
	for _, j := range d.jobs {
		if j.State == JobRunning {
			running++
		}
	}
	// Per-tenant backlog: the admission-counted queue shares, so an
	// operator can see which tenant is saturating its depth limit
	// without walking the job list. Zero-share tenants are elided.
	backlog := make(map[string]int, len(d.queued))
	for tenant, n := range d.queued {
		if n > 0 {
			backlog[tenant] = n
		}
	}
	status := map[string]any{
		"ok":              true,
		"draining":        d.draining,
		"queued":          len(d.pending),
		"jobs":            len(d.jobs),
		"running":         running,
		"tenantBacklog":   backlog,
		"checkpointBytes": d.ckptBytes.Load(),
	}
	d.mu.Unlock()
	writeJSON(w, http.StatusOK, status)
}

// handleEvents streams a job's per-round events. The default framing is
// NDJSON (one Event per line); SSE is selected by Accept:
// text/event-stream or ?format=sse. Both honor resume: Last-Event-ID
// (SSE standard) or ?after=N skip everything already seen, and because
// executions are bit-exact across crashes, an ID observed once never
// changes meaning.
//
// For a live job the subscription is atomic (replay + follow, no gap);
// for a terminal job the durable log is streamed and the connection
// closes after the done event.
func (d *Daemon) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := d.Get(id); !ok {
		writeErr(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	after := 0
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			after = n
		}
	}
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "bad after=%q", v)
			return
		}
		after = n
	}
	sse := r.URL.Query().Get("format") == "sse" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream")

	tracePath := d.store.TracePath(id)
	replay := func(after int) ([]Event, error) { return readTraceEvents(tracePath, after) }
	events, live, unsubscribe, err := d.hub.subscribe(id, after, replay)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "read trace: %v", err)
		return
	}
	defer unsubscribe()

	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	// Send the headers now: a follower of a queued job may wait a long
	// time for its first event.
	flush()

	writeFrame := func(line []byte) bool {
		if sse {
			var e Event
			if err := json.Unmarshal(line, &e); err != nil {
				return false
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n",
				e.ID, e.Type, strings.TrimRight(string(line), "\n")); err != nil {
				return false
			}
		} else {
			if _, err := w.Write(line); err != nil {
				return false
			}
		}
		flush()
		return true
	}

	seen := after
	for i := range events {
		if !writeFrame(events[i].encode()) {
			return
		}
		seen = events[i].ID
	}
	if live == nil {
		return // terminal job: the durable log is the whole story
	}
	for {
		select {
		case line, ok := <-live:
			if !ok {
				// Topic closed: the job reached a terminal state (its
				// done event was published before teardown), or this
				// subscriber lagged. Either way the durable log has
				// anything missed; drain it and end the stream.
				tail, err := readTraceEvents(tracePath, seen)
				if err == nil {
					for i := range tail {
						if !writeFrame(tail[i].encode()) {
							return
						}
					}
				}
				return
			}
			var e Event
			if err := json.Unmarshal(line, &e); err == nil {
				if e.ID <= seen {
					continue // duplicate of the replayed prefix
				}
				seen = e.ID
			}
			if !writeFrame(line) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
