package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Server exposes a Registry over HTTP:
//
//	POST   /v1/jobs       submit a JobSpec, returns JobInfo (201)
//	GET    /v1/jobs       list all jobs
//	GET    /v1/jobs/{id}  one job's live status (and result when done)
//	DELETE /v1/jobs/{id}  cancel a job
//	GET    /metrics       Prometheus text-format telemetry
//	GET    /healthz       liveness probe
type Server struct {
	reg     *Registry
	mux     *http.ServeMux
	started time.Time
}

// New wires a Server around reg.
func New(reg *Registry) *Server {
	s := &Server{reg: reg, mux: http.NewServeMux(), started: time.Now()}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// Registry returns the server's job registry.
func (s *Server) Registry() *Registry { return s.reg }

// Handler returns the root http.Handler.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	var spec JobSpec
	if err := DecodeJSON(w, req, &spec); err != nil {
		WriteRefusal(w, s.reg, err)
		return
	}
	info, err := s.reg.Submit(spec)
	if err != nil {
		WriteRefusal(w, s.reg, err)
		return
	}
	WriteJSON(w, http.StatusCreated, info)
}

func (s *Server) handleList(w http.ResponseWriter, req *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{"jobs": s.reg.List()})
}

func (s *Server) handleGet(w http.ResponseWriter, req *http.Request) {
	info, err := s.reg.Get(req.PathValue("id"))
	if err != nil {
		WriteError(w, http.StatusNotFound, err)
		return
	}
	WriteJSON(w, http.StatusOK, info)
}

func (s *Server) handleCancel(w http.ResponseWriter, req *http.Request) {
	info, err := s.reg.Cancel(req.PathValue("id"))
	if err != nil {
		WriteError(w, http.StatusNotFound, err)
		return
	}
	WriteJSON(w, http.StatusOK, info)
}

func (s *Server) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", MetricsContentType)
	WriteMetrics(w, s.reg)
}

func (s *Server) handleHealthz(w http.ResponseWriter, req *http.Request) {
	c := s.reg.Counters()
	body := map[string]any{
		"status":      "ok",
		"uptime_sec":  time.Since(s.started).Seconds(),
		"jobs":        len(s.reg.List()),
		"queue_depth": s.reg.Depth(),
		"queue_limit": s.reg.MaxQueue(),
		"jobs_shed":   c.Shed,
	}
	if js, ok := s.reg.JournalStats(); ok {
		body["journal"] = map[string]any{
			"appends":  js.Appends,
			"syncs":    js.Syncs,
			"segments": s.reg.JournalSegments(),
			"errors":   c.JournalErrors,
		}
	}
	WriteJSON(w, http.StatusOK, body)
}

// The helpers below are the whole HTTP response surface, shared by the
// single-node server and the fleet gateway so both answer alike.

// MetricsContentType is the Prometheus text exposition format (0.0.4).
const MetricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// maxBodyBytes bounds a submitted body; well-formed specs are tiny.
const maxBodyBytes = 1 << 20

// ErrUnavailable refuses a request this node cannot serve right now,
// such as a forward to a peer it cannot reach. It is answered like a
// minority shed: 503 with Retry-After, never an unexplained 5xx.
var ErrUnavailable = errors.New("server: service temporarily unavailable")

// DecodeJSON reads a size-bounded JSON body into v, rejecting unknown
// fields so operators find typos immediately.
func DecodeJSON(w http.ResponseWriter, req *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad job spec: %w", err)
	}
	return nil
}

// WriteRefusal answers a refused submission with the status that tells
// the client what to do next. Overload (429) and minority or
// unreachable-owner unavailability (503) carry reg's Retry-After,
// derived from how deep the queue is and how fast it has been draining
// rather than a fixed guess; a shutting-down node answers a bare 503.
func WriteRefusal(w http.ResponseWriter, reg *Registry, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrMinority), errors.Is(err, ErrUnavailable):
		w.Header().Set("Retry-After", strconv.Itoa(reg.RetryAfterSeconds()))
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(reg.RetryAfterSeconds()))
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrDuplicateID):
		code = http.StatusConflict
	}
	WriteError(w, code, err)
}

// WriteJSON answers with v as indented JSON.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) // nothing useful to do with a failed write
}

// WriteError answers with {"error": err}.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, map[string]string{"error": err.Error()})
}
