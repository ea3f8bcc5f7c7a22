package server

// The request pipeline. Every route runs the same three stages:
//
//  1. instrument (server.go): shutdown and drain shedding, authentication,
//     rate limiting and the operator-scope gate;
//  2. route: the dataset named by the {name} path value resolved, the body
//     decoded under Config.MaxUploadBytes, the dataset named by the body
//     resolved, and the request's deadline context derived; a handler that
//     needs execution slots takes them with call.admit, and the pipeline
//     releases them when the handler returns;
//  3. respond: the handler's result written as JSON (or as the Prometheus
//     exposition), or its *api.Error as the typed error envelope.
//
// Handlers never touch the http.ResponseWriter: each returns a status, a
// body and an *api.Error, so every route shares one error path, one
// admission path and one deadline.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"

	"hypdb/api"
	"hypdb/internal/promexport"
)

// call is one request as a handler sees it after stage 2.
type call struct {
	s *Server
	r *http.Request
	// ctx is the request's context joined to the server's closing context
	// and bounded by Config.RequestTimeout: every backend call runs under it.
	ctx context.Context
	// e is the resolved dataset; nil on routes that name none.
	e       *entry
	release func()
}

// admit takes n execution slots from the dataset's fair queue on behalf of
// the request; the pipeline releases them when the handler returns.
func (c *call) admit(n int) *api.Error {
	release, err := c.s.acquire(c.ctx, c.r, c.e, n)
	if err != nil {
		return mapError("the wait for an execution slot", err)
	}
	c.release = release
	return nil
}

// noBody is the body type of routes that read none.
type noBody struct{}

// exposition is a response body written as Prometheus text, not JSON.
type exposition []byte

// route adapts a handler to net/http, running stages 2 and 3 around it.
func route[B any](s *Server, h func(*call, *B) (int, any, *api.Error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := s.requestContext(r)
		defer cancel()
		c := &call{s: s, r: r, ctx: ctx}
		status, out, apiErr := func() (int, any, *api.Error) {
			var apiErr *api.Error
			if name := r.PathValue("name"); name != "" {
				if c.e, apiErr = s.lookup(name); apiErr != nil {
					return 0, nil, apiErr
				}
			}
			var body B
			if apiErr := s.decode(w, r, &body); apiErr != nil {
				return 0, nil, apiErr
			}
			if name, ok := datasetOf(&body); ok {
				if c.e, apiErr = s.lookup(name); apiErr != nil {
					return 0, nil, apiErr
				}
			}
			defer func() {
				if c.release != nil {
					c.release()
				}
			}()
			return h(c, &body)
		}()
		s.respond(w, r, status, out, apiErr)
	}
}

// decode reads a route's request body: none, a dataset upload (JSON, or a
// raw CSV body with its options in the query string), or a JSON document.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, body any) *api.Error {
	switch b := body.(type) {
	case *noBody:
		return nil
	case *api.CreateDatasetRequest:
		ct := r.Header.Get("Content-Type")
		switch {
		case strings.HasPrefix(ct, "application/json"), ct == "":
			return s.decodeBody(w, r, b)
		case strings.HasPrefix(ct, "text/csv"):
			raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.maxUploadBytes()))
			if err != nil {
				return bodyError(err, s.cfg.maxUploadBytes())
			}
			b.Name, b.CSV = r.URL.Query().Get("name"), string(raw)
			// A silently ignored ?shards= would strand the dataset on the
			// non-appendable mem backend.
			if v := r.URL.Query().Get("shards"); v != "" {
				n, err := strconv.Atoi(v)
				if err != nil || n < 0 {
					return badRequest(fmt.Sprintf("bad shards value %q (want a non-negative integer)", v))
				}
				b.Shards = n
			}
			return nil
		default:
			return badRequest(fmt.Sprintf("unsupported Content-Type %q (want application/json or text/csv)", ct))
		}
	default:
		return s.decodeBody(w, r, body)
	}
}

// datasetOf returns the dataset a request body names, if its type names one.
func datasetOf(body any) (string, bool) {
	switch b := body.(type) {
	case *api.AnalyzeRequest:
		return b.Dataset, true
	case *api.BatchRequest:
		return b.Dataset, true
	case *api.AuditRequest:
		return b.Dataset, true
	}
	return "", false
}

// respond writes a handler's result: the typed error envelope, an empty
// body, the exposition text, or JSON.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, status int, body any, apiErr *api.Error) {
	if apiErr != nil {
		s.writeError(w, r, apiErr)
		return
	}
	switch b := body.(type) {
	case nil:
		w.WriteHeader(status)
	case exposition:
		w.Header().Set("Content-Type", promexport.ContentType)
		w.WriteHeader(status)
		if _, err := w.Write(b); err != nil {
			s.log.Error("writing metrics exposition", "error", err)
		}
	default:
		s.writeJSON(w, status, body)
	}
}

// requestContext derives the request's deadline context: the request's own
// context, joined to the server's closing context (shutdown cancels
// in-flight work) and bounded by the configured timeout.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(s.closing, cancel)
	if s.cfg.RequestTimeout > 0 {
		tctx, tcancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
		return tctx, func() { tcancel(); cancel(); stop() }
	}
	return ctx, func() { cancel(); stop() }
}

// acquire takes n execution slots from the dataset's fair queue on behalf
// of the request's authenticated identity: requests queue in weighted
// fair order (one tenant's burst cannot starve another), multi-slot
// reservations (batches, audits) are FIFO against racing singles, and
// overload or an unmeetable deadline sheds with a typed *admission.Rejection
// that mapError turns into 429/503 + Retry-After.
func (s *Server) acquire(ctx context.Context, r *http.Request, e *entry, n int) (release func(), err error) {
	id := identityFrom(r.Context())
	return e.queue.Acquire(ctx, id.name, id.weight, n)
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.log.Error("encoding response", "error", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, r *http.Request, e *api.Error) {
	if e.Status >= 500 && e.Code != api.CodeShuttingDown && e.Code != api.CodeOverloaded {
		s.log.Error("request failed", "method", r.Method, "path", r.URL.Path,
			"code", e.Code, "error", e.Message)
	}
	w.Header().Set("Content-Type", "application/json")
	if e.RetryAfterSeconds > 0 {
		// The standard header carries whole seconds; round up so a client
		// honoring only the header never retries early.
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(e.RetryAfterSeconds))))
	}
	w.WriteHeader(e.Status)
	_ = json.NewEncoder(w).Encode(map[string]*api.Error{"error": e})
}

// decodeBody decodes a JSON request body under the server's byte limit,
// distinguishing oversized bodies (413) from malformed ones (400).
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) *api.Error {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.maxUploadBytes())).Decode(v)
	if err == nil {
		return nil
	}
	return bodyError(err, s.cfg.maxUploadBytes())
}

// bodyError classifies a body-read failure.
func bodyError(err error, limit int64) *api.Error {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return &api.Error{
			Status: http.StatusRequestEntityTooLarge, Code: api.CodeBodyTooLarge,
			Message: fmt.Sprintf("request body exceeds the %d-byte limit", limit),
		}
	}
	return badRequest("reading request body: " + err.Error())
}
